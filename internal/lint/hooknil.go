package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HookNil preserves the "nil hooks are free" contract (DESIGN §11) two
// ways:
//
//  1. Call-site domination. A call through a nillable function-typed
//     struct field — one the package itself ever compares against nil or
//     assigns nil to, like network.Network.trace behind SetTrace — must
//     be dominated by a nil check: inside `if x.f != nil { ... }`
//     (possibly as one conjunct of &&), in the else of `if x.f == nil`,
//     or after an early `if x.f == nil { return }` bail in an enclosing
//     block. Fields never compared to nil are treated as always-set and
//     exempt — the analyzer keys off the package's own declaration that
//     a hook is optional.
//
//  2. Receiver guards. Exported pointer-receiver methods of the
//     configured nil-safe hook types (obs.RunObserver, obs.Timeline,
//     obs.TraceSink, obs.CampaignProgress) must begin with a receiver nil
//     check (`if o == nil { ... }`, possibly `o == nil || ...`), so the
//     zero-value-disabled contract survives new methods.
//
// Test files are exempt: tests construct hooks they know are set.
var HookNil = &Analyzer{
	Name: "hooknil",
	Doc:  "require nil-check domination for optional hook calls and nil guards on nil-safe hook methods",
	Run:  runHookNil,
}

func runHookNil(pass *Pass) {
	checkHookCallSites(pass)
	checkNilSafeReceivers(pass)
}

func checkHookCallSites(pass *Pass) {
	info := pass.Pkg.Info
	// Pass 1: which function-typed fields does this package treat as
	// nillable? (compared against nil anywhere, or assigned nil)
	nillable := make(map[types.Object]bool)
	note := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if obj := fieldFuncObj(info, sel); obj != nil {
			nillable[obj] = true
		}
	}
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.IsTest(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op == token.EQL || x.Op == token.NEQ {
					if isNilIdent(info, x.X) {
						note(x.Y)
					}
					if isNilIdent(info, x.Y) {
						note(x.X)
					}
				}
			case *ast.AssignStmt:
				for i, r := range x.Rhs {
					if isNilIdent(info, r) && i < len(x.Lhs) {
						note(x.Lhs[i])
					}
				}
			}
			return true
		})
	}
	if len(nillable) == 0 {
		return
	}
	// Pass 2: every call through a nillable field must be dominated by a
	// nil check on that same selector.
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.IsTest(f) {
			continue
		}
		inspectWithStack([]*ast.File{f}, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := fieldFuncObj(info, sel)
			if obj == nil || !nillable[obj] {
				return true
			}
			if nilCheckDominates(info, sel, call, stack) {
				return true
			}
			pass.Reportf(call.Pos(), "call to hook %s is not dominated by a nil check; nil hooks must be free (DESIGN §11)", types.ExprString(sel))
			return true
		})
	}
}

// fieldFuncObj returns the struct-field object sel names when that field
// has function type (a hook slot), else nil. Methods resolve to MethodVal
// selections and are excluded.
func fieldFuncObj(info *types.Info, sel *ast.SelectorExpr) types.Object {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	if _, ok := s.Obj().Type().Underlying().(*types.Signature); !ok {
		return nil
	}
	return s.Obj()
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// sameHookSel reports whether a and b name the same field of the same
// textual base expression ("nw.trace" twice, not one per receiver copy).
func sameHookSel(info *types.Info, a, b *ast.SelectorExpr) bool {
	ao, bo := fieldFuncObj(info, a), fieldFuncObj(info, b)
	return ao != nil && ao == bo && types.ExprString(a.X) == types.ExprString(b.X)
}

// condHasNilTest reports whether cond, decomposed through op (token.LAND
// for guards, token.LOR for bails), contains a `sel <cmp> nil` leaf.
func condHasNilTest(info *types.Info, cond ast.Expr, sel *ast.SelectorExpr, cmp, op token.Token) bool {
	cond = ast.Unparen(cond)
	if b, ok := cond.(*ast.BinaryExpr); ok {
		if b.Op == op {
			return condHasNilTest(info, b.X, sel, cmp, op) || condHasNilTest(info, b.Y, sel, cmp, op)
		}
		if b.Op == cmp {
			other := ast.Expr(nil)
			if isNilIdent(info, b.X) {
				other = b.Y
			} else if isNilIdent(info, b.Y) {
				other = b.X
			}
			if other != nil {
				if os, ok := ast.Unparen(other).(*ast.SelectorExpr); ok && sameHookSel(info, os, sel) {
					return true
				}
			}
		}
	}
	return false
}

// nilCheckDominates reports whether the call through sel is protected by
// one of the recognized guard shapes.
func nilCheckDominates(info *types.Info, sel *ast.SelectorExpr, call *ast.CallExpr, stack []ast.Node) bool {
	within := func(n ast.Node) bool {
		return n != nil && n.Pos() <= call.Pos() && call.End() <= n.End()
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.IfStmt:
			if within(anc.Body) && condHasNilTest(info, anc.Cond, sel, token.NEQ, token.LAND) {
				return true
			}
			if anc.Else != nil && within(anc.Else) && condHasNilTest(info, anc.Cond, sel, token.EQL, token.LOR) {
				return true
			}
		case *ast.BlockStmt:
			// Early bail: a preceding `if sel == nil { return/continue/... }`.
			for _, st := range anc.List {
				if st.End() >= call.Pos() {
					break
				}
				ifst, ok := st.(*ast.IfStmt)
				if !ok || ifst.Else != nil || !terminates(ifst.Body) {
					continue
				}
				if condHasNilTest(info, ifst.Cond, sel, token.EQL, token.LOR) {
					return true
				}
			}
		case *ast.FuncLit, *ast.FuncDecl:
			// Guards outside the enclosing function do not dominate: the
			// closure may run later, after the hook was reassigned.
			return false
		}
	}
	return false
}

// terminates reports whether the block always transfers control away.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func checkNilSafeReceivers(pass *Pass) {
	want := make(map[string]bool)
	for _, t := range pass.Cfg.NilSafe {
		if t.Path == pass.Pkg.Path {
			want[t.Name] = true
		}
	}
	if len(want) == 0 {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.IsTest(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue // value receivers cannot observe their own nilness
			}
			tn, ok := star.X.(*ast.Ident)
			if !ok || !want[tn.Name] {
				continue
			}
			if len(fd.Recv.List[0].Names) == 1 && receiverGuarded(info, fd) {
				continue
			}
			pass.Reportf(fd.Pos(), "method (*%s).%s must begin with a receiver nil check: nil hooks no-op for free (DESIGN §11)", tn.Name, fd.Name.Name)
		}
	}
}

// receiverGuarded reports whether the method body starts with
// `if recv == nil { ... }` (the nil test may be one || disjunct).
func receiverGuarded(info *types.Info, fd *ast.FuncDecl) bool {
	recv := fd.Recv.List[0].Names[0]
	if recv.Name == "_" || len(fd.Body.List) == 0 {
		return false
	}
	ifst, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifst.Init != nil {
		return false
	}
	recvObj := info.Defs[recv]
	var found func(e ast.Expr) bool
	found = func(e ast.Expr) bool {
		e = ast.Unparen(e)
		b, ok := e.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		if b.Op == token.LOR {
			return found(b.X) || found(b.Y)
		}
		if b.Op != token.EQL {
			return false
		}
		other := ast.Expr(nil)
		if isNilIdent(info, b.X) {
			other = b.Y
		} else if isNilIdent(info, b.Y) {
			other = b.X
		}
		if other == nil {
			return false
		}
		id, ok := ast.Unparen(other).(*ast.Ident)
		return ok && recvObj != nil && info.Uses[id] == recvObj
	}
	return found(ifst.Cond)
}
