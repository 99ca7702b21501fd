// Package lint is the repository's invariants-as-code layer: a suite of
// custom static analyzers, written on the standard library only (go/ast,
// go/types, go/parser, go/importer — no x/tools), that machine-check the
// three iron contracts the codebase rests on (DESIGN.md §12):
//
//   - determinism — byte-identical output at any worker count (§2, §10):
//     detsource, maporder, zonewrite
//   - allocation-free, nil-safe observability hot paths (§8, §11): hooknil
//   - zero-value wire-form compatibility (§9): wirezero, floatfmt
//
// The driver is cmd/repolint; `make lint` runs it over the whole module.
//
// # Waivers
//
// A legitimate exception is annotated in the source, with a reason:
//
//	//repolint:allow <analyzer> <reason>
//
// The directive suppresses that analyzer's diagnostics on its own line and
// on the line directly below (so it works both trailing a statement and on
// a line of its own above one). The reason is mandatory, unknown analyzer
// names are errors, and a directive that suppresses nothing is reported as
// stale — waivers are grep-able, reviewed, and cannot outlive the code
// they excuse.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one invariant checker. Run inspects the package behind
// pass and reports findings through pass.Reportf.
type Analyzer struct {
	Name string // short lower-case name, used in diagnostics and waivers
	Doc  string // one-line description of the enforced invariant
	Run  func(pass *Pass)
}

// All is the full analyzer suite, in reporting order.
var All = []*Analyzer{DetSource, MapOrder, HookNil, WireZero, ZoneWrite, FloatFmt}

// Diagnostic is one reported finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Cfg  *Config
	Pkg  *Package
	name string
	out  *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// FuncRef names a package-level function.
type FuncRef struct{ Path, Name string }

// TypeRef names a package-level type.
type TypeRef struct{ Path, Name string }

// WireStruct configures one wire-form struct for wirezero: exported
// fields must carry omitempty, be filled by the struct's defaults method,
// or be grandfathered (present before the zero-value contract was
// mechanized — their absence of omitempty is itself part of the frozen
// byte format).
type WireStruct struct {
	Path          string // declaring package import path
	Name          string // struct type name
	DefaultsFunc  string // value-or-pointer method filling zero fields; "" if none
	Grandfathered []string
}

// Config scopes the suite to the repository's contracts. The test harness
// substitutes testdata-sized configs; DefaultConfig is the repo's reality.
type Config struct {
	// Deterministic reports whether a package is under the byte-identical
	// output contract (DESIGN.md §2): detsource, maporder, and floatfmt
	// apply there.
	Deterministic func(pkgPath string) bool
	// ZoneFor lists the fork-join parallel-for entry points whose kernel
	// closures zonewrite holds to the disjoint-write contract (§10).
	ZoneFor []FuncRef
	// NilSafe lists the observability hook types whose exported
	// pointer-receiver methods must begin with a receiver nil check,
	// preserving the "nil hooks are free" contract (§11).
	NilSafe []TypeRef
	// Wire lists the wire-form structs wirezero guards (§9).
	Wire []WireStruct
}

// DefaultConfig returns the configuration for this repository.
func DefaultConfig() *Config {
	det := map[string]bool{}
	for _, name := range []string{
		"sim", "network", "core", "spin", "flood", "dissem", "routing",
		"topo", "geom", "fault", "workload", "zone", "experiment", "campaign",
		"checkpoint", "service", "figures",
	} {
		det["repro/internal/"+name] = true
	}
	return &Config{
		Deterministic: func(path string) bool {
			return det[strings.TrimSuffix(path, "_test")]
		},
		ZoneFor: []FuncRef{{Path: "repro/internal/zone", Name: "For"}},
		NilSafe: []TypeRef{
			{Path: "repro/internal/obs", Name: "RunObserver"},
			{Path: "repro/internal/obs", Name: "Timeline"},
			{Path: "repro/internal/obs", Name: "TraceSink"},
			{Path: "repro/internal/obs", Name: "CampaignProgress"},
		},
		Wire: []WireStruct{
			{Path: "repro/internal/experiment", Name: "Scenario", DefaultsFunc: "WithDefaults"},
			{Path: "repro/internal/experiment", Name: "Result", Grandfathered: []string{
				"TotalEnergy", "EnergyPerPacket", "CtrlEnergy",
				"MeanDelay", "P95Delay", "MaxDelay",
				"Items", "Deliveries", "Expected", "DeliveryRate",
				"Timeouts", "Failovers", "Drops", "Duplicates",
				"SentADV", "SentREQ", "SentDATA",
				"DBFRounds", "DBFBroadcasts", "MobilityEvents", "FailuresInjected",
			}},
			{Path: "repro/internal/experiment", Name: "faultConfigJSON"},
			{Path: "repro/internal/experiment", Name: "coreConfigJSON"},
			{Path: "repro/internal/campaign", Name: "Spec", Grandfathered: []string{"Name", "Base", "Axes"}},
			{Path: "repro/internal/campaign", Name: "Axes"},
		},
	}
}

// allowDirective is one parsed //repolint:allow comment.
type allowDirective struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

const allowPrefix = "//repolint:allow"

// collectDirectives parses every //repolint: directive in the package.
// Malformed directives (unknown analyzer, missing reason) are reported
// immediately and do not suppress anything.
func collectDirectives(pkg *Package, known map[string]bool, out *[]Diagnostic) []*allowDirective {
	report := func(pos token.Pos, format string, args ...any) {
		*out = append(*out, Diagnostic{
			Analyzer: "repolint",
			Pos:      pkg.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	var dirs []*allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//repolint:") {
					continue
				}
				if !strings.HasPrefix(c.Text, allowPrefix) {
					report(c.Pos(), "unknown repolint directive %q (only //repolint:allow is defined)", firstField(c.Text))
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if name == "" {
					report(c.Pos(), "//repolint:allow needs an analyzer name and a reason")
					continue
				}
				if !known[name] {
					report(c.Pos(), "//repolint:allow names unknown analyzer %q", name)
					continue
				}
				if reason == "" {
					report(c.Pos(), "//repolint:allow %s is missing the mandatory reason", name)
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				dirs = append(dirs, &allowDirective{
					pos: c.Pos(), file: pos.Filename, line: pos.Line,
					analyzer: name, reason: reason,
				})
			}
		}
	}
	return dirs
}

func firstField(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return s
}

// Run executes the analyzers over every package, applies //repolint:allow
// suppression, validates the annotations themselves, and returns the
// surviving diagnostics sorted by position.
func Run(cfg *Config, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Cfg: cfg, Pkg: pkg, name: a.Name, out: &raw})
		}
		dirs := collectDirectives(pkg, known, &out)
	diags:
		for _, d := range raw {
			for _, dir := range dirs {
				if dir.analyzer == d.Analyzer && dir.file == d.Pos.Filename &&
					(dir.line == d.Pos.Line || dir.line == d.Pos.Line-1) {
					dir.used = true
					continue diags
				}
			}
			out = append(out, d)
		}
		for _, dir := range dirs {
			if !dir.used {
				out = append(out, Diagnostic{
					Analyzer: "repolint",
					Pos:      pkg.Fset.Position(dir.pos),
					Message:  fmt.Sprintf("stale //repolint:allow %s: no diagnostic suppressed", dir.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// inspectWithStack walks every file of the package calling fn with each
// node and the stack of its ancestors (outermost first, not including n).
func inspectWithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false // children skipped: Inspect sends no nil pop
			}
			stack = append(stack, n)
			return true
		})
	}
}
