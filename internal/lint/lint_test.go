package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// loadTestdata loads the lintdata corpus module once per test binary: the
// go list round trip dominates, and every test reads the same packages.
var loadTestdata = sync.OnceValues(func() ([]*Package, error) {
	return Load(filepath.Join("testdata", "lint"))
})

// testdataConfig mirrors DefaultConfig's shape over the corpus module.
func testdataConfig() *Config {
	det := map[string]bool{
		"lintdata/det":    true,
		"lintdata/maps":   true,
		"lintdata/output": true,
		"lintdata/annot":  true,
	}
	return &Config{
		Deterministic: func(p string) bool { return det[strings.TrimSuffix(p, "_test")] },
		ZoneFor:       []FuncRef{{Path: "lintdata/zone", Name: "For"}},
		NilSafe:       []TypeRef{{Path: "lintdata/obs", Name: "Observer"}},
		Wire: []WireStruct{
			{Path: "lintdata/wire", Name: "Scenario", DefaultsFunc: "WithDefaults", Grandfathered: []string{"Name"}},
			{Path: "lintdata/wire", Name: "Wrapper"},
			{Path: "lintdata/wire", Name: "Missing"},
		},
	}
}

func corpusPackage(t *testing.T, path string) *Package {
	t.Helper()
	pkgs, err := loadTestdata()
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	for _, p := range pkgs {
		if p.Path != path {
			continue
		}
		for _, e := range p.Errors {
			t.Errorf("corpus package %s has a type error: %v", path, e)
		}
		return p
	}
	t.Fatalf("corpus package %s not loaded", path)
	return nil
}

// expectation is one parsed `// want` comment: a diagnostic whose message
// matches re must be reported on exactly that line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// parseWants extracts the backquoted regexps of every `// want` comment.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				const prefix = "// want "
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, prefix))
				parsed := 0
				for rest != "" {
					if rest[0] != '`' {
						t.Fatalf("%s:%d: malformed want comment (expectations are backquoted): %q", pos.Filename, pos.Line, c.Text)
					}
					end := strings.IndexByte(rest[1:], '`')
					if end < 0 {
						t.Fatalf("%s:%d: unterminated expectation in %q", pos.Filename, pos.Line, c.Text)
					}
					re, err := regexp.Compile(rest[1 : 1+end])
					if err != nil {
						t.Fatalf("%s:%d: bad expectation regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(rest[2+end:])
					parsed++
				}
				if parsed == 0 {
					t.Fatalf("%s:%d: want comment with no expectations", pos.Filename, pos.Line)
				}
			}
		}
	}
	return wants
}

// matchWants checks diagnostics against expectations one-to-one: every
// diagnostic must meet a want on its line, every want must be met.
func matchWants(t *testing.T, diags []Diagnostic, wants []*expectation) {
	t.Helper()
diags:
	for _, d := range diags {
		for _, w := range wants {
			if !w.met && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				continue diags
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestAnalyzerCorpus runs each analyzer over its corpus packages and
// checks the findings against the inline `// want` expectations.
func TestAnalyzerCorpus(t *testing.T) {
	corpus := map[string][]string{
		"detsource": {"lintdata/det"},
		"maporder":  {"lintdata/maps"},
		"hooknil":   {"lintdata/hooks", "lintdata/obs"},
		"wirezero":  {"lintdata/wire"},
		"zonewrite": {"lintdata/kernels", "lintdata/zone"},
		"floatfmt":  {"lintdata/output"},
	}
	for _, a := range All {
		paths, ok := corpus[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no corpus packages; add them to testdata/lint", a.Name)
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			var pkgs []*Package
			var wants []*expectation
			for _, path := range paths {
				p := corpusPackage(t, path)
				pkgs = append(pkgs, p)
				wants = append(wants, parseWants(t, p)...)
			}
			matchWants(t, Run(testdataConfig(), pkgs, []*Analyzer{a}), wants)
		})
	}
}

// TestAnnotationMechanism pins the //repolint:allow machinery: reasoned
// waivers suppress (own-line and trailing), unknown analyzer names and
// missing reasons are reported and suppress nothing, and waivers that
// suppress nothing are stale. Directive lines cannot carry want comments,
// so the outcomes are asserted in source order here.
func TestAnnotationMechanism(t *testing.T) {
	annot := corpusPackage(t, "lintdata/annot")
	diags := Run(testdataConfig(), []*Package{annot}, All)
	want := []struct {
		analyzer string
		re       string
	}{
		// Suppressed() and Trailing() produce nothing: their waivers work.
		{"repolint", `unknown analyzer "typosource"`},
		{"detsource", `reads the wall clock`}, // Unknown()'s finding survives
		{"repolint", `missing the mandatory reason`},
		{"detsource", `reads the wall clock`}, // Missing()'s finding survives
		{"repolint", `stale //repolint:allow detsource`},
		{"repolint", `stale //repolint:allow maporder`},
		{"detsource", `reads the wall clock`}, // WrongAnalyzer()'s finding survives
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Analyzer != w.analyzer || !regexp.MustCompile(w.re).MatchString(d.Message) {
			t.Errorf("diagnostic %d = %s, want analyzer %s matching %q", i, d, w.analyzer, w.re)
		}
	}
}

// TestDefaultConfigMatchesTree pins the deterministic-package predicate:
// in-package test compilation units share the production package's fate,
// and infrastructure packages stay out.
func TestDefaultConfigMatchesTree(t *testing.T) {
	cfg := DefaultConfig()
	for _, path := range []string{
		"repro/internal/sim", "repro/internal/network", "repro/internal/campaign",
		"repro/internal/zone", "repro/internal/experiment", "repro/internal/sim_test",
		"repro/internal/checkpoint", "repro/internal/figures",
	} {
		if !cfg.Deterministic(path) {
			t.Errorf("Deterministic(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"repro/internal/obs", "repro/internal/lint", "repro/cmd/repolint", "repro/internal/analysis",
	} {
		if cfg.Deterministic(path) {
			t.Errorf("Deterministic(%q) = true, want false", path)
		}
	}
}
