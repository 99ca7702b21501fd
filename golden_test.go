// golden_test.go is the byte-level regression gate: it re-runs the
// quick-scale figure report, a set of small canonical campaigns, and the
// example programs and compares their output byte for byte against the
// files committed under testdata/golden/. Any refactor that changes simulation output — even one
// float in one cell — fails here, replacing the manual pre/post binary
// diffs earlier PRs did by hand.
//
// To regenerate after an intentional output change:
//
//	go test -run TestGolden -update .
//
// and commit the rewritten files with an explanation of why the bytes
// moved. The corpus intentionally runs at quick scale (seconds, not
// minutes); paper-scale output shares every code path with it.
package repro

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/figures"
)

var update = flag.Bool("update", false, "rewrite the testdata/golden files from the current code")

// checkGolden byte-compares got against the committed golden file, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", filepath.Dir(path), err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with `go test -run TestGolden -update .`): %v", path, err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(string(got), "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("%s: output diverges at line %d\n  golden: %q\n  got:    %q\n(%d vs %d lines; regenerate with -update only if the change is intended)",
				path, i+1, w, g, len(wantLines), len(gotLines))
		}
	}
	t.Fatalf("%s: output differs (same lines, different bytes)", path)
}

// quickReport renders exactly the text `figures -quick` prints, through
// the same Report call.
func quickReport() (string, error) {
	var b strings.Builder
	err := figures.Report(&b, figures.Quick(), nil, false, campaign.RunOptions{})
	return b.String(), err
}

// TestGoldenFiguresQuick locks the full quick-scale figure report.
func TestGoldenFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick figures take a few seconds; skipped under -short")
	}
	report, err := quickReport()
	if err != nil {
		t.Fatalf("quick report: %v", err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", "figures-quick.txt"), []byte(report))
}

// goldenCampaignSpecs lists the specs the corpus locks: the quick fig8
// campaign everyone runs, the stress grid shape at corpus scale, the
// scenario-diversity grids (pre-existing dimensions in diversity.json,
// the pluggable placement/mobility/failure models in models.json), and
// the design-choice ablations (ablation-*.json).
func goldenCampaignSpecs(t *testing.T) []string {
	t.Helper()
	specs := []string{filepath.Join("examples", "campaigns", "fig8.json")}
	extra, err := filepath.Glob(filepath.Join("testdata", "golden", "campaigns", "*.json"))
	if err != nil {
		t.Fatalf("glob golden campaigns: %v", err)
	}
	if len(extra) == 0 {
		t.Fatal("no golden campaign specs under testdata/golden/campaigns")
	}
	return append(specs, extra...)
}

// expandSpec loads and expands the spec at path.
func expandSpec(t *testing.T, path string) *campaign.Campaign {
	t.Helper()
	spec, err := campaign.LoadSpec(path)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	c, err := campaign.Expand(spec)
	if err != nil {
		t.Fatalf("expand %s: %v", path, err)
	}
	return c
}

// TestGoldenCampaigns runs every corpus campaign and locks both sink
// formats (JSONL and CSV) byte for byte.
func TestGoldenCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus campaigns take a few seconds; skipped under -short")
	}
	for _, specPath := range goldenCampaignSpecs(t) {
		specPath := specPath
		t.Run(strings.TrimSuffix(filepath.Base(specPath), ".json"), func(t *testing.T) {
			t.Parallel()
			c := expandSpec(t, specPath)
			var jsonl, csv bytes.Buffer
			_, err := c.Run(campaign.RunOptions{
				Sinks: []campaign.Sink{campaign.NewJSONLSink(&jsonl), campaign.NewCSVSink(&csv)},
			})
			if err != nil {
				t.Fatalf("run %s: %v", specPath, err)
			}
			base := filepath.Join("testdata", "golden", "campaigns", c.Spec.Name)
			checkGolden(t, base+".jsonl", jsonl.Bytes())
			checkGolden(t, base+".csv", csv.Bytes())
		})
	}
}

// TestAblationSpecsShareOneBase pins the one-point ablations to the
// route-alternatives spec's k = 2 point, which runs core.DefaultConfig():
// each must equal that point with exactly its one switch flipped. Their
// spmsConfig spells the defaults out by hand, so without this a change to
// a Table 1 default would move the baseline and not the ablations.
func TestAblationSpecsShareOneBase(t *testing.T) {
	points := func(name string) []campaign.Point {
		return expandSpec(t, filepath.Join("testdata", "golden", "campaigns", name+".json")).Points
	}
	base := points("ablation-route-alternatives")[1].Scenario
	if base.RouteAlternatives != 2 || base.SPMSConfig != core.DefaultConfig() {
		t.Fatalf("route-alternatives point 1 runs k = %d under %+v, want k = 2 under core.DefaultConfig()",
			base.RouteAlternatives, base.SPMSConfig)
	}
	for _, tc := range []struct {
		name string
		flip func(*core.Config)
	}{
		{"ablation-relay-adv-off", func(c *core.Config) { c.DisableRelayADV = true }},
		{"ablation-serve-from-cache", func(c *core.Config) { c.ServeFromCache = true }},
	} {
		want := base
		tc.flip(&want.SPMSConfig)
		if got := points(tc.name); len(got) != 1 || got[0].Scenario != want {
			t.Errorf("%s expands to %+v, want the one point %+v", tc.name, got, want)
		}
	}
}

// goldenPrograms are the programs TestGoldenPrograms runs: every example
// at its defaults, and spmsim's replicated path, which runs as a
// one-point campaign.
var goldenPrograms = []struct {
	name, bin string
	args      []string
}{
	{"clustered", "clustered", nil},
	{"failover", "failover", nil},
	{"fieldcompare", "fieldcompare", nil},
	{"interzone", "interzone", nil},
	{"quickstart", "quickstart", nil},
	{"spmsim-replications", "spmsim", []string{"-protocol", "spms", "-nodes", "49", "-radius", "20", "-failures", "-replications", "4", "-parallel", "2"}},
}

// TestGoldenPrograms builds spmsim and the examples once and locks their
// stdout, minus spmsim's wall-clock line — the only line any of them
// prints that is not a pure function of its flags.
func TestGoldenPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("building and running the programs takes a few seconds; skipped under -short")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/spmsim", "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, p := range goldenPrograms {
		t.Run(p.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, p.bin), p.args...).Output()
			if err != nil {
				t.Fatalf("%s %v: %v", p.bin, p.args, err)
			}
			var kept strings.Builder
			for _, line := range strings.SplitAfter(string(out), "\n") {
				if !strings.HasPrefix(line, "wall clock:") {
					kept.WriteString(line)
				}
			}
			checkGolden(t, filepath.Join("testdata", "golden", "programs", p.name+".txt"), []byte(kept.String()))
		})
	}
}
