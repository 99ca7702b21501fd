// golden_test.go is the byte-level regression gate: it re-runs the
// quick-scale figure report and a set of small canonical campaigns and
// compares their output byte for byte against the files committed under
// testdata/golden/. Any refactor that changes simulation output — even one
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
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
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
// campaign everyone runs, the stress grid shape at corpus scale, and the
// scenario-diversity grids (pre-existing dimensions in diversity.json,
// the pluggable placement/mobility/failure models in models.json).
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
			spec, err := campaign.LoadSpec(specPath)
			if err != nil {
				t.Fatalf("load %s: %v", specPath, err)
			}
			c, err := campaign.Expand(spec)
			if err != nil {
				t.Fatalf("expand %s: %v", specPath, err)
			}
			var jsonl, csv bytes.Buffer
			_, err = c.Run(campaign.RunOptions{
				Sinks: []campaign.Sink{campaign.NewJSONLSink(&jsonl), campaign.NewCSVSink(&csv)},
			})
			if err != nil {
				t.Fatalf("run %s: %v", specPath, err)
			}
			base := filepath.Join("testdata", "golden", "campaigns", spec.Name)
			checkGolden(t, base+".jsonl", jsonl.Bytes())
			checkGolden(t, base+".csv", csv.Bytes())
		})
	}
}
