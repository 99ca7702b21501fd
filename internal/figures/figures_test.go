package figures

import (
	"errors"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/experiment"
)

// tiny is the smallest quality that still exercises multi-zone behavior;
// figure tests use it to keep the suite fast.
func tiny() Quality {
	return Quality{
		PacketsPerNode: 1,
		NodeCounts:     []int{16, 25},
		Radii:          []float64{10, 15},
		Drain:          1500 * time.Millisecond,
		Seed:           1,
	}
}

// refuseRun is an executor for runs that must not simulate anything.
func refuseRun(experiment.Scenario) (experiment.Result, error) {
	return experiment.Result{}, errors.New("executor called")
}

func TestTable1Rendering(t *testing.T) {
	out := Table1()
	for _, frag := range []string{
		"3.1622", "0.0125", // power levels
		"91.44", "5.48", // ranges
		"0.05 ms/byte",
		"50ms",  // failure inter-arrival
		"10ms",  // MTTR
		"100µs", // slot time
		"20",    // slots
		"2 B",   // ADV/REQ
		"40 B",  // DATA
		"1ms / 2.5ms",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Table 1 rendering missing %q:\n%s", frag, out)
		}
	}
}

func TestFigure3SpotValueAndShape(t *testing.T) {
	tab := Figure3()
	if tab.ID != "fig3" || len(tab.Rows) == 0 {
		t.Fatalf("bad table: %+v", tab)
	}
	if !strings.Contains(tab.Notes, "2.7865") {
		t.Fatalf("notes missing the paper's spot value: %q", tab.Notes)
	}
	// Monotone non-decreasing after the first few points, all ≥ 1 beyond
	// small radii.
	last := tab.Rows[len(tab.Rows)-1]
	if last.Cells[0] < 2.8 || last.Cells[0] > 3.0 {
		t.Fatalf("ratio at r=30 is %v, want ≈2.96 (approaching 3)", last.Cells[0])
	}
}

func TestFigure5Shape(t *testing.T) {
	tab := Figure5()
	if tab.ID != "fig5" || len(tab.Rows) == 0 {
		t.Fatalf("bad table: %+v", tab)
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if first.Cells[0] != 1 {
		t.Fatalf("ratio at k=1 is %v, want exactly 1", first.Cells[0])
	}
	if last.Cells[0] < 30 || last.Cells[0] > 34 {
		t.Fatalf("ratio at k=30 is %v, want ≈33.5 (saturating toward 1/f=34)", last.Cells[0])
	}
}

func TestSimFiguresShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures are slow")
	}
	cache, err := checkpoint.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := campaign.RunOptions{Cache: cache}
	figure := func(t *testing.T, id string) Table {
		t.Helper()
		tab, err := Figure(id, tiny(), opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return tab
	}

	t.Run("fig6 energy ordering", func(t *testing.T) {
		tab := figure(t, "fig6")
		if len(tab.Rows) != 2 || len(tab.Columns) != 2 {
			t.Fatalf("bad dimensions: %+v", tab)
		}
		for _, row := range tab.Rows {
			spms, spin := row.Cells[0], row.Cells[1]
			if spms <= 0 || spin <= 0 {
				t.Fatalf("non-positive energy at n=%v", row.X)
			}
			if spms >= spin {
				t.Fatalf("SPMS energy %v ≥ SPIN %v at n=%v", spms, spin, row.X)
			}
		}
	})

	t.Run("fig8 delay positive", func(t *testing.T) {
		tab := figure(t, "fig8")
		// Delay grows with node count for both protocols (paper's shape).
		if tab.Rows[1].Cells[0] <= tab.Rows[0].Cells[0] {
			t.Fatalf("SPMS delay not growing with nodes: %+v", tab.Rows)
		}
		if tab.Rows[1].Cells[1] <= tab.Rows[0].Cells[1] {
			t.Fatalf("SPIN delay not growing with nodes: %+v", tab.Rows)
		}
	})

	t.Run("fig10 failure columns dominate", func(t *testing.T) {
		tab := figure(t, "fig10")
		if len(tab.Columns) != 4 {
			t.Fatalf("want 4 columns, got %v", tab.Columns)
		}
		// At the largest scale, failure delay ≥ failure-free delay for both.
		last := tab.Rows[len(tab.Rows)-1]
		if last.Cells[1] < last.Cells[0] {
			t.Fatalf("F-SPMS %v < SPMS %v", last.Cells[1], last.Cells[0])
		}
		if last.Cells[3] < last.Cells[2] {
			t.Fatalf("F-SPIN %v < SPIN %v", last.Cells[3], last.Cells[2])
		}
	})

	t.Run("fig13 cluster energy ordering", func(t *testing.T) {
		tab := figure(t, "fig13")
		for _, row := range tab.Rows {
			if row.Cells[0] >= row.Cells[1] {
				t.Fatalf("clustered SPMS %v ≥ SPIN %v at r=%v", row.Cells[0], row.Cells[1], row.X)
			}
		}
	})

	t.Run("a cached figure executes nothing", func(t *testing.T) {
		want := figure(t, "fig6")
		got, err := Figure("fig6", tiny(), campaign.RunOptions{Cache: cache, Run: refuseRun})
		if err != nil {
			t.Fatalf("cached fig6 executed a trial: %v", err)
		}
		if got.Format() != want.Format() {
			t.Fatalf("cached fig6 diverged:\n--- cached\n%s\n--- executed\n%s", got.Format(), want.Format())
		}
	})
}

// TestFigureReplications checks the ± layer: above one replication every
// series gains a CI column and the means stay positive; at exactly one
// replication the table is byte-identical to the unreplicated run.
func TestFigureReplications(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures are slow")
	}
	q := tiny()
	q.NodeCounts = []int{16}

	q.Replications = 2
	tab, err := Figure("fig8", q, campaign.RunOptions{})
	if err != nil {
		t.Fatalf("Figure8 replicated: %v", err)
	}
	wantCols := []string{"SPMS", "SPMS ±", "SPIN", "SPIN ±"}
	if !slices.Equal(tab.Columns, wantCols) {
		t.Fatalf("columns = %v, want %v", tab.Columns, wantCols)
	}
	if !strings.Contains(tab.Notes, "95% CI") || !strings.Contains(tab.Notes, "2 replicates") {
		t.Fatalf("notes missing the CI legend: %q", tab.Notes)
	}
	row := tab.Rows[0]
	if len(row.Cells) != 4 || row.Cells[0] <= 0 || row.Cells[2] <= 0 {
		t.Fatalf("replicated row malformed: %+v", row)
	}
	if row.Cells[1] < 0 || row.Cells[3] < 0 {
		t.Fatalf("negative CI half-width: %+v", row)
	}

	q.Replications = 1
	one, err := Figure("fig8", q, campaign.RunOptions{})
	if err != nil {
		t.Fatalf("Figure8 single: %v", err)
	}
	q.Replications = 0
	zero, err := Figure("fig8", q, campaign.RunOptions{})
	if err != nil {
		t.Fatalf("Figure8 unreplicated: %v", err)
	}
	if one.Format() != zero.Format() || one.CSV() != zero.CSV() {
		t.Fatalf("replications=1 table diverged from the unreplicated table:\n--- replications=1\n%s\n--- unset\n%s", one.Format(), zero.Format())
	}
}

// TestSweepParallelDeterminism is the sweep engine's contract seen through
// the figures: Figure8-class sweeps produce byte-identical tables at
// workers=1 and workers=8. Figure10 adds failure injection and Figure13
// the clustered workload, so the comparison covers every scenario
// dimension the figures exercise.
func TestSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	for _, id := range []string{"fig8", "fig10", "fig13"} {
		t.Run(id, func(t *testing.T) {
			a, err := Figure(id, tiny(), campaign.RunOptions{Workers: 1})
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			b, err := Figure(id, tiny(), campaign.RunOptions{Workers: 8})
			if err != nil {
				t.Fatalf("workers=8: %v", err)
			}
			if a.Format() != b.Format() {
				t.Fatalf("parallel table diverged from serial:\n--- workers=1\n%s\n--- workers=8\n%s", a.Format(), b.Format())
			}
			if a.CSV() != b.CSV() {
				t.Fatal("parallel CSV diverged from serial")
			}
		})
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := Table{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Columns: []string{"A", "B"},
		Rows:    []TableRow{{X: 1, Cells: []float64{2.5, 3.5}}, {X: 2, Cells: []float64{4, 5}}},
		Notes:   "a note",
	}
	txt := tab.Format()
	for _, frag := range []string{"figX", "demo", "a note", "A", "B", "2.5000"} {
		if !strings.Contains(txt, frag) {
			t.Fatalf("Format missing %q:\n%s", frag, txt)
		}
	}
	csv := tab.CSV()
	wantHeader := "x,A,B\n"
	if !strings.HasPrefix(csv, wantHeader) {
		t.Fatalf("CSV header = %q, want prefix %q", csv, wantHeader)
	}
	if !strings.Contains(csv, "1,2.5,3.5\n") {
		t.Fatalf("CSV missing row: %q", csv)
	}
}

func TestQualityPresets(t *testing.T) {
	full, std, quick := Full(), Standard(), Quick()
	if full.PacketsPerNode != 10 || std.PacketsPerNode != 10 {
		t.Fatal("Full/Standard must use the paper's 10 packets/node")
	}
	if quick.PacketsPerNode >= full.PacketsPerNode {
		t.Fatal("Quick must be cheaper than Full")
	}
	if len(full.NodeCounts) <= len(std.NodeCounts)-1 {
		t.Fatal("Full should sweep at least as many node counts as Standard")
	}
	// Full covers the paper's extremes.
	foundMax := false
	for _, n := range full.NodeCounts {
		if n == 225 {
			foundMax = true
		}
	}
	if !foundMax {
		t.Fatal("Full must include the paper's 225-node point")
	}
}

// TestReportExecutesEachScenarioOnce runs Report over a counting stub
// executor: the one cache a report shares must let every distinct scenario
// execute exactly once, however many blocks plot it.
func TestReportExecutesEachScenarioOnce(t *testing.T) {
	for _, tc := range []struct {
		only []string
		want int // distinct trials at Quick quality
	}{
		{nil, 49},
		{[]string{"fig8"}, 6},
		{[]string{"mobility-threshold"}, 3},
		{[]string{"fig6", "fig8", "fig10"}, 12},
	} {
		t.Run(strings.Join(tc.only, ","), func(t *testing.T) {
			var mu sync.Mutex
			distinct := map[experiment.Scenario]bool{}
			trials := 0
			count := func(sc experiment.Scenario) (experiment.Result, error) {
				mu.Lock()
				distinct[sc] = true
				trials++
				mu.Unlock()
				return experiment.Result{EnergyPerPacket: float64(sc.Nodes), MeanDelay: time.Duration(sc.Seed)}, nil
			}
			if err := Report(io.Discard, Quick(), tc.only, false, campaign.RunOptions{Run: count}); err != nil {
				t.Fatalf("Report: %v", err)
			}
			if trials != tc.want || len(distinct) != tc.want {
				t.Errorf("%d trials over %d distinct scenarios, want %d of each", trials, len(distinct), tc.want)
			}
		})
	}
}

// failWriter fails every write.
type failWriter struct{}

var errWrite = errors.New("disk full")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

func TestReportWriteErrors(t *testing.T) {
	for _, asCSV := range []bool{false, true} {
		for _, id := range []string{"table1", "fig3"} {
			err := Report(failWriter{}, Quick(), []string{id}, asCSV, campaign.RunOptions{Run: refuseRun})
			if !errors.Is(err, errWrite) {
				t.Errorf("Report(-only %s, csv=%v) into a failing writer: err = %v, want %v", id, asCSV, err, errWrite)
			}
		}
	}
}

func TestReportUnknownID(t *testing.T) {
	var out strings.Builder
	err := Report(&out, Quick(), []string{"fig8", "fig99"}, false, campaign.RunOptions{Run: refuseRun})
	if !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
	for _, frag := range []string{`"fig99"`, "table1", "fig13", "mobility-threshold"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %s", err, frag)
		}
	}
	if out.Len() != 0 {
		t.Errorf("unknown id still printed %q", out.String())
	}
}

// TestCommittedFig8Specs pins the committed fig8 campaigns to the engine:
// each file expands to exactly the points of the fig8 spec at its quality —
// same scenarios, same parameter tuples, same order.
func TestCommittedFig8Specs(t *testing.T) {
	replicated := Quick()
	replicated.Replications = 5
	fig8 := simFigures[slices.IndexFunc(simFigures, func(f simFigure) bool { return f.header.ID == "fig8" })]
	for _, tc := range []struct {
		file string
		q    Quality
	}{
		{"fig8.json", Quick()},
		{"fig8-full.json", Full()},
		{"fig8-replicated.json", replicated},
	} {
		t.Run(tc.file, func(t *testing.T) {
			spec, err := campaign.LoadSpec(filepath.Join("..", "..", "examples", "campaigns", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			committed, err := campaign.Expand(spec)
			if err != nil {
				t.Fatal(err)
			}
			engineSpec, _ := fig8.grid(tc.q)
			engine, err := campaign.Expand(engineSpec)
			if err != nil {
				t.Fatal(err)
			}
			if len(committed.Points) != len(engine.Points) {
				t.Fatalf("%d committed points, engine fig8 has %d", len(committed.Points), len(engine.Points))
			}
			for i, want := range engine.Points {
				got := committed.Points[i]
				if got.Scenario != want.Scenario || !slices.Equal(got.Params, want.Params) {
					t.Errorf("point %d: committed %s %+v, engine %s %+v",
						i, got.ParamsString(), got.Scenario, want.ParamsString(), want.Scenario)
				}
			}
		})
	}
}
