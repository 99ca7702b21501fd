package experiment

import (
	"strings"
	"testing"
	"time"
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
	r := NewRunner(tiny(), 0)

	t.Run("fig6 energy ordering", func(t *testing.T) {
		tab, err := r.Figure6()
		if err != nil {
			t.Fatalf("Figure6: %v", err)
		}
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
		tab, err := r.Figure8()
		if err != nil {
			t.Fatalf("Figure8: %v", err)
		}
		// Delay grows with node count for both protocols (paper's shape).
		if tab.Rows[1].Cells[0] <= tab.Rows[0].Cells[0] {
			t.Fatalf("SPMS delay not growing with nodes: %+v", tab.Rows)
		}
		if tab.Rows[1].Cells[1] <= tab.Rows[0].Cells[1] {
			t.Fatalf("SPIN delay not growing with nodes: %+v", tab.Rows)
		}
	})

	t.Run("fig10 failure columns dominate", func(t *testing.T) {
		tab, err := r.Figure10()
		if err != nil {
			t.Fatalf("Figure10: %v", err)
		}
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
		tab, err := r.Figure13()
		if err != nil {
			t.Fatalf("Figure13: %v", err)
		}
		for _, row := range tab.Rows {
			if row.Cells[0] >= row.Cells[1] {
				t.Fatalf("clustered SPMS %v ≥ SPIN %v at r=%v", row.Cells[0], row.Cells[1], row.X)
			}
		}
	})

	t.Run("runner memoizes", func(t *testing.T) {
		before := len(r.cache)
		if before == 0 {
			t.Fatal("cache empty after figure runs")
		}
		// Re-running Figure6 must not add scenarios.
		if _, err := r.Figure6(); err != nil {
			t.Fatalf("Figure6: %v", err)
		}
		if len(r.cache) != before {
			t.Fatalf("cache grew on repeat: %d → %d", before, len(r.cache))
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
	tab, err := NewRunner(q, 0).Figure8()
	if err != nil {
		t.Fatalf("Figure8 replicated: %v", err)
	}
	wantCols := []string{"SPMS", "SPMS ±", "SPIN", "SPIN ±"}
	if len(tab.Columns) != 4 {
		t.Fatalf("columns = %v, want %v", tab.Columns, wantCols)
	}
	for i, c := range wantCols {
		if tab.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", tab.Columns, wantCols)
		}
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
	one, err := NewRunner(q, 0).Figure8()
	if err != nil {
		t.Fatalf("Figure8 single: %v", err)
	}
	q.Replications = 0
	zero, err := NewRunner(q, 0).Figure8()
	if err != nil {
		t.Fatalf("Figure8 unreplicated: %v", err)
	}
	if one.Format() != zero.Format() || one.CSV() != zero.CSV() {
		t.Fatalf("replications=1 table diverged from the unreplicated table:\n--- replications=1\n%s\n--- unset\n%s", one.Format(), zero.Format())
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
