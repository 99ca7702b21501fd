// table.go holds the report's table type and the blocks that need no
// simulation: Table 1's parameters and the analytic Figures 3 and 5.
package figures

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/workload"
)

// Table is one reproduced figure or table: a titled series family over a
// common x-axis.
type Table struct {
	ID      string
	Title   string
	XLabel  string
	YLabel  string
	Columns []string
	Rows    []TableRow
	Notes   string
}

// TableRow is one x-axis sample.
type TableRow struct {
	X     float64
	Cells []float64
}

// Format renders the table as aligned text (CSV-compatible with -csv in
// cmd/figures).
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(&b, "# %s\n", t.Notes)
	}
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14.4g", r.X)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %14.4f", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(t.XLabel)
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		// Canonical float form (DESIGN §9): the CSV bytes are golden, so
		// pin them to strconv rather than fmt's default verb rendering.
		b.WriteString(strconv.FormatFloat(r.X, 'g', -1, 64))
		for _, c := range r.Cells {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table1Rows returns the simulation parameters as (name, value) pairs,
// verifying that the defaults wired through the packages equal the
// paper's Table 1. Report renders them as text or CSV.
func Table1Rows() [][2]string {
	macCfg := mac.AnalyticConfig() // the configuration Run wires in
	failCfg := fault.DefaultConfig()
	sizes := packet.DefaultSizes()
	rows := [][2]string{
		{"Packet arrivals (Poisson mean)", workload.DefaultMeanArrival.String()},
		{"Failure inter-arrival (exp mean)", failCfg.MeanInterArrival.String()},
		{"MTTR (uniform repair mean)", failCfg.MTTR().String()},
		{"Processing time", network.DefaultProc.String()},
		{"Slot time", macCfg.SlotTime.String()},
		{"Number of slots", fmt.Sprintf("%d", macCfg.NumSlots)},
		{"MAC contention constant G", fmt.Sprintf("%.2f ms", macCfg.G)},
		{"Power levels (mW)", "3.1622, 0.7943, 0.1995, 0.05, 0.0125"},
		{"Ranges (m)", "91.44, 45.72, 22.86, 11.28, 5.48"},
		{"Time of transmission", "0.05 ms/byte"},
		{"Size of ADV / REQ", fmt.Sprintf("%d B / %d B", sizes.ADV, sizes.REQ)},
		{"Size of DATA : REQ", fmt.Sprintf("%d (DATA = %d B)", sizes.DATA/sizes.REQ, sizes.DATA)},
		{"TOutADV / TOutDAT", core.DefaultTOutADV.String() + " / " + core.DefaultTOutDAT.String()},
	}
	return rows
}

// Table1 renders the parameter table as aligned text.
func Table1() string {
	var b strings.Builder
	b.WriteString("## Table 1 — Simulation Parameters\n")
	for _, r := range Table1Rows() {
		fmt.Fprintf(&b, "%-36s %s\n", r[0], r[1])
	}
	return b.String()
}

// Figure3 is the analytic SPIN/SPMS delay-ratio curve vs transmission
// radius (§4.1.2), including the printed spot value 2.7865 at n1=45, ns=5.
func Figure3() Table {
	p := analysis.PaperParams()
	radii := []float64{5, 7.5, 10, 12.5, 15, 17.5, 20, 22.5, 25, 27.5, 30}
	series := analysis.DelayRatioSeries(p, radii, 5, 5)
	t := Table{
		ID:      "fig3",
		Title:   "Analytic delay ratio SPIN/SPMS vs transmission radius",
		XLabel:  "radius_m",
		YLabel:  "delay ratio",
		Columns: []string{"SPIN/SPMS"},
		Notes:   fmt.Sprintf("spot value at n1=45, ns=5: %.4f (paper: 2.7865)", p.DelayRatio(45, 5)),
	}
	for _, pt := range series {
		t.Rows = append(t.Rows, TableRow{X: pt.X, Cells: []float64{pt.Y}})
	}
	return t
}

// Figure5 is the analytic SPIN/SPMS energy-ratio curve vs transmission
// radius on the k-relay chain with α = 3.5 (§4.2).
func Figure5() Table {
	f := analysis.Fraction(1, 32, 1)
	radii := []float64{1, 2, 4, 6, 8, 10, 15, 20, 25, 30}
	series := analysis.EnergyRatioSeries(f, 3.5, radii)
	t := Table{
		ID:      "fig5",
		Title:   "Analytic energy ratio SPIN/SPMS vs transmission radius (k = r)",
		XLabel:  "radius_k",
		YLabel:  "energy ratio",
		Columns: []string{"SPIN/SPMS"},
		Notes:   "f = A/(A+D+R) with D = 32A = 32R; ratio saturates toward 1/f = 34",
	}
	for _, pt := range series {
		t.Rows = append(t.Rows, TableRow{X: pt.X, Cells: []float64{pt.Y}})
	}
	return t
}
