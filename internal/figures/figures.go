// Package figures reproduces every table and figure of the paper's
// evaluation (DSN 2004, "Fault Tolerant Energy Aware Data Dissemination
// Protocol in Sensor Networks"). Table 1 and the analytic Figures 3 and 5
// are computed directly. Each simulated figure (6–13) and the §5.1.3
// mobility break-even is a campaign.Spec built from a Quality preset,
// executed through campaign.Run, and projected onto a Table. Report
// renders any selection of them as text or CSV; cmd/figures and the
// golden corpus both print through it.
package figures

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/experiment"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Quality controls simulation scale: Full is the paper's configuration;
// Quick shrinks the workload for fast benchmarks and CI.
type Quality struct {
	PacketsPerNode int
	NodeCounts     []int     // x-axis for Figures 6, 8, 10
	Radii          []float64 // x-axis for Figures 7, 9, 11, 12, 13
	Drain          time.Duration
	Seed           int64

	// Replications is how many seed-derived trials each sweep point runs
	// (see experiment.ReplicateSeed); 0 or 1 means single trials, the
	// paper's configurations' default. Above 1 every simulated figure
	// gains a ± column per series: the 95% CI half-width across replicates.
	Replications int
}

// Full is the paper-scale configuration: 10 packets per node, fields up to
// 225 nodes, radii 5–30 m.
func Full() Quality {
	return Quality{
		PacketsPerNode: workload.DefaultPacketsPerNode,
		NodeCounts:     []int{25, 49, 100, 169, 225},
		Radii:          []float64{5, 10, 15, 20, 25, 30},
		Drain:          3 * time.Second,
		Seed:           1,
	}
}

// Standard trims the most expensive sweep points (225 nodes, 30 m radius)
// while keeping the paper's 10 packets/node; the full report generates in
// minutes instead of an hour.
func Standard() Quality {
	return Quality{
		PacketsPerNode: workload.DefaultPacketsPerNode,
		NodeCounts:     []int{25, 49, 100, 169},
		Radii:          []float64{10, 15, 20, 25},
		Drain:          3 * time.Second,
		Seed:           1,
	}
}

// Quick is a reduced configuration for benchmarks: the same sweep shape at
// roughly a tenth of the event volume.
func Quick() Quality {
	return Quality{
		PacketsPerNode: 2,
		NodeCounts:     []int{25, 49, 100},
		Radii:          []float64{10, 15, 20, 25},
		Drain:          2 * time.Second,
		Seed:           1,
	}
}

// ErrUnknownID reports a block id that Report or Figure does not know.
var ErrUnknownID = errors.New("unknown id")

// The metrics the simulated figures plot, as indices into the
// experiment.ResultMetricNames order that AggregateResults reports.
var (
	energyPerPacket = slices.Index(experiment.ResultMetricNames(), "energyPerPacket_uJ")
	meanDelay       = slices.Index(experiment.ResultMetricNames(), "meanDelay_ms")
)

// simFigure is one simulated figure: the header of the table the paper
// plots, the campaign grid behind it, and the metric its cells report.
// Every grid is protocol (SPMS, SPIN) × x [× failures (off, on)], so with
// nf failure settings grid series s = p·nf + f is protocol p at failure
// setting f; series[k] is the grid series plotted in column k.
type simFigure struct {
	header Table
	metric int
	series []int
	grid   func(Quality) (campaign.Spec, []float64) // the campaign and its x axis
}

// simFigures lists Figures 6–13 in report order.
var simFigures = []simFigure{
	// Energy per packet vs number of nodes, static failure-free all-to-all,
	// transmission radius 20 m. Paper: SPMS saves 26–43 %.
	{
		header: Table{ID: "fig6", Title: "Energy vs number of nodes (radius 20 m, static, failure-free)",
			XLabel: "nodes", YLabel: "energy per packet (µJ)", Columns: []string{"SPMS", "SPIN"}},
		metric: energyPerPacket, series: []int{0, 1}, grid: nodesGrid,
	},
	// Energy per packet vs transmission radius, 169 nodes.
	{
		header: Table{ID: "fig7", Title: "Energy vs transmission radius (169 nodes, static, failure-free)",
			XLabel: "radius_m", YLabel: "energy per packet (µJ)", Columns: []string{"SPMS", "SPIN"}},
		metric: energyPerPacket, series: []int{0, 1}, grid: radiusGrid,
	},
	// Mean end-to-end delay vs number of nodes (radius 20 m). Paper: SPMS
	// ≈10× faster.
	{
		header: Table{ID: "fig8", Title: "End-to-end delay vs number of nodes (radius 20 m)",
			XLabel: "nodes", YLabel: "delay (ms/packet)", Columns: []string{"SPMS", "SPIN"}},
		metric: meanDelay, series: []int{0, 1}, grid: nodesGrid,
	},
	// Mean end-to-end delay vs transmission radius (169 nodes).
	{
		header: Table{ID: "fig9", Title: "End-to-end delay vs transmission radius (169 nodes)",
			XLabel: "radius_m", YLabel: "delay (ms/packet)", Columns: []string{"SPMS", "SPIN"}},
		metric: meanDelay, series: []int{0, 1}, grid: radiusGrid,
	},
	// Delay vs number of nodes under transient failures: the paper plots
	// SPMS, F-SPMS, SPIN, F-SPIN.
	{
		header: Table{ID: "fig10", Title: "End-to-end delay vs number of nodes with transient failures (radius 20 m)",
			XLabel: "nodes", YLabel: "delay (ms/packet)", Columns: []string{"SPMS", "F-SPMS", "SPIN", "F-SPIN"}},
		metric: meanDelay, series: []int{0, 1, 2, 3}, grid: withFailures(nodesGrid),
	},
	// Delay vs transmission radius under transient failures.
	{
		header: Table{ID: "fig11", Title: "End-to-end delay vs transmission radius with transient failures (169 nodes)",
			XLabel: "radius_m", YLabel: "delay (ms/packet)", Columns: []string{"SPMS", "F-SPMS", "SPIN", "F-SPIN"}},
		metric: meanDelay, series: []int{0, 1, 2, 3}, grid: withFailures(radiusGrid),
	},
	// Energy vs transmission radius with mobile nodes (all-to-all). SPMS's
	// curve includes the Bellman-Ford re-convergence energy. Paper: savings
	// drop to 5–21 %.
	{
		header: Table{ID: "fig12", Title: "Energy vs transmission radius with mobility (all-to-all)",
			XLabel: "radius_m", YLabel: "energy per packet (µJ)", Columns: []string{"SPMS", "SPIN"},
			Notes: "SPMS includes DBF re-convergence energy; mobility frequency set for ≈300 packets/event (above the §5.1.3 break-even)"},
		metric: energyPerPacket, series: []int{0, 1}, grid: mobilityGrid,
	},
	// Energy vs transmission radius for cluster-based hierarchical
	// communication, failure-free and with failures. Paper: SPMS uses
	// 35–59 % less energy. Its columns permute the grid series.
	{
		header: Table{ID: "fig13", Title: "Energy vs transmission radius, cluster-based hierarchical communication",
			XLabel: "radius_m", YLabel: "energy per packet (µJ)", Columns: []string{"SPMS", "SPIN", "F-SPMS", "F-SPIN"}},
		metric: energyPerPacket, series: []int{0, 2, 1, 3}, grid: clusteredGrid,
	},
}

// spec is the §5.1 all-to-all campaign at quality q with SPMS and SPIN as
// its protocol axis, the base every simulated block shares.
func (q Quality) spec(name string) campaign.Spec {
	return campaign.Spec{
		Name: name,
		Base: experiment.Scenario{
			Workload:       experiment.AllToAll,
			PacketsPerNode: q.PacketsPerNode,
			Seed:           q.Seed,
			Drain:          q.Drain,
		},
		Axes:         campaign.Axes{Protocol: []experiment.Protocol{experiment.SPMS, experiment.SPIN}},
		Replications: q.Replications,
	}
}

// nodesGrid sweeps the node counts at radius 20 m.
func nodesGrid(q Quality) (campaign.Spec, []float64) {
	s := q.spec("")
	s.Base.ZoneRadius = 20
	s.Axes.Nodes.Values = q.NodeCounts
	xs := make([]float64, len(q.NodeCounts))
	for i, n := range q.NodeCounts {
		xs[i] = float64(n)
	}
	return s, xs
}

// radiusGrid sweeps the radii at the radius-sweep node count.
func radiusGrid(q Quality) (campaign.Spec, []float64) {
	s := q.spec("")
	s.Base.Nodes = radiusNodes(q)
	s.Axes.ZoneRadius.Values = q.Radii
	return s, q.Radii
}

// withFailures adds failure injection, off and on, as the last axis.
func withFailures(grid func(Quality) (campaign.Spec, []float64)) func(Quality) (campaign.Spec, []float64) {
	return func(q Quality) (campaign.Spec, []float64) {
		s, xs := grid(q)
		s.Axes.Failures = []bool{false, true}
		return s, xs
	}
}

// mobilityGrid is the radius sweep with mobility paced so roughly 300
// packets flow between events — the paper's operating regime (its
// break-even is 239.18 packets/event).
func mobilityGrid(q Quality) (campaign.Spec, []float64) {
	s, xs := radiusGrid(q)
	s.Base.Mobility = true
	events := s.Base.Nodes * q.PacketsPerNode / 300
	if events < 1 {
		events = 1
	}
	s.Base.MobilityPeriod = 500 * time.Millisecond / time.Duration(events)
	return s, xs
}

// clusteredGrid is the radius sweep of the clustered workload, with and
// without failures.
func clusteredGrid(q Quality) (campaign.Spec, []float64) {
	s, xs := withFailures(radiusGrid)(q)
	s.Base.Workload = experiment.Clustered
	return s, xs
}

// radiusNodes returns the node count for the radius sweeps: the paper's
// 169, or the largest Quick count when running reduced.
func radiusNodes(q Quality) int {
	if q.PacketsPerNode >= workload.DefaultPacketsPerNode {
		return 169
	}
	if len(q.NodeCounts) == 0 {
		return 0
	}
	return slices.Max(q.NodeCounts)
}

// run expands spec and executes it through campaign.Run, returning each
// point's replicate vector in point order.
func run(spec campaign.Spec, opts campaign.RunOptions) ([][]experiment.Result, error) {
	c, err := campaign.Expand(spec)
	if err != nil {
		return nil, err
	}
	return c.Run(opts)
}

// Figure runs simulated figure id (fig6 … fig13) at quality q through
// campaign.Run with opts and returns its table.
func Figure(id string, q Quality, opts campaign.RunOptions) (Table, error) {
	for _, f := range simFigures {
		if f.header.ID == id {
			return f.table(q, opts)
		}
	}
	return Table{}, fmt.Errorf("%w %q", ErrUnknownID, id)
}

// table runs the figure's campaign and projects the finished grid onto
// its rows. Expansion order is canonical (DESIGN §6.2): protocol, then
// the x axis, then failures, so grid series s = p·nf + f of row i is point
// (p·nx + i)·nf + f, and no cell needs a join. A cell is the metric's mean
// over the point's replicates; above one replicate every column gains a
// ± column holding the 95% CI half-width.
func (f simFigure) table(q Quality, opts campaign.RunOptions) (Table, error) {
	spec, xs := f.grid(q)
	spec.Name = f.header.ID
	res, err := run(spec, opts)
	if err != nil {
		return Table{}, err
	}
	t := f.header
	reps := len(res[0])
	if reps > 1 {
		cols := make([]string, 0, 2*len(t.Columns))
		for _, c := range t.Columns {
			cols = append(cols, c, c+" ±")
		}
		t.Columns = cols
		note := fmt.Sprintf("± columns are 95%% CI half-widths over %d replicates", reps)
		if t.Notes == "" {
			t.Notes = note
		} else {
			t.Notes += "; " + note
		}
	}
	nx, nf := len(xs), max(1, len(spec.Axes.Failures))
	for i, x := range xs {
		row := TableRow{X: x}
		for _, s := range f.series {
			sum := experiment.AggregateResults(res[(s/nf*nx+i)*nf+s%nf])[f.metric]
			row.Cells = append(row.Cells, sum.Mean)
			if reps > 1 {
				row.Cells = append(row.Cells, sum.CI95)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// MobilityThreshold recomputes §5.1.3's break-even packet count from
// measured quantities: the DBF re-convergence energy of one mobility event
// and the measured per-packet energies of both protocols at the given
// scale. The paper's calibration yields 239.18 packets.
func MobilityThreshold(q Quality, opts campaign.RunOptions) (breakEven, dbfEnergy float64, err error) {
	// The failure-free pair at 20 m, plus an SPMS mobility run at the
	// default period whose control-energy share measures one event's
	// convergence cost.
	static := q.spec("mobility-threshold")
	static.Base.Nodes = radiusNodes(q)
	static.Base.ZoneRadius = 20
	mobile := static
	mobile.Name = "mobility-threshold-mobile"
	mobile.Base.Mobility = true
	mobile.Axes.Protocol = []experiment.Protocol{experiment.SPMS}
	pair, err := run(static, opts)
	if err != nil {
		return 0, 0, err
	}
	mob, err := run(mobile, opts)
	if err != nil {
		return 0, 0, err
	}
	spmsE := experiment.AggregateResults(pair[0])[energyPerPacket].Mean
	spinE := experiment.AggregateResults(pair[1])[energyPerPacket].Mean
	// The per-event DBF energy is averaged per replicate before averaging
	// across them.
	perEvent := make([]float64, len(mob[0]))
	for i, r := range mob[0] {
		if r.MobilityEvents > 0 {
			perEvent[i] = r.CtrlEnergy / float64(r.MobilityEvents)
		}
	}
	dbfEnergy = stats.Describe(perEvent).Mean
	return analysis.BreakEvenPackets(dbfEnergy, spinE, spmsE), dbfEnergy, nil
}

// reportIDs lists Report's blocks in report order.
func reportIDs() []string {
	ids := []string{"table1", "fig3", "fig5"}
	for _, f := range simFigures {
		ids = append(ids, f.header.ID)
	}
	return append(ids, "mobility-threshold")
}

// Report renders the paper's evaluation to w: Table 1, the analytic
// Figures 3 and 5, the simulated Figures 6–13 at quality q, and the
// §5.1.3 mobility break-even, as aligned text or, with asCSV, as a
// `# id — title` header plus CSV rows per block. A non-empty only selects
// blocks by id; an unknown id fails with ErrUnknownID before anything
// runs. Every simulated block executes through campaign.Run with opts
// and one result cache, which Report creates in a temporary directory and
// removes on return, so a scenario several blocks plot runs once. Each
// block is written as soon as it is computed, and the first write error
// is returned.
func Report(w io.Writer, q Quality, only []string, asCSV bool, opts campaign.RunOptions) error {
	ids := reportIDs()
	selected := make(map[string]bool, len(only))
	for _, id := range only {
		if !slices.Contains(ids, id) {
			return fmt.Errorf("%w %q; valid ids: %s", ErrUnknownID, id, strings.Join(ids, ", "))
		}
		selected[id] = true
	}

	dir, err := os.MkdirTemp("", "figures-cache-")
	if err != nil {
		return fmt.Errorf("result cache: %w", err)
	}
	defer os.RemoveAll(dir)
	if opts.Cache, err = checkpoint.OpenCache(dir); err != nil {
		return err
	}

	// Writes to out go unchecked: bufio.Writer keeps the first error, and
	// the flush after every block returns it.
	out := bufio.NewWriter(w)
	for _, id := range ids {
		if len(selected) > 0 && !selected[id] {
			continue
		}
		if err := writeBlock(out, id, q, asCSV, opts); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := out.Flush(); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// writeBlock computes one report block and writes it to out, whose first
// write error the caller's flush reports.
func writeBlock(out *bufio.Writer, id string, q Quality, asCSV bool, opts campaign.RunOptions) error {
	var t Table
	switch id {
	case "table1":
		writeKV(out, asCSV, id, "Simulation Parameters", Table1()+"\n",
			append([][2]string{{"parameter", "value"}}, Table1Rows()...))
		return nil
	case "mobility-threshold":
		breakEven, dbf, err := MobilityThreshold(q, opts)
		if err != nil {
			return err
		}
		text := fmt.Sprintf("## §5.1.3 — Mobility break-even\n"+
			"DBF re-convergence energy per mobility event: %.2f µJ\n"+
			"Packets needed between mobility events for SPMS to win: %.2f (paper: 239.18)\n\n", dbf, breakEven)
		writeKV(out, asCSV, id, "§5.1.3 break-even", text, [][2]string{
			{"metric", "value"},
			{"dbf_energy_uJ_per_event", strconv.FormatFloat(dbf, 'g', -1, 64)},
			{"break_even_packets", strconv.FormatFloat(breakEven, 'g', -1, 64)},
		})
		return nil
	case "fig3":
		t = Figure3()
	case "fig5":
		t = Figure5()
	default:
		var err error
		if t, err = Figure(id, q, opts); err != nil {
			return err
		}
	}
	if asCSV {
		fmt.Fprintf(out, "# %s — %s\n%s\n", t.ID, t.Title, t.CSV())
	} else {
		fmt.Fprintln(out, t.Format())
	}
	return nil
}

// writeKV writes a key/value block: the pre-rendered text verbatim, or
// with asCSV a `# id — title` header plus the rows as CSV.
func writeKV(out *bufio.Writer, asCSV bool, id, title, text string, rows [][2]string) {
	if !asCSV {
		out.WriteString(text)
		return
	}
	fmt.Fprintf(out, "# %s — %s\n", id, title)
	cw := csv.NewWriter(out)
	for _, r := range rows {
		cw.Write([]string{r[0], r[1]})
	}
	cw.Flush()
	fmt.Fprintln(out)
}
