// Command figures regenerates every table and figure from the paper's
// evaluation (DSN 2004, "Fault Tolerant Energy Aware Data Dissemination
// Protocol in Sensor Networks").
//
// Usage:
//
//	figures [-quick] [-csv] [-only fig6,fig8] [-seed N] [-parallel N] [-replications N]
//
// Without -only it renders Table 1, Figures 3 and 5 (analytic), Figures
// 6–13 (simulation), and the §5.1.3 mobility break-even threshold. -quick
// runs the reduced workload (2 packets/node, smaller sweeps) instead of the
// paper-scale one. Simulation sweeps execute on a worker pool, one point
// per goroutine; -parallel bounds the pool (default all cores). Output is
// byte-identical at every pool size — scenarios are independent seeded
// runs reassembled in point order. -replications N (N > 1) averages every
// simulated series over N seed-derived trials, as the paper does, adding
// a ± column (95% CI half-width) per series.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
)

func main() {
	os.Exit(run())
}

// emitter is the single -csv-aware output path: every block the command
// prints — figure tables, Table 1, the mobility threshold — goes through
// it, so -csv consistently switches the whole report.
type emitter struct{ csv bool }

// table renders one reproduced figure or table.
func (e emitter) table(t experiment.Table) {
	if e.csv {
		fmt.Printf("# %s — %s\n%s\n", t.ID, t.Title, t.CSV())
		return
	}
	fmt.Println(t.Format())
}

// kv renders a key/value block: the pre-rendered text verbatim normally,
// or a `# id — title` header plus CSV rows with -csv. A write error (full
// disk, closed pipe) is returned so the command exits non-zero instead of
// passing off a truncated report as complete.
func (e emitter) kv(id, title, text string, rows [][2]string) error {
	if !e.csv {
		fmt.Print(text)
		return nil
	}
	fmt.Printf("# %s — %s\n", id, title)
	w := csv.NewWriter(os.Stdout)
	for _, r := range rows {
		if err := w.Write([]string{r[0], r[1]}); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	fmt.Println()
	return nil
}

func run() int {
	quick := flag.Bool("quick", false, "reduced workload (2 pkts/node, smaller sweeps)")
	quality := flag.String("quality", "", "sweep scale: quick | standard | full (overrides -quick)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	only := flag.String("only", "", "comma-separated subset: table1,fig3,fig5,fig6,...,fig13,mobility-threshold")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = all cores, 1 = serial)")
	replications := flag.Int("replications", 1, "seed-derived trials per sweep point; above 1 adds ± (95% CI) columns")
	flag.Parse()

	q := experiment.Full()
	if *quick {
		q = experiment.Quick()
	}
	switch *quality {
	case "":
	case "quick":
		q = experiment.Quick()
	case "standard":
		q = experiment.Standard()
	case "full":
		q = experiment.Full()
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown quality %q\n", *quality)
		return 2
	}
	q.Seed = *seed
	q.Replications = *replications

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }
	emit := emitter{csv: *csv}

	if selected("table1") {
		err := emit.kv("table1", "Simulation Parameters", experiment.Table1()+"\n",
			append([][2]string{{"parameter", "value"}}, experiment.Table1Rows()...))
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			return 1
		}
	}
	if selected("fig3") {
		emit.table(experiment.Figure3())
	}
	if selected("fig5") {
		emit.table(experiment.Figure5())
	}

	runner := experiment.NewRunner(q, *parallel)
	simFigures := []struct {
		id  string
		run func() (experiment.Table, error)
	}{
		{"fig6", runner.Figure6},
		{"fig7", runner.Figure7},
		{"fig8", runner.Figure8},
		{"fig9", runner.Figure9},
		{"fig10", runner.Figure10},
		{"fig11", runner.Figure11},
		{"fig12", runner.Figure12},
		{"fig13", runner.Figure13},
	}
	for _, f := range simFigures {
		if !selected(f.id) {
			continue
		}
		t, err := f.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", f.id, err)
			return 1
		}
		emit.table(t)
	}

	if selected("mobility-threshold") {
		breakEven, dbf, err := runner.MobilityThreshold()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: mobility-threshold: %v\n", err)
			return 1
		}
		text := fmt.Sprintf("## §5.1.3 — Mobility break-even\n"+
			"DBF re-convergence energy per mobility event: %.2f µJ\n"+
			"Packets needed between mobility events for SPMS to win: %.2f (paper: 239.18)\n\n", dbf, breakEven)
		err = emit.kv("mobility-threshold", "§5.1.3 break-even", text, [][2]string{
			{"metric", "value"},
			{"dbf_energy_uJ_per_event", fmt.Sprintf("%g", dbf)},
			{"break_even_packets", fmt.Sprintf("%g", breakEven)},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			return 1
		}
	}
	return 0
}
