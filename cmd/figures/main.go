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
// paper-scale one. Simulated figures run on the campaign trial pool, one
// trial per goroutine; -parallel bounds the pool (default all cores).
// Output is byte-identical at every pool size — scenarios are independent
// seeded runs reassembled in point order. -replications N (N > 1) averages
// every simulated series over N seed-derived trials, as the paper does,
// adding a ± column (95% CI half-width) per series. The command exits 2 on
// a bad flag value or an unknown -only id, and 1 when a simulation or a
// write fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/figures"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "reduced workload (2 pkts/node, smaller sweeps)")
	quality := flag.String("quality", "", "sweep scale: quick | standard | full (overrides -quick)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	only := flag.String("only", "", "comma-separated subset: table1,fig3,fig5,fig6,...,fig13,mobility-threshold")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 0, "trial pool size: trials run at once (0 = all cores, 1 = serial)")
	replications := flag.Int("replications", 1, "seed-derived trials per sweep point; above 1 adds ± (95% CI) columns")
	flag.Parse()

	q := figures.Full()
	if *quick {
		q = figures.Quick()
	}
	switch *quality {
	case "":
	case "quick":
		q = figures.Quick()
	case "standard":
		q = figures.Standard()
	case "full":
		q = figures.Full()
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown quality %q\n", *quality)
		return 2
	}
	q.Seed = *seed
	q.Replications = *replications

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	err := figures.Report(os.Stdout, q, ids, *csv, campaign.RunOptions{Workers: *parallel})
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		if errors.Is(err, figures.ErrUnknownID) {
			return 2
		}
		return 1
	}
	return 0
}
