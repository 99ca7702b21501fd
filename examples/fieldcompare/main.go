// Fieldcompare: the paper's headline experiment at example scale — a
// sensor field running all-to-all dissemination under SPMS, SPIN, and
// classic flooding, comparing energy per packet and mean end-to-end delay
// (the quantities of Figures 6 and 8).
//
//	go run ./examples/fieldcompare [-nodes 100] [-radius 20] [-packets 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiment"
)

func main() {
	nodes := flag.Int("nodes", 100, "number of sensor nodes")
	radius := flag.Float64("radius", 20, "zone radius in meters")
	packets := flag.Int("packets", 3, "data items per node")
	seed := flag.Int64("seed", 7, "simulation seed")
	flag.Parse()

	if err := run(*nodes, *radius, *packets, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "fieldcompare: %v\n", err)
		os.Exit(1)
	}
}

func run(nodes int, radius float64, packets int, seed int64) error {
	fmt.Printf("sensor field: %d nodes on a 5 m grid, %g m zones, %d items/node, all-to-all interest\n\n",
		nodes, radius, packets)
	fmt.Printf("%-10s %16s %14s %14s %12s\n",
		"protocol", "energy (µJ/pkt)", "delay (mean)", "delay (p95)", "delivery")

	type row struct {
		name  string
		proto experiment.Protocol
	}
	var spmsEnergy, spinEnergy float64
	var spmsDelay, spinDelay time.Duration
	for _, r := range []row{
		{"SPMS", experiment.SPMS},
		{"SPIN", experiment.SPIN},
		{"FLOOD", experiment.Flooding},
	} {
		res, err := experiment.RunWith(experiment.Scenario{
			Protocol:       r.proto,
			Workload:       experiment.AllToAll,
			Nodes:          nodes,
			ZoneRadius:     radius,
			PacketsPerNode: packets,
			Seed:           seed,
		}, experiment.RunConfig{})
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Printf("%-10s %16.4f %14v %14v %11.1f%%\n",
			r.name, res.EnergyPerPacket,
			res.MeanDelay.Round(10*time.Microsecond),
			res.P95Delay.Round(10*time.Microsecond),
			100*res.DeliveryRate)
		switch r.proto {
		case experiment.SPMS:
			spmsEnergy, spmsDelay = res.EnergyPerPacket, res.MeanDelay
		case experiment.SPIN:
			spinEnergy, spinDelay = res.EnergyPerPacket, res.MeanDelay
		}
	}

	fmt.Printf("\nSPMS vs SPIN: %.1f%% less energy, %.2fx faster\n",
		100*(1-spmsEnergy/spinEnergy), float64(spinDelay)/float64(spmsDelay))
	return nil
}
