// Clustered: the paper's §5.2 scenario — cluster-based hierarchical
// communication. The field is partitioned into cells of one zone radius;
// each cell elects the node nearest its center as cluster head; heads
// collect every data item sensed in their cluster, and bystanders in the
// source's zone pull a copy with 5 % probability.
//
//	go run ./examples/clustered [-nodes 100] [-radius 20] [-failures]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 100, "number of sensor nodes")
	radius := flag.Float64("radius", 20, "zone (and cluster cell) radius in meters")
	failures := flag.Bool("failures", false, "inject Table 1 transient failures")
	seed := flag.Int64("seed", 3, "simulation seed")
	flag.Parse()

	if err := run(*nodes, *radius, *failures, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "clustered: %v\n", err)
		os.Exit(1)
	}
}

func run(nodes int, radius float64, failures bool, seed int64) error {
	// Show the cluster structure the workload will use.
	model, err := radio.ScaledMICA2(radius)
	if err != nil {
		return err
	}
	field, err := topo.NewGridField(nodes, 5, model)
	if err != nil {
		return err
	}
	heads := workload.ClusterHeads(field)
	members := make([]int, len(heads))
	for _, h := range heads {
		members[h]++
	}
	var headIDs []packet.NodeID
	for id, n := range members {
		if n > 0 {
			headIDs = append(headIDs, packet.NodeID(id))
		}
	}
	fmt.Printf("field: %d nodes, %g m cells → %d clusters\n", nodes, radius, len(headIDs))
	for _, h := range headIDs {
		fmt.Printf("  head %3d at %v leads %d nodes\n", h, field.Pos(h), members[h])
	}

	// Run the collection under both protocols.
	fmt.Printf("\n%-8s %16s %14s %12s\n", "protocol", "energy (µJ/pkt)", "mean delay", "delivery")
	for _, p := range []experiment.Protocol{experiment.SPMS, experiment.SPIN} {
		res, err := experiment.RunWith(experiment.Scenario{
			Protocol:       p,
			Workload:       experiment.Clustered,
			Nodes:          nodes,
			ZoneRadius:     radius,
			PacketsPerNode: 5,
			Failures:       failures,
			Seed:           seed,
		}, experiment.RunConfig{})
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %16.4f %14v %11.1f%%\n",
			p, res.EnergyPerPacket, res.MeanDelay.Round(10*time.Microsecond), 100*res.DeliveryRate)
	}
	if failures {
		fmt.Println("\n(failure injection on: per-node exponential failures, 10 ms MTTR)")
	}
	return nil
}
