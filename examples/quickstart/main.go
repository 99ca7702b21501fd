// Quickstart: the smallest complete SPMS run — the paper's §3.3 three-node
// example. Node A senses a data item; B and C negotiate for it; C receives
// it from B over the cheap two-hop path instead of pulling it from A
// directly.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// Three nodes on a line, 5 m apart, with the MICA2 radio: every node is
	// in every other's zone, and two minimum-power hops (2 × 0.0125 mW) are
	// cheaper than one direct level-4 transmission (0.05 mW).
	field, err := topo.NewChainField(3, 5, radio.MICA2())
	if err != nil {
		return err
	}

	sched := sim.NewScheduler()
	nw, err := network.New(sched, field, sim.NewRNG(42), network.DefaultConfig())
	if err != nil {
		return err
	}

	// Routing: one Distributed Bellman-Ford execution over the zone.
	tables := routing.ComputeWorkers(routing.BuildGraphWorkers(field, 1), routing.DefaultAlternatives, 1)
	fmt.Printf("routing converged in %d rounds (%d vector broadcasts)\n",
		tables.Rounds(), tables.Broadcasts())
	fmt.Printf("shortest path A→C: %v (cost %.4f mW-sum)\n\n", pathString(tables, 0, 2), mustCost(tables, 0, 2))

	// The protocol: everyone wants everything (all-to-all interest).
	ledger := dissem.NewLedger()
	sys, err := core.NewSystem(nw, ledger, dissem.Everyone, tables, core.DefaultConfig())
	if err != nil {
		return err
	}

	// Trace the three-way handshake as it happens.
	nw.SetTrace(func(ev network.TraceEvent) {
		if ev.Kind == network.TraceTx {
			fmt.Printf("  t=%-12v %s\n", sched.Now(), ev.Packet)
		}
	})

	// Node A (id 0) senses a new data item and advertises it.
	data := packet.DataID{Origin: 0, Seq: 0}
	if err := sys.Originate(0, data); err != nil {
		return err
	}
	if err := sched.Run(200 * time.Millisecond); err != nil {
		return err
	}

	fmt.Printf("\ndeliveries: %d/%d, mean end-to-end delay %v\n",
		ledger.Deliveries(), 2, ledger.Delays().Mean())
	for id := packet.NodeID(0); id < 3; id++ {
		breakdown := nw.Energy().Node(id)
		fmt.Printf("node %c energy: tx=%.5f µJ rx=%.5f µJ\n",
			'A'+rune(id), float64(breakdown.Tx), float64(breakdown.Rx))
	}
	return nil
}

func pathString(t *routing.Tables, src, dst packet.NodeID) string {
	path := t.Path(src, dst)
	s := ""
	for i, id := range path {
		if i > 0 {
			s += " → "
		}
		s += string('A' + rune(id))
	}
	return s
}

func mustCost(t *routing.Tables, src, dst packet.NodeID) float64 {
	c, ok := t.Cost(src, dst)
	if !ok {
		return 0
	}
	return c
}
