// Interzone: the paper's §6 future-work extension in action. A long chain
// of nodes where only the far end wants the source's data and nothing in
// between is interested: plain SPMS leaves the far end starved, because
// advertisements only reach one zone and no relay ever pulls the data.
// System.Query bordercasts a zone-routing query (ZRP-style) across zones;
// the first node holding the data replies with a source-routed DATA along
// the query's trail.
//
//	go run ./examples/interzone
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
		fmt.Fprintf(os.Stderr, "interzone: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A 12-node chain, 5 m apart, 12 m zones: each node sees only ±2
	// neighbors, so the ends are ~5 zones apart.
	m, err := radio.ScaledMICA2(12)
	if err != nil {
		return err
	}
	field, err := topo.NewChainField(12, 5, m)
	if err != nil {
		return err
	}
	sched := sim.NewScheduler()
	nw, err := network.New(sched, field, sim.NewRNG(11), network.DefaultConfig())
	if err != nil {
		return err
	}
	tables := routing.ComputeWorkers(routing.BuildGraphWorkers(field, 1), routing.DefaultAlternatives, 1)
	ledger := dissem.NewLedger()

	sink := packet.NodeID(11)
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == sink }
	sys, err := core.NewSystem(nw, ledger, interest, tables, core.DefaultConfig())
	if err != nil {
		return err
	}

	nw.SetTrace(func(ev network.TraceEvent) {
		if ev.Kind != network.TraceTx {
			return
		}
		p := ev.Packet
		switch p.Kind {
		case packet.QRY:
			fmt.Printf("  t=%-10v QRY  %2d→%-2d trail=%v\n",
				sched.Now().Round(10*time.Microsecond), p.Src, p.Dst, p.Trail)
		case packet.DATA:
			fmt.Printf("  t=%-10v DATA %2d→%-2d (source-routed remainder %v)\n",
				sched.Now().Round(10*time.Microsecond), p.Src, p.Dst, p.Trail)
		}
	})

	data := packet.DataID{Origin: 0, Seq: 0}
	if err := sys.Originate(0, data); err != nil {
		return err
	}
	if err := sched.Run(300 * time.Millisecond); err != nil {
		return err
	}
	fmt.Printf("after plain SPMS dissemination: sink has data? %v (starved — §6 motivation)\n\n", sys.Has(sink, data))

	fmt.Println("sink issues an inter-zone query:")
	if err := sys.Query(sink, data); err != nil {
		return err
	}
	if err := sched.Run(2 * time.Second); err != nil {
		return err
	}

	fmt.Printf("\nsink has data? %v  (QRY frames sent: %d, total energy %.3f µJ)\n",
		sys.Has(sink, data), nw.Counters().Sent[packet.QRY], float64(nw.Energy().Total()))
	return nil
}
