// Failover: the paper's §3.5 fault-tolerance story, traced live. Four
// nodes in a line — A (the source), relays r1 and r2, and destination C.
// The relay r2 is killed the moment it advertises A's data, exactly the
// paper's "Case 2": C has promoted r2 to PRONE (with r1 as SCONE), so its
// direct request dies, τDAT expires, and C falls over to the SCONE —
// recovering the data without any global failure detection.
//
//	go run ./examples/failover
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

var names = map[packet.NodeID]string{0: "A", 1: "r1", 2: "r2", 3: "C", packet.Broadcast: "*"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "failover: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	field, err := topo.NewChainField(4, 5, radio.MICA2())
	if err != nil {
		return err
	}
	sched := sim.NewScheduler()
	nw, err := network.New(sched, field, sim.NewRNG(6), network.DefaultConfig())
	if err != nil {
		return err
	}
	tables := routing.ComputeWorkers(routing.BuildGraphWorkers(field, 1), routing.DefaultAlternatives, 1)
	ledger := dissem.NewLedger()

	// A patient τADV so the example follows the paper's narrative: C hears
	// the relays re-advertise before its timer expires.
	cfg := core.DefaultConfig()
	cfg.TOutADV = 30 * time.Millisecond
	sys, err := core.NewSystem(nw, ledger, dissem.Everyone, tables, cfg)
	if err != nil {
		return err
	}

	data := packet.DataID{Origin: 0, Seq: 0}
	killed := false
	lastState := ""
	nw.SetTrace(func(ev network.TraceEvent) {
		switch ev.Kind {
		case network.TraceTx:
			p := ev.Packet
			fmt.Printf("  t=%-12v %-4s %s→%s (level %d)\n",
				sched.Now().Round(10*time.Microsecond), p.Kind, names[p.Src], names[p.Dst], p.Level)
		case network.TraceDrop:
			fmt.Printf("  t=%-12v DROP at %s: %s\n",
				sched.Now().Round(10*time.Microsecond), names[ev.Node], ev.Reason)
		case network.TraceDeliver:
			if ev.Packet.Kind == packet.ADV && ev.Packet.Src == 2 && !killed {
				killed = true
				nw.Fail(2)
				fmt.Printf("  t=%-12v *** r2 FAILS (just after advertising) ***\n",
					sched.Now().Round(10*time.Microsecond))
			}
		}
		// Report C's PRONE/SCONE whenever it changes.
		if prone, scone, ok := sys.Prone(3, data); ok {
			state := fmt.Sprintf("C's PRONE=%s SCONE=%s", names[prone], names[scone])
			if state != lastState {
				lastState = state
				fmt.Printf("%24s %s\n", "", state)
			}
		}
	})

	fmt.Println("§3.5 Case 2: r2 fails after advertising; C falls over to its SCONE.")
	fmt.Println()
	if err := sys.Originate(0, data); err != nil {
		return err
	}
	if err := sched.Run(2 * time.Second); err != nil {
		return err
	}

	fmt.Println()
	if sys.Has(3, data) {
		fmt.Printf("C recovered the data; failovers=%d, timeouts=%d, deliveries=%d\n",
			nw.Counters().Failovers, nw.Counters().Timeouts, ledger.Deliveries())
	} else {
		fmt.Println("C never received the data — unexpected")
	}
	return nil
}
