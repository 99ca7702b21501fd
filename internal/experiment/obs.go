// obs.go glues the observability layer (internal/obs) onto a run: the
// network-trace adapter and the timeline ticker. Both are opt-in through
// RunConfig.Obs and both are read-only observers — they never mutate
// protocol, topology, or RNG state — so a run's Result (and therefore
// every golden and campaign byte) is identical with them on or off. The
// timeline ticker does consume event sequence numbers, but sequence
// numbers only break ties between otherwise-identical instants and the
// relative order of all non-ticker events is preserved, so the dispatch
// trajectory the collectors observe is unchanged (DESIGN.md §11).
package experiment

import (
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// obsTraceKind maps the network-layer trace kinds onto the wire enum.
func obsTraceKind(k network.TraceKind) obs.EventKind {
	switch k {
	case network.TraceTx:
		return obs.EventTx
	case network.TraceDeliver:
		return obs.EventDeliver
	default:
		return obs.EventDrop
	}
}

// installTrace hooks the network's trace callback to the sink. The hook
// runs inside the single-threaded event loop with the clock at the
// event's timestamp, so the exported stream is in dispatch order and
// byte-deterministic at any SimWorkers count.
func installTrace(nw *network.Network, sched *sim.Scheduler, sink *obs.TraceSink) {
	nw.SetTrace(func(ev network.TraceEvent) {
		sink.Emit(obs.Event{
			T:          sched.Now(),
			Kind:       obsTraceKind(ev.Kind),
			Node:       ev.Node,
			PacketKind: ev.Packet.Kind,
			Meta:       ev.Packet.Meta,
			Src:        ev.Packet.Src,
			Dst:        ev.Packet.Dst,
			Requester:  ev.Packet.Requester,
			Provider:   ev.Packet.Provider,
			Level:      int(ev.Packet.Level),
			Bytes:      ev.Packet.Bytes,
			Reason:     ev.Reason,
		})
	})
}

// scheduleTimeline arms the recurring sampling tick: every tl.Interval()
// of sim time it snapshots the cumulative counters and energy totals and
// offers them to the timeline (which decimates under its bound). The tick
// handler only reads collectors — no protocol state, no RNG draws — so
// the simulated trajectory is untouched.
func scheduleTimeline(sched *sim.Scheduler, nw *network.Network, tl *obs.Timeline, horizon time.Duration) {
	interval := tl.Interval()
	var tick sim.ArgHandler
	tick = func(uint64) {
		c := nw.Counters()
		b := nw.Energy().TotalBreakdown()
		tl.Offer(obs.TimelineSample{
			T:           sched.Now(),
			Sent:        c.TotalSent(),
			Delivered:   c.Delivered,
			Drops:       c.Drops,
			Duplicates:  c.Duplicates,
			Timeouts:    c.Timeouts,
			TotalEnergy: float64(b.Total()),
			CtrlEnergy:  float64(b.Ctrl),
		})
		if sched.Now()+interval <= horizon {
			sched.AfterArg(interval, tick, 0)
		}
	}
	sched.AfterArg(interval, tick, 0)
}
