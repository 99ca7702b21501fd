package network

// Tests for batched delivery: the network replaces the old per-receiver
// After(Proc) closures with one arg-event per transmission whose receivers
// wait in one FIFO and reach the protocol in one HandleBatch call, and
// these pin the semantics that replacement must preserve — handler timing
// at completion+proc, receiver order, batch order across flights
// completing at one instant, the silent skip of receivers that die between
// delivery and processing — plus the allocation-free steady state that
// motivates the mechanism.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// deferredFixture is the standard 3-node chain fixture with the network's
// processing delay set.
func deferredFixture(t *testing.T, proc time.Duration) *fixture {
	t.Helper()
	fx := newFixture(t, noBackoff())
	fx.nw.SetProcessingDelay(proc)
	return fx
}

func TestDeferredHandlersRunAtCompletionPlusProc(t *testing.T) {
	const proc = 5 * time.Millisecond
	fx := deferredFixture(t, proc)

	var delivered time.Duration
	fx.nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			delivered = fx.sched.Now()
		}
	})
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if delivered == 0 {
		t.Fatal("no delivery traced")
	}
	for _, id := range []packet.NodeID{0, 2} {
		times := fx.rec.times(id)
		if len(times) != 1 {
			t.Fatalf("node %d handled %d packets, want 1", id, len(times))
		}
		if got, want := times[0], delivered+proc; got != want {
			t.Fatalf("node %d handler ran at %v, want delivery(%v)+proc = %v", id, got, delivered, want)
		}
	}
}

func TestDeferredBatchPreservesReceiverOrder(t *testing.T) {
	fx := deferredFixture(t, time.Millisecond)
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	// ReachedBy order is ascending node id: 0 then 2.
	if len(fx.rec.batches) != 1 || !slices.Equal(fx.rec.batches[0].to, []packet.NodeID{0, 2}) {
		t.Fatalf("batches %v, want one handed to [0 2]", fx.rec.batches)
	}
}

func TestDeferredSkipsReceiverDeadBeforeProcessing(t *testing.T) {
	// A receiver that fails after delivery (energy charged, trace emitted)
	// but before completion+proc is left out of the batch — the same
	// window the old per-receiver After(Proc) closures checked.
	const proc = 2 * time.Second
	fx := deferredFixture(t, proc)
	// The transmission completes within milliseconds; 1s is safely inside
	// the (completion, completion+proc) window.
	fx.sched.AtArg(time.Second, func(uint64) { fx.nw.Fail(2) }, 0)
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.batches) != 1 || !slices.Equal(fx.rec.batches[0].to, []packet.NodeID{0}) {
		t.Fatalf("batches %v, want one handed to [0] only", fx.rec.batches)
	}
	if n := len(fx.rec.got[0]); n != 1 {
		t.Fatalf("live receiver handled %d packets, want 1", n)
	}
	if n := len(fx.rec.got[2]); n != 0 {
		t.Fatalf("dead receiver's handler ran %d times, want 0", n)
	}
	// The delivery itself happened while the node was up: it counts as Rx
	// energy, not as a drop.
	if fx.nw.Counters().Drops != 0 {
		t.Fatalf("Drops = %d, want 0 (death after delivery is not a drop)", fx.nw.Counters().Drops)
	}
}

func TestDeferProcessingZeroStillBatches(t *testing.T) {
	// proc=0 matches the old After(0) semantics: handlers run at the
	// completion instant but in their own event, after onComplete returns.
	fx := deferredFixture(t, 0)
	var delivered time.Duration
	fx.nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			delivered = fx.sched.Now()
		}
	})
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 0, Dst: 1, Level: 1})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if times := fx.rec.times(1); len(times) != 1 || times[0] != delivered {
		t.Fatalf("unicast handler times %v, want one handling at delivery time %v", times, delivered)
	}
}

func TestDeferredReentrantSendGrowsArenaSafely(t *testing.T) {
	// Handlers Sending mid-batch append new flights; the batch must keep
	// iterating its own (possibly relocated) slot without losing receivers.
	// Each node re-Sends from itself on the first packet it handles.
	fx := deferredFixture(t, time.Millisecond)
	var sent [3]bool
	fx.rec.react = func(_ packet.Packet, id packet.NodeID) {
		if !sent[id] {
			sent[id] = true
			fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: id, Dst: packet.Broadcast, Level: radio.MaxPower})
		}
	}
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	// At max power every broadcast reaches both other nodes. Each node
	// forwards exactly once: 4 transmissions × 2 receivers = 8 deliveries,
	// 3 at the ends (seed + two forwards) and 2 at the seeding middle node.
	got := []int{len(fx.rec.got[0]), len(fx.rec.got[1]), len(fx.rec.got[2])}
	if total := got[0] + got[1] + got[2]; total != 8 || got[0] != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("deliveries %d/%d/%d (total %d), want 3/2/3", got[0], got[1], got[2], total)
	}
	if got := fx.nw.Counters().TotalSent(); got != 4 {
		t.Fatalf("TotalSent = %d, want 4", got)
	}
}

// TestHandleBatchContract pins what the receiver is handed on a 25-node
// grid where some receivers fail between delivery and processing: one
// HandleBatch per transmission that still has a live receiver, none for a
// transmission whose receivers all died, and to holding exactly the
// survivors, in ReachedBy order. Every run is consumed either way, so each
// batch carries its own transmission's packet.
func TestHandleBatchContract(t *testing.T) {
	sched := sim.NewScheduler()
	f, err := topo.NewGridField(25, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewGridField: %v", err)
	}
	nw, err := New(sched, f, sim.NewRNG(1), Config{Sizes: packet.DefaultSizes(), MAC: noBackoff()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.SetProcessingDelay(time.Second)
	rec := newRecorder(sched, f.N())
	nw.Bind(rec)

	low := f.Model().MinPower()
	sends := []packet.Packet{
		{Kind: packet.ADV, Src: 12, Dst: packet.Broadcast, Level: radio.MaxPower}, // some receivers die
		{Kind: packet.ADV, Src: 0, Dst: packet.Broadcast, Level: low},             // every receiver dies
		{Kind: packet.REQ, Src: 24, Dst: 23, Level: low},                          // the receiver lives
		{Kind: packet.REQ, Src: 20, Dst: 15, Level: low},                          // the receiver dies
		{Kind: packet.ADV, Src: 4, Dst: packet.Broadcast, Level: low},             // no receiver dies
	}
	reached := func(p packet.Packet) []packet.NodeID {
		if p.Dst == packet.Broadcast {
			return f.ReachedBy(p.Src, p.Level)
		}
		if !f.InRange(p.Src, p.Dst, p.Level) {
			t.Fatalf("%v: receiver out of range", p)
		}
		return []packet.NodeID{p.Dst}
	}
	dying := make([]bool, f.N())
	dying[15] = true
	for _, id := range f.ReachedBy(0, low) {
		dying[id] = true
	}
	wide := f.ReachedBy(12, radio.MaxPower)
	dying[wide[len(wide)/2]] = true

	want := map[int32][]packet.NodeID{} // survivors by transmission
	for i := range sends {
		sends[i].Meta.Seq = int32(i)
		var live []packet.NodeID
		for _, id := range reached(sends[i]) {
			if !dying[id] {
				live = append(live, id)
			}
		}
		if len(live) > 0 {
			want[int32(i)] = live
		}
	}
	if n := len(want[0]); n < 2 || n == len(wide) {
		t.Fatalf("setup: %d of %d zone-wide receivers survive; want several, not all", n, len(wide))
	}

	// The frames complete within milliseconds; the failures land inside
	// every (completion, completion+proc) window.
	sched.AtArg(nw.proc/2, func(uint64) {
		for id, d := range dying {
			if d {
				nw.Fail(packet.NodeID(id))
			}
		}
	}, 0)
	for _, p := range sends {
		nw.Send(p)
	}
	if err := sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}

	if len(rec.batches) != len(want) {
		t.Fatalf("%d HandleBatch calls, want %d (one per transmission with a live receiver): %v",
			len(rec.batches), len(want), rec.batches)
	}
	for _, b := range rec.batches {
		w, ok := want[b.p.Meta.Seq]
		if !ok {
			t.Fatalf("batch for transmission %d, whose receivers all died: %v", b.p.Meta.Seq, b.to)
		}
		if !slices.Equal(b.to, w) {
			t.Fatalf("transmission %d handed to %v, want the survivors in ReachedBy order %v",
				b.p.Meta.Seq, b.to, w)
		}
		delete(want, b.p.Meta.Seq)
	}
	if len(nw.rxq) != 0 || nw.rxHead != 0 {
		t.Fatalf("receiver FIFO not drained: %d entries, head %d", len(nw.rxq), nw.rxHead)
	}
}

// TestSameInstantBatchesKeepCompletionOrder pins the receiver FIFO's order
// contract: flights that complete at one instant dispatch their batches in
// completion order, each to exactly the receivers it reached, at
// completion+proc — including proc = 0, where the batches share the
// completion instant with the completions themselves.
func TestSameInstantBatchesKeepCompletionOrder(t *testing.T) {
	for _, proc := range []time.Duration{0, time.Millisecond} {
		fx := deferredFixture(t, proc)
		var completed []time.Duration
		fx.nw.SetTrace(func(ev TraceEvent) {
			if ev.Kind == TraceDeliver {
				completed = append(completed, fx.sched.Now())
			}
		})
		// One sender, one kind, one level: equal access delay and airtime,
		// so all four complete at the same instant, in Send order. The
		// receiver sets differ, so a batch handed another flight's run
		// would show up as a wrong (node, seq) pair.
		lvl := radio.MaxPower
		fx.nw.Send(packet.Packet{Kind: packet.ADV, Meta: packet.DataID{Seq: 0}, Src: 1, Dst: 0, Level: lvl})
		fx.nw.Send(packet.Packet{Kind: packet.ADV, Meta: packet.DataID{Seq: 1}, Src: 1, Dst: packet.Broadcast, Level: lvl})
		fx.nw.Send(packet.Packet{Kind: packet.ADV, Meta: packet.DataID{Seq: 2}, Src: 1, Dst: 2, Level: lvl})
		fx.nw.Send(packet.Packet{Kind: packet.ADV, Meta: packet.DataID{Seq: 3}, Src: 1, Dst: packet.Broadcast, Level: lvl})
		if err := fx.sched.RunUntilIdle(0); err != nil {
			t.Fatalf("proc=%v: RunUntilIdle: %v", proc, err)
		}
		if len(completed) != 6 {
			t.Fatalf("proc=%v: %d deliveries traced, want 6", proc, len(completed))
		}
		for _, c := range completed[1:] {
			if c != completed[0] {
				t.Fatalf("proc=%v: deliveries at %v, want one instant", proc, completed)
			}
		}
		log := fx.rec.calls()
		want := []handling{{0, 0, 0}, {0, 1, 0}, {2, 1, 0}, {2, 2, 0}, {0, 3, 0}, {2, 3, 0}}
		if len(log) != len(want) {
			t.Fatalf("proc=%v: handled %v, want %v", proc, log, want)
		}
		for i, w := range want {
			w.at = completed[0] + proc
			if log[i] != w {
				t.Fatalf("proc=%v: handled %v, want (node, seq) %v at completion+proc %v",
					proc, log, want, w.at)
			}
		}
	}
}

// TestSetProcessingDelayAfterSendPanics checks that proc is frozen once
// traffic has started: a changed proc could make a later batch fire before
// an earlier one, breaking the receiver FIFO's order.
func TestSetProcessingDelayAfterSendPanics(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.SetProcessingDelay(time.Millisecond)
	fx.nw.SetProcessingDelay(2 * time.Millisecond) // before traffic: allowed
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower})
	defer func() {
		if recover() == nil {
			t.Fatal("SetProcessingDelay after the first Send did not panic")
		}
	}()
	fx.nw.SetProcessingDelay(time.Millisecond)
}

// TestBatchedDispatchAllocFree is the 0-alloc guard on the batched dispatch
// path (run in CI): after warmup, a full Send → complete → batched-handler
// cycle must not allocate — flight slots, the receiver FIFO, and scheduler
// events are all pooled, and the pre-bound method values avoid the
// per-packet closures this design replaced.
func TestBatchedDispatchAllocFree(t *testing.T) {
	fx := deferredFixture(t, time.Millisecond)
	fx.rec.quiet = true
	var handled [3]int
	fx.rec.react = func(_ packet.Packet, id packet.NodeID) { handled[id]++ }
	lvl := radio.MaxPower
	cycle := func() {
		for i := 0; i < 16; i++ {
			fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: lvl})
			fx.nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 1, Level: 1})
		}
		if err := fx.sched.RunUntilIdle(0); err != nil {
			t.Error(err)
		}
	}
	cycle() // warm the flight arena, receiver FIFO, and event pool
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state batched dispatch allocated %.1f times per cycle, want 0", allocs)
	}
	if handled[0] == 0 || handled[1] == 0 {
		t.Fatal("no deliveries recorded — cycle did not exercise the dispatch path")
	}
}

// TestReceiverFIFOReclaimsConsumedPrefix keeps the receiver FIFO from
// draining for over 10⁴ transmissions — four unicasts bounce between two
// nodes, staggered so that a completion always lands while an earlier
// batch still waits — and checks that its backing stays bounded: the
// consumed prefix is slid down once it outgrows the pending runs.
func TestReceiverFIFOReclaimsConsumedPrefix(t *testing.T) {
	const (
		proc    = 5 * time.Millisecond
		flights = 4
		limit   = 10000
	)
	fx := deferredFixture(t, proc)
	fx.rec.quiet = true
	// Every handler answers with a unicast back to the sender until limit
	// packets are sent in all, counting the batches that, once consumed,
	// leave the receiver FIFO empty: mid-batch the head is past this run's
	// terminator, and anything after it is a later transmission's run,
	// still waiting.
	drains := 0
	fx.rec.react = func(p packet.Packet, id packet.NodeID) {
		nw := fx.nw
		if nw.rxHead == len(nw.rxq) {
			drains++
		}
		if nw.Counters().TotalSent() < limit {
			nw.Send(packet.Packet{Kind: packet.ADV, Src: id, Dst: p.Src, Level: radio.MaxPower})
		}
	}
	for i := 0; i < flights; i++ {
		fx.sched.AtArg(time.Duration(i)*proc/flights, func(uint64) {
			fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 0, Dst: 1, Level: radio.MaxPower})
		}, 0)
	}
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if sent := fx.nw.Counters().TotalSent(); sent < limit || drains != 1 {
		t.Fatalf("sent %d, FIFO emptied by %d batches; want ≥ %d sent and only the last batch emptying it", sent, drains, limit)
	}
	// At most flights runs of two entries (a unicast's receiver and its
	// terminator) wait at once, and the slide keeps the consumed prefix
	// shorter than them.
	if c := cap(fx.nw.rxq); c > 2*2*flights {
		t.Fatalf("receiver FIFO capacity %d after %d transmissions, want ≤ %d", c, limit, 2*2*flights)
	}
}
