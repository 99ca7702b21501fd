package network

// Tests for batched delivery: the network replaces the old per-receiver
// After(Proc) closures with one arg-event per transmission whose receivers
// wait in one FIFO, and these pin the semantics that replacement must
// preserve — handler timing at completion+proc, receiver order, batch
// order across flights completing at one instant, the silent skip of
// receivers that die between delivery and processing — plus the
// allocation-free steady state that motivates the mechanism.

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/radio"
)

// timedRecorder logs each delivery with the simulation time it was handled.
type timedRecorder struct {
	fx    *fixture
	order *[]packet.NodeID // shared across receivers: global handler order
	id    packet.NodeID
	times []time.Duration
}

func (r *timedRecorder) HandlePacket(p packet.Packet) {
	r.times = append(r.times, r.fx.sched.Now())
	*r.order = append(*r.order, r.id)
}

// deferredFixture rebinds the standard 3-node chain fixture with
// time-logging receivers and sets the network's processing delay.
func deferredFixture(t *testing.T, proc time.Duration) (*fixture, []*timedRecorder, *[]packet.NodeID) {
	t.Helper()
	fx := newFixture(t, noBackoff())
	fx.nw.SetProcessingDelay(proc)
	order := new([]packet.NodeID)
	recs := make([]*timedRecorder, 3)
	for i := range recs {
		recs[i] = &timedRecorder{fx: fx, order: order, id: packet.NodeID(i)}
		fx.nw.Bind(packet.NodeID(i), recs[i])
	}
	return fx, recs, order
}

func TestDeferredHandlersRunAtCompletionPlusProc(t *testing.T) {
	const proc = 5 * time.Millisecond
	fx, recs, _ := deferredFixture(t, proc)

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
	for _, r := range []*timedRecorder{recs[0], recs[2]} {
		if len(r.times) != 1 {
			t.Fatalf("node %d handled %d packets, want 1", r.id, len(r.times))
		}
		if got, want := r.times[0], delivered+proc; got != want {
			t.Fatalf("node %d handler ran at %v, want delivery(%v)+proc = %v", r.id, got, delivered, want)
		}
	}
}

func TestDeferredBatchPreservesReceiverOrder(t *testing.T) {
	fx, _, order := deferredFixture(t, time.Millisecond)
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	// ReachedBy order is ascending node id: 0 then 2.
	if len(*order) != 2 || (*order)[0] != 0 || (*order)[1] != 2 {
		t.Fatalf("handler order %v, want [0 2]", *order)
	}
}

func TestDeferredSkipsReceiverDeadBeforeProcessing(t *testing.T) {
	// A receiver that fails after delivery (energy charged, trace emitted)
	// but before completion+proc silently skips its handler — the same
	// window the old per-receiver After(Proc) closures checked.
	const proc = 2 * time.Second
	fx, recs, _ := deferredFixture(t, proc)
	// The transmission completes within milliseconds; 1s is safely inside
	// the (completion, completion+proc) window.
	fx.sched.AtArg(time.Second, func(uint64) { fx.nw.Fail(2) }, 0)
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(recs[0].times) != 1 {
		t.Fatalf("live receiver handled %d packets, want 1", len(recs[0].times))
	}
	if len(recs[2].times) != 0 {
		t.Fatalf("dead receiver's handler ran %d times, want 0", len(recs[2].times))
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
	fx, recs, _ := deferredFixture(t, 0)
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
	if len(recs[1].times) != 1 || recs[1].times[0] != delivered {
		t.Fatalf("unicast handler times %v, want one handling at delivery time %v", recs[1].times, delivered)
	}
}

// forwarder re-Sends from its own node on the first packet it handles —
// the re-entrant case that grows the flight arena mid-batch.
type forwarder struct {
	fx   *fixture
	id   packet.NodeID
	got  int
	sent bool
}

func (f *forwarder) HandlePacket(p packet.Packet) {
	f.got++
	if !f.sent {
		f.sent = true
		f.fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: f.id, Dst: packet.Broadcast, Level: radio.MaxPower})
	}
}

func TestDeferredReentrantSendGrowsArenaSafely(t *testing.T) {
	// Handlers Sending mid-batch append new flights; the batch must keep
	// iterating its own (possibly relocated) slot without losing receivers.
	fx := newFixture(t, noBackoff())
	fx.nw.SetProcessingDelay(time.Millisecond)
	fwds := make([]*forwarder, 3)
	for i := range fwds {
		fwds[i] = &forwarder{fx: fx, id: packet.NodeID(i)}
		fx.nw.Bind(packet.NodeID(i), fwds[i])
	}
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	// At max power every broadcast reaches both other nodes. Each node
	// forwards exactly once: 4 transmissions × 2 receivers = 8 deliveries,
	// 3 at the ends (seed + two forwards) and 2 at the seeding middle node.
	total := fwds[0].got + fwds[1].got + fwds[2].got
	if total != 8 || fwds[0].got != 3 || fwds[1].got != 2 || fwds[2].got != 3 {
		t.Fatalf("deliveries %d/%d/%d (total %d), want 3/2/3", fwds[0].got, fwds[1].got, fwds[2].got, total)
	}
	if got := fx.nw.Counters().TotalSent(); got != 4 {
		t.Fatalf("TotalSent = %d, want 4", got)
	}
}

// handling is one handler call: which node handled which packet, when.
type handling struct {
	node packet.NodeID
	seq  int
	at   time.Duration
}

// seqRecorder logs every handler call into a log shared by all receivers.
type seqRecorder struct {
	fx  *fixture
	id  packet.NodeID
	log *[]handling
}

func (r *seqRecorder) HandlePacket(p packet.Packet) {
	*r.log = append(*r.log, handling{node: r.id, seq: p.Meta.Seq, at: r.fx.sched.Now()})
}

// TestSameInstantBatchesKeepCompletionOrder pins the receiver FIFO's order
// contract: flights that complete at one instant dispatch their batches in
// completion order, each to exactly the receivers it reached, at
// completion+proc — including proc = 0, where the batches share the
// completion instant with the completions themselves.
func TestSameInstantBatchesKeepCompletionOrder(t *testing.T) {
	for _, proc := range []time.Duration{0, time.Millisecond} {
		fx := newFixture(t, noBackoff())
		fx.nw.SetProcessingDelay(proc)
		var log []handling
		for i := 0; i < 3; i++ {
			fx.nw.Bind(packet.NodeID(i), &seqRecorder{fx: fx, id: packet.NodeID(i), log: &log})
		}
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

// countingRecorder handles packets without retaining them, so the steady
// state allocates nothing on the receiver side either.
type countingRecorder struct{ n int }

func (r *countingRecorder) HandlePacket(packet.Packet) { r.n++ }

// TestBatchedDispatchAllocFree is the 0-alloc guard on the batched dispatch
// path (run in CI): after warmup, a full Send → complete → batched-handler
// cycle must not allocate — flight slots, the receiver FIFO, and scheduler
// events are all pooled, and the pre-bound method values avoid the
// per-packet closures this design replaced.
func TestBatchedDispatchAllocFree(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.SetProcessingDelay(time.Millisecond)
	recs := make([]*countingRecorder, 3)
	for i := range recs {
		recs[i] = &countingRecorder{}
		fx.nw.Bind(packet.NodeID(i), recs[i])
	}
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
	if recs[0].n == 0 || recs[1].n == 0 {
		t.Fatal("no deliveries recorded — cycle did not exercise the dispatch path")
	}
}

// relay answers every packet it handles with a unicast back to the
// sender, until the network has sent limit packets in all; it counts the
// batches that, once consumed, leave the receiver FIFO empty.
type relay struct {
	fx     *fixture
	id     packet.NodeID
	limit  uint64
	drains *int
}

func (r *relay) HandlePacket(p packet.Packet) {
	nw := r.fx.nw
	// Mid-batch the head is this run's packet.None terminator; anything
	// after it is a later transmission's run, still waiting.
	if len(nw.rxq)-nw.rxHead == 1 {
		*r.drains++
	}
	if nw.Counters().TotalSent() < r.limit {
		nw.Send(packet.Packet{Kind: packet.ADV, Src: r.id, Dst: p.Src, Level: radio.MaxPower})
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
	fx := newFixture(t, noBackoff())
	fx.nw.SetProcessingDelay(proc)
	drains := 0
	for i := 0; i < 2; i++ {
		fx.nw.Bind(packet.NodeID(i), &relay{fx: fx, id: packet.NodeID(i), limit: limit, drains: &drains})
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
