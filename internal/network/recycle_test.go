package network

// Tests for the network's recycled arrays (Release, New): a network on the
// flight arena, free-flight list and receiver FIFO of a network released
// mid-run starts with none of its flights or queued receivers, the
// released network can never reach those arrays again, and the spare set
// pins no packet of the finished run.

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/radio"
)

// drainSpares empties the recycler now and again when the test ends, so
// the test sees only the arrays it released itself and leaves none to the
// tests after it, which bound capacities they grow from empty.
func drainSpares(t *testing.T) {
	t.Helper()
	drain := func() {
		for {
			if _, ok := spares.Get(); !ok {
				return
			}
		}
	}
	drain()
	t.Cleanup(drain)
}

// midRunFixture returns a network stopped at its first delivery: three
// broadcasts, each carrying a forwarding trail, are on the air or waiting
// in the receiver FIFO for their batch.
func midRunFixture(t *testing.T) *fixture {
	t.Helper()
	fx := deferredFixture(t, time.Millisecond)
	fx.nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			fx.sched.Stop()
		}
	})
	for src := packet.NodeID(0); src < 3; src++ {
		fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: src, Dst: packet.Broadcast, Level: radio.MaxPower,
			Meta: packet.DataID{Origin: src, Seq: 1}, Trail: []packet.NodeID{src}})
	}
	if err := fx.sched.RunUntilIdle(0); err == nil {
		t.Fatal("the run never delivered")
	}
	if nw := fx.nw; len(nw.flights) == len(nw.freeFlights) || nw.rxHead == len(nw.rxq) {
		t.Fatalf("%d flights, %d free, receiver FIFO %d/%d: want flights pending and receivers queued",
			len(nw.flights), len(nw.freeFlights), nw.rxHead, len(nw.rxq))
	}
	return fx
}

// TestRecycledNetworkStartsEmpty releases a network mid-run and builds the
// next one on its arrays: it must start with no flights and no queued
// receivers, accept SetProcessingDelay before its first Send, and deliver
// exactly its own traffic.
func TestRecycledNetworkStartsEmpty(t *testing.T) {
	drainSpares(t)
	prev := midRunFixture(t)
	handled := len(prev.rec.batches)
	prev.nw.Release()

	fx := newFixture(t, noBackoff())
	nw := fx.nw
	if cap(nw.flights) == 0 || cap(nw.rxq) == 0 {
		t.Fatalf("flight capacity %d, receiver FIFO capacity %d: the network did not take the released arrays",
			cap(nw.flights), cap(nw.rxq))
	}
	if len(nw.flights) != 0 || len(nw.freeFlights) != 0 || len(nw.rxq) != 0 || nw.rxHead != 0 {
		t.Fatalf("recycled network starts with %d flights, %d free, receiver FIFO %d/%d; want all 0",
			len(nw.flights), len(nw.freeFlights), nw.rxHead, len(nw.rxq))
	}
	const proc = 2 * time.Millisecond
	nw.SetProcessingDelay(proc) // panics once a transmission has been scheduled
	var delivered time.Duration
	nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			delivered = fx.sched.Now()
		}
	})
	p := packet.Packet{Kind: packet.ADV, Src: 1, Dst: packet.Broadcast, Level: radio.MaxPower, Meta: packet.DataID{Origin: 1, Seq: 9}}
	nw.Send(p)
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(fx.rec.batches) != 1 || !slices.Equal(fx.rec.batches[0].to, []packet.NodeID{0, 2}) ||
		fx.rec.batches[0].p.Meta != p.Meta || fx.rec.batches[0].at != delivered+proc {
		t.Fatalf("batches %v, want one of %v handed to [0 2] at %v", fx.rec.batches, p.Meta, delivered+proc)
	}
	if len(prev.rec.batches) != handled {
		t.Fatal("the released network's receiver was called")
	}
}

// TestReleaseKeepsNoPacket checks that the spare set pins nothing of the
// finished run: every flight slot, up to the capacity a later run may
// reach, is the zero packet, whether its packet was handled or still on
// the air.
func TestReleaseKeepsNoPacket(t *testing.T) {
	drainSpares(t)
	fx := midRunFixture(t)
	fx.nw.Release()
	a, ok := spares.Get()
	if !ok {
		t.Fatal("Release put no spare set")
	}
	if len(a.flights)+len(a.freeFlights)+len(a.rxq) != 0 {
		t.Fatalf("spare lengths flights %d, free %d, receiver FIFO %d; want 0",
			len(a.flights), len(a.freeFlights), len(a.rxq))
	}
	for i, p := range a.flights[:cap(a.flights)] {
		if !reflect.ValueOf(p).IsZero() {
			t.Fatalf("spare flight slot %d still holds %v (trail %v)", i, p, p.Trail)
		}
	}
}

// TestReleasedNetworkStaysOffRecycledArrays keeps sending on a released
// network while another network runs on its arrays: each must deliver
// exactly its own packets.
func TestReleasedNetworkStaysOffRecycledArrays(t *testing.T) {
	drainSpares(t)
	old := newFixture(t, noBackoff())
	old.nw.Send(packet.Packet{Kind: packet.ADV, Src: 0, Dst: 1, Level: radio.MaxPower, Meta: packet.DataID{Origin: 0, Seq: 1}})
	if err := old.sched.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	old.nw.Release() // its one flight slot is free: a stale list would hand it out

	fx := newFixture(t, noBackoff())
	if cap(fx.nw.flights) == 0 {
		t.Fatal("the network did not take the released arrays")
	}
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 1, Dst: 2, Level: radio.MaxPower, Meta: packet.DataID{Origin: 1, Seq: 2}})
	old.nw.Send(packet.Packet{Kind: packet.ADV, Src: 2, Dst: 1, Level: radio.MaxPower, Meta: packet.DataID{Origin: 2, Seq: 3}})
	for _, f := range []*fixture{fx, old} {
		if err := f.sched.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
	}
	metas := func(ps []packet.Packet) []packet.DataID {
		var out []packet.DataID
		for _, p := range ps {
			out = append(out, p.Meta)
		}
		return out
	}
	if got, want := metas(fx.rec.got[2]), []packet.DataID{{Origin: 1, Seq: 2}}; !slices.Equal(got, want) || len(fx.rec.got[1]) != 0 {
		t.Fatalf("new network delivered %v to node 2 and %d packets to node 1; want %v and none", got, len(fx.rec.got[1]), want)
	}
	if got, want := metas(old.rec.got[1]), []packet.DataID{{Origin: 0, Seq: 1}, {Origin: 2, Seq: 3}}; !slices.Equal(got, want) {
		t.Fatalf("released network delivered %v to node 1, want %v", got, want)
	}
}
