package core

// White-box tests for recovery paths that are hard to reach through
// end-to-end timing alone: the direct→routed REQ fallback (mobility moves a
// PRONE out of direct range), abandonment when no route exists at all, and
// degenerate query replies.

import (
	"testing"
	"time"

	"repro/internal/dissem"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/topo"
)

func TestSendREQDirectFallsBackToRoute(t *testing.T) {
	// Node 11 "directly" requests node 0, which is 55 m away with a 12 m
	// radio: the direct transmission is impossible, so sendREQ must fall
	// back to the multi-hop route — and the data must still arrive.
	nobody := func(packet.NodeID, packet.DataID) bool { return false }
	fx := stripFixture(t, 12, nobody, 21)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 100*time.Millisecond)

	n := &fx.sys.nodes[11]
	acq := n.acquire(d, n.item(d), 0)
	n.sendREQ(acq, 0, true) // direct to an unreachable target
	run(t, fx, 5*time.Second)

	if !fx.sys.Has(11, d) {
		t.Fatal("fallback route never delivered")
	}
	if acq.abandoned {
		t.Fatal("successful fallback marked abandoned")
	}
}

func TestSendREQAbandonsWithoutAnyPath(t *testing.T) {
	// Two nodes 50 m apart with a 12 m zone: no direct level, no route.
	// The acquisition must be abandoned instead of looping.
	m, err := radio.ScaledMICA2(12)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewChainField(2, 50, m)
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	fx := buildFixture(t, f, dissem.Everyone, DefaultConfig(), 22)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	n := &fx.sys.nodes[1]
	acq := n.acquire(d, n.item(d), 0)
	n.sendREQ(acq, 0, false) // multi-hop with no route at all
	run(t, fx, time.Second)
	if !acq.abandoned {
		t.Fatal("unroutable request not abandoned")
	}
	if fx.sys.Has(1, d) {
		t.Fatal("data crossed a disconnected field")
	}
}

func TestSendREQRespectsAttemptBudget(t *testing.T) {
	// No origination: the only possible REQ would come from the manual call
	// below, which must refuse because the budget is spent.
	fx := chainFixture(t, 3, dissem.Everyone, 23)
	d := packet.DataID{Origin: 0, Seq: 0}
	n := &fx.sys.nodes[2]
	acq := n.acquire(d, n.item(d), 0)
	acq.attempts = fx.sys.cfg.MaxAttempts
	n.sendREQ(acq, 0, true)
	run(t, fx, 100*time.Millisecond)
	if got := fx.nw.Counters().Sent[packet.REQ]; got != 0 {
		t.Fatalf("REQ sent despite exhausted budget (%d)", got)
	}
	if !acq.abandoned {
		t.Fatal("exhausted acquisition not abandoned")
	}
}

func TestCloserPrefersReachableOverUnreachable(t *testing.T) {
	// On a disconnected pair, any reachable candidate beats an unreachable
	// incumbent PRONE.
	m, err := radio.ScaledMICA2(12)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewChainField(3, 50, m) // all pairwise disconnected
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	fx := buildFixture(t, f, dissem.Everyone, DefaultConfig(), 24)
	n := &fx.sys.nodes[0]
	// Incumbent 2 is unreachable; candidate 1 is also unreachable → false.
	if n.closer(1, 2) {
		t.Fatal("unreachable candidate should not win")
	}
	// Same node never beats itself.
	if n.closer(2, 2) {
		t.Fatal("candidate == current must be false")
	}
	// Connected fixture: cheaper candidate wins, equal-or-worse loses.
	fx2 := chainFixture(t, 3, dissem.Everyone, 25)
	n2 := &fx2.sys.nodes[2]
	if !n2.closer(1, 0) {
		t.Fatal("1-hop candidate should beat 2-hop incumbent")
	}
	if n2.closer(0, 1) {
		t.Fatal("2-hop candidate should not beat 1-hop incumbent")
	}
}

func TestReplyToQueryEmptyTrailDrops(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 26)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 500*time.Millisecond)
	n := &fx.sys.nodes[0]
	before := fx.nw.Counters().Drops
	n.replyToQuery(packet.Packet{Kind: packet.QRY, Meta: d, Requester: 2})
	if fx.nw.Counters().Drops != before+1 {
		t.Fatal("empty-trail query reply not dropped")
	}
}

func TestServeDATAUnreachableRequesterDrops(t *testing.T) {
	// A REQ that claims to come "directly" from a node that is in fact out
	// of radio range (stale state after mobility): the provider must drop
	// rather than panic.
	fx := chainFixture(t, 3, dissem.Everyone, 27)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 500*time.Millisecond)
	// Move node 2 far outside everyone's range, then hand node 0 a "direct"
	// REQ from it.
	fx.field.Move(2, fx.field.Bounds().Max)
	n := &fx.sys.nodes[0]
	before := fx.nw.Counters().Drops
	n.serveDATA(packet.Packet{
		Kind: packet.REQ, Meta: d, Src: 2, Dst: 0, Requester: 2, Provider: 0,
	})
	// Chain bounds keep node 2 on the line; force a true out-of-range case
	// only if the move created one. Otherwise the serve succeeds — both
	// outcomes are legal; the invariant is "no panic, drop counted if
	// unreachable".
	if _, ok := fx.field.LevelTo(0, 2); !ok && fx.nw.Counters().Drops != before+1 {
		t.Fatal("unreachable direct requester not dropped")
	}
}

func TestForwardSourceRoutedConsumesTrail(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 28)
	n := &fx.sys.nodes[1]
	d := packet.DataID{Origin: 0, Seq: 0}
	// Empty trail: not consumed (falls back to table routing).
	if n.forwardSourceRouted(packet.Packet{Kind: packet.DATA, Meta: d}) {
		t.Fatal("empty trail should not be consumed")
	}
	// One-hop trail to a reachable node: consumed and forwarded.
	p := packet.Packet{Kind: packet.DATA, Meta: d, Requester: 2, Provider: 0,
		Trail: []packet.NodeID{2}, Bytes: 40}
	if !n.forwardSourceRouted(p) {
		t.Fatal("valid trail not consumed")
	}
}
