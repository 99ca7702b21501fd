package core

// White-box tests for recovery paths that are hard to reach through
// end-to-end timing alone: the direct→routed REQ fallback (mobility moves a
// PRONE out of direct range), abandonment when no route exists at all,
// degenerate query replies, and the protocol-owned timer state (armed)
// against the scheduler's view.

import (
	"testing"
	"time"

	"repro/internal/dissem"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
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
	acq := n.acquire(d, fx.ledger.Index(d), 0)
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
	acq := n.acquire(d, fx.ledger.Index(d), 0)
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
	acq := n.acquire(d, fx.ledger.Index(d), 0)
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
	n.replyToQuery(&packet.Packet{Kind: packet.QRY, Meta: d, Requester: 2})
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
	n.serveDATA(&packet.Packet{
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
	if n.forwardSourceRouted(&packet.Packet{Kind: packet.DATA, Meta: d}) {
		t.Fatal("empty trail should not be consumed")
	}
	// One-hop trail to a reachable node: consumed and forwarded.
	p := packet.Packet{Kind: packet.DATA, Meta: d, Requester: 2, Provider: 0,
		Trail: []packet.NodeID{2}, Bytes: 40}
	if !n.forwardSourceRouted(&p) {
		t.Fatal("valid trail not consumed")
	}
}

// checkTimerState fails unless both of acq's timers are in the wanted
// state by the protocol's own check (armed) and by the scheduler's
// (Timer.Active).
func checkTimerState(t *testing.T, when string, acq *acquisition, wantADV, wantDAT bool) {
	t.Helper()
	if armed(acq.tauADV) != wantADV || acq.tauADV.Active() != wantADV {
		t.Fatalf("%s: τADV armed=%v Active=%v, want %v", when, armed(acq.tauADV), acq.tauADV.Active(), wantADV)
	}
	if armed(acq.tauDAT) != wantDAT || acq.tauDAT.Active() != wantDAT {
		t.Fatalf("%s: τDAT armed=%v Active=%v, want %v", when, armed(acq.tauDAT), acq.tauDAT.Active(), wantDAT)
	}
}

// unheldItemFixture is a 3-node chain with item d0.0 registered in the
// ledger but held by no node, so a request for it is never answered and
// its τDAT always runs out.
func unheldItemFixture(t *testing.T, seed int64) (*fixture, packet.DataID) {
	t.Helper()
	fx := chainFixture(t, 3, dissem.Everyone, seed)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.ledger.Originate(d, 0); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	return fx, d
}

func TestOutstandingCheckAfterTimerFires(t *testing.T) {
	for _, tc := range []struct {
		name string
		// arm starts one timer and returns it; after it fires, the timers
		// must be in the wanted states.
		arm              func(n *node, acq *acquisition) *sim.Timer
		wantADV, wantDAT bool
	}{
		// A direct request to a PRONE that is also the SCONE times out;
		// the failover ladder then abandons without a new request.
		{"tauDAT", func(n *node, acq *acquisition) *sim.Timer {
			n.sendREQ(acq, 0, true)
			return &acq.tauDAT
		}, false, false},
		// τADV expiry turns the wait into a multi-hop request.
		{"tauADV", func(n *node, acq *acquisition) *sim.Timer {
			n.armTauADV(acq)
			return &acq.tauADV
		}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx, d := unheldItemFixture(t, 31)
			n := &fx.sys.nodes[2]
			acq := n.acquire(d, fx.ledger.Index(d), 0)
			fired := *tc.arm(n, acq)
			if !armed(fired) || !fired.Active() {
				t.Fatal("timer not armed")
			}
			run(t, fx, fired.At())
			if fx.nw.Counters().Timeouts != 1 {
				t.Fatalf("timeouts = %d, want 1", fx.nw.Counters().Timeouts)
			}
			checkTimerState(t, "after "+tc.name+" fired", acq, tc.wantADV, tc.wantDAT)
			if fired.Active() {
				t.Fatal("the fired handle is still active")
			}
		})
	}
}

func TestOutstandingCheckAfterFinishAndAbandon(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(n *node, acq *acquisition)
	}{
		{"finish", func(n *node, acq *acquisition) { n.finish(acq) }},
		{"abandon", func(n *node, acq *acquisition) {
			acq.attempts = n.sys.cfg.MaxAttempts
			n.sendREQ(acq, 0, true)
			if !acq.abandoned {
				t.Fatal("exhausted acquisition not abandoned")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx, d := unheldItemFixture(t, 33)
			n := &fx.sys.nodes[2]
			acq := n.acquire(d, fx.ledger.Index(d), 0)
			n.sendREQ(acq, 0, true)
			n.armTauADV(acq)
			checkTimerState(t, "both armed", acq, true, true)
			adv, dat := acq.tauADV, acq.tauDAT
			tc.close(n, acq)
			checkTimerState(t, "after "+tc.name, acq, false, false)
			if adv.Active() || dat.Active() {
				t.Fatalf("canceled handles still active: τADV %v, τDAT %v", adv.Active(), dat.Active())
			}
		})
	}
}

func TestTimerStateAgreesWithSchedulerOverARun(t *testing.T) {
	// Over a whole run with nodes failing and recovering, every slab
	// acquisition — live or freed — has armed == Timer.Active for both
	// timers at every check point, and the run does reach both states.
	fx := gridFixture(t, 25, 10, dissem.Everyone, 34)
	for src := 0; src < 25; src += 6 {
		d := packet.DataID{Origin: packet.NodeID(src), Seq: 0}
		if err := fx.sys.Originate(d.Origin, d); err != nil {
			t.Fatalf("Originate: %v", err)
		}
	}
	for i, id := range []packet.NodeID{7, 12, 18} {
		at := time.Duration(i+1) * 2 * time.Millisecond
		fx.sched.AtArg(at, func(uint64) { fx.nw.Fail(id) }, 0)
		fx.sched.AtArg(at+20*time.Millisecond, func(uint64) { fx.nw.Recover(id) }, 0)
	}
	const horizon = 200 * time.Millisecond
	var armedSeen, idleSeen int
	var check sim.ArgHandler
	check = func(uint64) {
		for id := uint64(0); id < fx.sys.acqCarved; id++ {
			acq := fx.sys.acqAt(id)
			if armed(acq.tauADV) != acq.tauADV.Active() || armed(acq.tauDAT) != acq.tauDAT.Active() {
				t.Fatalf("t=%v acquisition %d: τADV armed=%v Active=%v, τDAT armed=%v Active=%v",
					fx.sched.Now(), id, armed(acq.tauADV), acq.tauADV.Active(),
					armed(acq.tauDAT), acq.tauDAT.Active())
			}
			if armed(acq.tauDAT) {
				armedSeen++
			} else {
				idleSeen++
			}
		}
		if fx.sched.Now() < horizon {
			fx.sched.AfterArg(100*time.Microsecond, check, 0)
		}
	}
	fx.sched.AtArg(0, check, 0)
	run(t, fx, horizon)
	if armedSeen == 0 || idleSeen == 0 || fx.nw.Counters().Timeouts == 0 {
		t.Fatalf("run never exercised the timers: armed %d, idle %d, timeouts %d",
			armedSeen, idleSeen, fx.nw.Counters().Timeouts)
	}
}
