package spin

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/dissem"
	"repro/internal/mac"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

type fixture struct {
	sched  *sim.Scheduler
	nw     *network.Network
	ledger *dissem.Ledger
	sys    *System
}

// newFixture builds an n-node grid SPIN system, 5 m spacing, radius-scaled
// MICA2 radio.
func newFixture(t *testing.T, n int, zoneRadius float64, interest dissem.Interest) *fixture {
	t.Helper()
	sched := sim.NewScheduler()
	m, err := radio.ScaledMICA2(zoneRadius)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewGridField(n, 5, m)
	if err != nil {
		t.Fatalf("NewGridField: %v", err)
	}
	nw, err := network.New(sched, f, sim.NewRNG(7), network.Config{
		Sizes: packet.DefaultSizes(),
		MAC:   mac.DefaultConfig(),
	})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	ledger := dissem.NewLedger()
	sys, err := NewSystem(nw, ledger, interest, DefaultConfig())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return &fixture{sched: sched, nw: nw, ledger: ledger, sys: sys}
}

func run(t *testing.T, fx *fixture, horizon time.Duration) {
	t.Helper()
	if err := fx.sched.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	fx := newFixture(t, 4, 10, dissem.Everyone)
	if _, err := NewSystem(nil, fx.ledger, dissem.Everyone, DefaultConfig()); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewSystem(fx.nw, nil, dissem.Everyone, DefaultConfig()); err == nil {
		t.Fatal("nil ledger accepted")
	}
	if _, err := NewSystem(fx.nw, fx.ledger, nil, DefaultConfig()); err == nil {
		t.Fatal("nil interest accepted")
	}
	if _, err := NewSystem(fx.nw, fx.ledger, dissem.Everyone, Config{Proc: -1}); err == nil {
		t.Fatal("negative proc accepted")
	}
	if _, err := NewSystem(fx.nw, fx.ledger, dissem.Everyone, Config{PendingTimeout: -1}); err == nil {
		t.Fatal("negative timeout accepted")
	}
}

func TestDerivedPendingTimeoutPositive(t *testing.T) {
	fx := newFixture(t, 9, 10, dissem.Everyone)
	if fx.sys.Config().PendingTimeout <= 0 {
		t.Fatalf("derived PendingTimeout=%v", fx.sys.Config().PendingTimeout)
	}
}

// TestNewSystemBuildsNoNeighborCache pins that setup pays for the nodes a
// run touches, not for the field: on a 20 000-node field, deriving the
// pending timeout is a count-only pass, and after construction no SPIN
// instance and no neighbor-cache slot exists (no node has moved, so
// ValidCaches counts the slots). Building the field, the network and the
// system allocates at most 112 B per node, measured by
// runtime.MemStats.TotalAlloc: ~101 today, against ~222 with every
// instance, cache slot and carrier-sense clock allocated up front.
func TestNewSystemBuildsNoNeighborCache(t *testing.T) {
	const (
		n            = 20000
		bytesPerNode = 112
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fx := newFixture(t, n, 20, dissem.Everyone)
	runtime.ReadMemStats(&after)
	if fx.sys.Config().PendingTimeout <= 0 {
		t.Fatalf("derived PendingTimeout=%v", fx.sys.Config().PendingTimeout)
	}
	for id, nd := range fx.sys.nodes {
		if nd != nil {
			t.Fatalf("NewSystem created node %d's instance", id)
		}
	}
	if v := fx.nw.Field().ValidCaches(); v != 0 {
		t.Fatalf("NewSystem built %d neighbor caches, want 0", v)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("field, network and system: %.1f B per node, %d mallocs", per, after.Mallocs-before.Mallocs)
	if per > bytesPerNode {
		t.Fatalf("setup allocated %.1f B per node, want at most %d", per, bytesPerNode)
	}
}

func TestOriginateValidation(t *testing.T) {
	fx := newFixture(t, 4, 10, dissem.Everyone)
	d := packet.DataID{Origin: 1, Seq: 0}
	if err := fx.sys.Originate(2, d); err == nil {
		t.Fatal("wrong origin node accepted")
	}
	if err := fx.sys.Originate(1, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	if err := fx.sys.Originate(1, d); err == nil {
		t.Fatal("duplicate origination accepted")
	}
	fx.nw.Fail(0)
	if err := fx.sys.Originate(0, packet.DataID{Origin: 0, Seq: 0}); err == nil {
		t.Fatal("dead origin accepted")
	}
}

func TestThreeWayHandshakeDelivers(t *testing.T) {
	// 2×2 grid, everything within one zone: pure single-zone SPIN.
	fx := newFixture(t, 4, 20, dissem.Everyone)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 200*time.Millisecond)
	for id := packet.NodeID(1); id < 4; id++ {
		if !fx.sys.Has(id, d) {
			t.Fatalf("node %d never received data", id)
		}
	}
	if fx.ledger.Deliveries() != 3 {
		t.Fatalf("Deliveries=%d, want 3", fx.ledger.Deliveries())
	}
	c := fx.nw.Counters()
	if c.Sent[packet.REQ] < 3 || c.Sent[packet.DATA] < 3 {
		t.Fatalf("handshake counts REQ=%d DATA=%d, want ≥3 each", c.Sent[packet.REQ], c.Sent[packet.DATA])
	}
}

func TestAllTransmissionsAtMaxPower(t *testing.T) {
	fx := newFixture(t, 9, 20, dissem.Everyone)
	fx.nw.SetTrace(func(ev network.TraceEvent) {
		if ev.Kind == network.TraceTx && ev.Packet.Level != radio.MaxPower {
			t.Fatalf("SPIN transmitted at level %v: %v", ev.Packet.Level, ev.Packet)
		}
	})
	if err := fx.sys.Originate(4, packet.DataID{Origin: 4, Seq: 0}); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 500*time.Millisecond)
}

func TestDataRipplesAcrossZones(t *testing.T) {
	// 5×5 grid with a 7 m zone: corner-to-corner needs multiple SPIN
	// rounds of re-advertisement.
	fx := newFixture(t, 25, 7, dissem.Everyone)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 2*time.Second)
	if !fx.sys.Has(24, d) {
		t.Fatal("far corner never received data")
	}
	if fx.ledger.Deliveries() != 24 {
		t.Fatalf("Deliveries=%d, want 24", fx.ledger.Deliveries())
	}
}

func TestUninterestedNodesDoNotRequest(t *testing.T) {
	onlyNode3 := func(id packet.NodeID, d packet.DataID) bool { return id == 3 }
	fx := newFixture(t, 4, 20, onlyNode3)
	if err := fx.sys.Originate(0, packet.DataID{Origin: 0, Seq: 0}); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 200*time.Millisecond)
	if got := fx.nw.Counters().Sent[packet.REQ]; got != 1 {
		t.Fatalf("REQ count=%d, want 1 (only node 3 interested)", got)
	}
	if fx.sys.Has(1, packet.DataID{Origin: 0, Seq: 0}) {
		t.Fatal("uninterested node acquired data")
	}
	if !fx.sys.Has(3, packet.DataID{Origin: 0, Seq: 0}) {
		t.Fatal("interested node missed data")
	}
}

func TestNoDuplicateRequestsWhilePending(t *testing.T) {
	// Two advertisers of the same data: the second ADV must not trigger a
	// second REQ while the first is outstanding.
	fx := newFixture(t, 4, 20, dissem.Everyone)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, time.Second)
	// After full dissemination, every non-origin node received exactly one
	// DATA unless duplicates were served concurrently; allow small slack
	// for racing first requests but no unbounded blowup.
	c := fx.nw.Counters()
	if c.Sent[packet.DATA] > 9 {
		t.Fatalf("DATA sends=%d for 3 receivers; duplicate suppression broken", c.Sent[packet.DATA])
	}
}

func TestReRequestAfterProviderFailure(t *testing.T) {
	// Provider dies before serving; a later advertiser lets the node
	// re-request after the pending timeout (F-SPIN liveness).
	fx := newFixture(t, 9, 20, dissem.Everyone)
	d := packet.DataID{Origin: 4, Seq: 0}
	// Fail the origin immediately after its ADV goes out, then recover it
	// much later.
	if err := fx.sys.Originate(4, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	fx.sched.AfterArg(25*time.Millisecond, func(uint64) { fx.nw.Fail(4) }, 0)
	fx.sched.AfterArg(400*time.Millisecond, func(uint64) { fx.nw.Recover(4) }, 0)
	run(t, fx, 3*time.Second)
	// The origin's first ADV may or may not beat the failure; after
	// recovery nothing re-advertises in plain SPIN unless some node got the
	// data. Accept either complete dissemination or none, but the system
	// must not wedge with partial pending state preventing future runs.
	second := packet.DataID{Origin: 0, Seq: 1}
	if err := fx.sys.Originate(0, second); err != nil {
		t.Fatalf("second Originate: %v", err)
	}
	run(t, fx, 6*time.Second)
	if !fx.sys.Has(8, second) {
		t.Fatal("network wedged: fresh data no longer disseminates")
	}
}

func TestDelayMeasuredFromADV(t *testing.T) {
	fx := newFixture(t, 4, 20, dissem.Everyone)
	if err := fx.sys.Originate(0, packet.DataID{Origin: 0, Seq: 0}); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 200*time.Millisecond)
	if fx.ledger.Delays().Count() != 3 {
		t.Fatalf("delay samples=%d, want 3", fx.ledger.Delays().Count())
	}
	// Sanity: delay must exceed the DATA airtime (2 ms) since the handshake
	// includes ADV + REQ + DATA transmissions.
	if fx.ledger.Delays().Min() < 2*time.Millisecond {
		t.Fatalf("min delay %v implausibly small", fx.ledger.Delays().Min())
	}
}

func TestDeterministicRuns(t *testing.T) {
	results := make([]time.Duration, 2)
	for i := range results {
		fx := newFixture(t, 25, 15, dissem.Everyone)
		if err := fx.sys.Originate(12, packet.DataID{Origin: 12, Seq: 0}); err != nil {
			t.Fatalf("Originate: %v", err)
		}
		run(t, fx, 2*time.Second)
		results[i] = fx.ledger.Delays().Mean()
	}
	if results[0] != results[1] {
		t.Fatalf("same seed diverged: %v vs %v", results[0], results[1])
	}
}

func TestHasPanicsOutOfRange(t *testing.T) {
	fx := newFixture(t, 4, 10, dissem.Everyone)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fx.sys.Has(99, packet.DataID{})
}

// TestPendingRequestState walks one node's pending window for an item that
// is registered but held by nobody, so no REQ is ever answered: an ADV while
// a request is pending sends no REQ, expiry clears the state, an ADV after
// expiry requests again, and DATA clears it. At every step the handle the
// node keeps agrees with the scheduler's view of it.
func TestPendingRequestState(t *testing.T) {
	fx := newFixture(t, 4, 20, dissem.Everyone)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.ledger.Originate(d, 0); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	it := fx.ledger.Index(d)
	n := fx.sys.instance(1)
	to := []packet.NodeID{n.id}
	adv := packet.Packet{Kind: packet.ADV, Meta: d, Src: 0, Dst: packet.Broadcast, Level: radio.MaxPower}
	reqs := func() uint64 { return fx.nw.Counters().Sent[packet.REQ] }
	pending := func(when string, want bool) sim.Timer {
		t.Helper()
		h := n.pending[it]
		if got := h != (sim.Timer{}); got != want || h.Active() != want {
			t.Fatalf("%s: pending state %v, Active %v; want %v", when, got, h.Active(), want)
		}
		return h
	}

	fx.sys.HandleBatch(adv, to)
	if reqs() != 1 {
		t.Fatalf("first ADV sent %d REQs, want 1", reqs())
	}
	first := pending("after the first ADV", true)
	fx.sys.HandleBatch(adv, to)
	if reqs() != 1 {
		t.Fatalf("ADV while pending sent %d REQs, want still 1", reqs())
	}

	run(t, fx, first.At())
	pending("after expiry", false)
	if first.Active() || fx.nw.Counters().Timeouts != 1 {
		t.Fatalf("expired handle Active %v, timeouts %d; want false, 1", first.Active(), fx.nw.Counters().Timeouts)
	}

	fx.sys.HandleBatch(adv, to)
	if reqs() != 2 {
		t.Fatalf("ADV after expiry sent %d REQs in all, want 2", reqs())
	}
	second := pending("after the ADV past expiry", true)

	fx.sys.HandleBatch(packet.Packet{Kind: packet.DATA, Meta: d, Src: 0, Dst: 1, Requester: 1, Provider: 0,
		Level: radio.MaxPower}, to)
	pending("after DATA", false)
	if second.Active() {
		t.Fatal("DATA left the pending timer scheduled")
	}
	if !fx.sys.Has(1, d) {
		t.Fatal("DATA not stored")
	}
}
