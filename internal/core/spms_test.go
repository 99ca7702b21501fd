package core

import (
	"testing"
	"time"

	"repro/internal/dissem"
	"repro/internal/mac"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

type fixture struct {
	sched  *sim.Scheduler
	field  *topo.Field
	nw     *network.Network
	ledger *dissem.Ledger
	sys    *System
	events []network.TraceEvent
}

func (fx *fixture) recordTrace() {
	fx.nw.SetTrace(func(ev network.TraceEvent) { fx.events = append(fx.events, ev) })
}

func buildFixture(t *testing.T, field *topo.Field, interest dissem.Interest, cfg Config, seed int64) *fixture {
	t.Helper()
	sched := sim.NewScheduler()
	nw, err := network.New(sched, field, sim.NewRNG(seed), network.Config{
		Sizes: packet.DefaultSizes(),
		MAC:   mac.DefaultConfig(),
	})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	ledger := dissem.NewLedger()
	tables := routing.ComputeWorkers(routing.BuildGraphWorkers(field, 1), routing.DefaultAlternatives, 1)
	sys, err := NewSystem(nw, ledger, interest, tables, cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return &fixture{sched: sched, field: field, nw: nw, ledger: ledger, sys: sys}
}

// chainFixture builds the §3.3/§3.5 line topology: n nodes 5 m apart with
// full MICA2, so every node is in every other's zone and multi-hop at
// minimum power is cheaper than any direct transmission.
func chainFixture(t *testing.T, n int, interest dissem.Interest, seed int64) *fixture {
	t.Helper()
	f, err := topo.NewChainField(n, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	return buildFixture(t, f, interest, DefaultConfig(), seed)
}

// patientChainFixture is chainFixture with a τADV long enough that waiting
// destinations always hear a relay's re-advertisement first — the explicit
// assumption of the paper's worked examples ("suppose C's timer τADV has
// not expired yet", §3.3; likewise §3.5's promotion sequence).
func patientChainFixture(t *testing.T, n int, interest dissem.Interest, seed int64) *fixture {
	t.Helper()
	f, err := topo.NewChainField(n, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	cfg := DefaultConfig()
	cfg.TOutADV = 30 * time.Millisecond
	return buildFixture(t, f, interest, cfg, seed)
}

func gridFixture(t *testing.T, n int, zoneRadius float64, interest dissem.Interest, seed int64) *fixture {
	t.Helper()
	m, err := radio.ScaledMICA2(zoneRadius)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewGridField(n, 5, m)
	if err != nil {
		t.Fatalf("NewGridField: %v", err)
	}
	return buildFixture(t, f, interest, DefaultConfig(), seed)
}

func run(t *testing.T, fx *fixture, horizon time.Duration) {
	t.Helper()
	if err := fx.sched.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(c *Config) {}, false},
		{"zero TOutADV", func(c *Config) { c.TOutADV = 0 }, true},
		{"zero TOutDAT", func(c *Config) { c.TOutDAT = 0 }, true},
		{"negative proc", func(c *Config) { c.Proc = -1 }, true},
		{"negative attempts", func(c *Config) { c.MaxAttempts = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestNewSystemValidation(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 1)
	tables := fx.sys.Tables()
	if _, err := NewSystem(nil, fx.ledger, dissem.Everyone, tables, DefaultConfig()); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewSystem(fx.nw, nil, dissem.Everyone, tables, DefaultConfig()); err == nil {
		t.Fatal("nil ledger accepted")
	}
	if _, err := NewSystem(fx.nw, fx.ledger, nil, tables, DefaultConfig()); err == nil {
		t.Fatal("nil interest accepted")
	}
	if _, err := NewSystem(fx.nw, fx.ledger, dissem.Everyone, nil, DefaultConfig()); err == nil {
		t.Fatal("nil tables accepted")
	}
	bad := DefaultConfig()
	bad.TOutADV = 0
	if _, err := NewSystem(fx.nw, fx.ledger, dissem.Everyone, tables, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestOriginateValidation(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 1)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(1, d); err == nil {
		t.Fatal("wrong origin accepted")
	}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	if err := fx.sys.Originate(0, d); err == nil {
		t.Fatal("duplicate origination accepted")
	}
	fx.nw.Fail(2)
	if err := fx.sys.Originate(2, packet.DataID{Origin: 2, Seq: 0}); err == nil {
		t.Fatal("dead origin accepted")
	}
}

// TestSection33CaseI scripts §3.3 Case I: A(0), B(1), C(2); both B and C
// want A's data. B requests directly; C waits, hears B's re-advertisement,
// promotes B to PRONE (SCONE=A) and requests B directly.
func TestSection33CaseI(t *testing.T) {
	fx := patientChainFixture(t, 3, dissem.Everyone, 3)
	fx.recordTrace()
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 500*time.Millisecond)

	if !fx.sys.Has(1, d) || !fx.sys.Has(2, d) {
		t.Fatal("B or C never received the data")
	}
	if fx.ledger.Deliveries() != 2 {
		t.Fatalf("Deliveries=%d, want 2", fx.ledger.Deliveries())
	}
	// C's REQ must have gone to B (node 1), never to A at high power.
	var reqFromC []packet.Packet
	for _, ev := range fx.events {
		if ev.Kind == network.TraceTx && ev.Packet.Kind == packet.REQ && ev.Packet.Src == 2 {
			reqFromC = append(reqFromC, ev.Packet)
		}
	}
	if len(reqFromC) != 1 {
		t.Fatalf("C sent %d REQs, want 1", len(reqFromC))
	}
	if reqFromC[0].Dst != 1 || reqFromC[0].Provider != 1 {
		t.Fatalf("C requested %v, want direct to B", reqFromC[0])
	}
	// The DATA C received must come from B at minimum power (5 m hop).
	for _, ev := range fx.events {
		if ev.Kind == network.TraceDeliver && ev.Packet.Kind == packet.DATA && ev.Node == 2 {
			if ev.Packet.Src != 1 {
				t.Fatalf("C's data came from %d, want B", ev.Packet.Src)
			}
			if ev.Packet.Level != 5 {
				t.Fatalf("C's data at level %v, want 5 (minimum power)", ev.Packet.Level)
			}
		}
	}
	if fx.nw.Counters().Failovers != 0 {
		t.Fatalf("failure-free run recorded %d failovers", fx.nw.Counters().Failovers)
	}
}

// TestSection33CaseII scripts §3.3 Case II: B is not interested, so C's
// τADV expires and its REQ is routed through B to A; the data comes back
// through B.
func TestSection33CaseII(t *testing.T) {
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == 2 }
	fx := chainFixture(t, 3, interest, 4)
	fx.recordTrace()
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 500*time.Millisecond)

	if !fx.sys.Has(2, d) {
		t.Fatal("C never received the data")
	}
	// B must have relayed C's REQ toward A.
	sawRelayedREQ := false
	for _, ev := range fx.events {
		if ev.Kind == network.TraceTx && ev.Packet.Kind == packet.REQ &&
			ev.Packet.Src == 1 && ev.Packet.Dst == 0 &&
			ev.Packet.Requester == 2 && ev.Packet.Provider == 0 {
			sawRelayedREQ = true
		}
	}
	if !sawRelayedREQ {
		t.Fatal("B never relayed C's REQ to A")
	}
	// B relayed the DATA and therefore caches it (§1: relays may cache).
	if !fx.sys.Has(1, d) {
		t.Fatal("relay B did not cache the data")
	}
	// C's τADV expired exactly once before the multi-hop request.
	if fx.nw.Counters().Timeouts < 1 {
		t.Fatal("expected at least one τADV expiry")
	}
}

// TestSection35Case1 scripts §3.5 Case 1: A(0), r1(1), r2(2), C(3); r2
// fails before acquiring/advertising the data. C's τADV expires, its
// multi-hop REQ dies at r2, τDAT expires, and C requests PRONE r1 directly
// at a higher power level.
func TestSection35Case1(t *testing.T) {
	fx := patientChainFixture(t, 4, dissem.Everyone, 5)
	fx.recordTrace()
	d := packet.DataID{Origin: 0, Seq: 0}
	// Fail r2 immediately: it never requests, never advertises.
	fx.nw.Fail(2)
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 2*time.Second)

	if !fx.sys.Has(3, d) {
		t.Fatal("C never received the data despite failover")
	}
	if fx.nw.Counters().Failovers == 0 {
		t.Fatal("no failover recorded")
	}
	// C's final successful request went directly to r1 (node 1): Dst=1 and
	// Provider=1 from Src=3 at a level spanning 10 m (level 4, not 5).
	var directREQ *packet.Packet
	for i := range fx.events {
		ev := fx.events[i]
		if ev.Kind == network.TraceTx && ev.Packet.Kind == packet.REQ &&
			ev.Packet.Src == 3 && ev.Packet.Dst == 1 && ev.Packet.Provider == 1 {
			directREQ = &fx.events[i].Packet
		}
	}
	if directREQ == nil {
		t.Fatal("C never sent the direct REQ to r1")
	}
	if directREQ.Level != 4 {
		t.Fatalf("direct REQ at level %v, want 4 (higher power for 10 m)", directREQ.Level)
	}
	// And r1 answered with a direct DATA to C.
	sawDirectData := false
	for _, ev := range fx.events {
		if ev.Kind == network.TraceDeliver && ev.Packet.Kind == packet.DATA &&
			ev.Node == 3 && ev.Packet.Src == 1 {
			sawDirectData = true
		}
	}
	if !sawDirectData {
		t.Fatal("r1 did not serve C directly")
	}
}

// TestSection35Case2 scripts §3.5 Case 2: r2 fails after advertising. C
// requests r2 directly (its next-hop neighbor and PRONE), times out, and
// falls over to the SCONE r1 directly.
func TestSection35Case2(t *testing.T) {
	fx := patientChainFixture(t, 4, dissem.Everyone, 6)
	fx.recordTrace()
	d := packet.DataID{Origin: 0, Seq: 0}

	// Let r2 acquire and advertise, then kill it the moment its ADV is on
	// the air (trace callback runs at tx time).
	killed := false
	fx.nw.SetTrace(func(ev network.TraceEvent) {
		fx.events = append(fx.events, ev)
		if !killed && ev.Kind == network.TraceDeliver && ev.Packet.Kind == packet.ADV && ev.Packet.Src == 2 {
			killed = true
			fx.nw.Fail(2)
		}
	})
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 2*time.Second)

	if !killed {
		t.Fatal("test setup: r2 never advertised")
	}
	if !fx.sys.Has(3, d) {
		t.Fatal("C never received the data despite failover")
	}
	// Before the failure, C promoted r2 to PRONE with SCONE r1 — verify the
	// failover REQ went directly to r1.
	sawSconeREQ := false
	for _, ev := range fx.events {
		if ev.Kind == network.TraceTx && ev.Packet.Kind == packet.REQ &&
			ev.Packet.Src == 3 && ev.Packet.Dst == 1 && ev.Packet.Provider == 1 {
			sawSconeREQ = true
		}
	}
	if !sawSconeREQ {
		t.Fatal("C never fell over to SCONE r1")
	}
	if fx.nw.Counters().Failovers == 0 {
		t.Fatal("no failover recorded")
	}
}

func TestProneSconePromotion(t *testing.T) {
	fx := patientChainFixture(t, 3, dissem.Everyone, 7)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	// Stop the run at the instant C has heard both A's and B's ADVs but is
	// still waiting for its data: B's ADV goes out after it gets the data.
	// Poll PRONE state as the run progresses.
	var sawPromotion bool
	var check sim.ArgHandler
	check = func(uint64) {
		prone, scone, ok := fx.sys.Prone(2, d)
		if ok && prone == 1 && scone == 0 {
			sawPromotion = true
		}
		if !fx.sys.Has(2, d) {
			fx.sched.AfterArg(100*time.Microsecond, check, 0)
		}
	}
	fx.sched.AfterArg(100*time.Microsecond, check, 0)
	run(t, fx, time.Second)
	if !sawPromotion {
		t.Fatal("C never promoted B to PRONE with A as SCONE")
	}
	// After delivery the acquisition state is cleared.
	if _, _, ok := fx.sys.Prone(2, d); ok {
		t.Fatal("acquisition state not cleared after delivery")
	}
}

func TestMultiHopUsesMinimumPower(t *testing.T) {
	// On the 5 m chain every protocol hop (REQ/DATA) must use level 5; only
	// ADV broadcasts and failover escalations may use more power.
	fx := chainFixture(t, 5, dissem.Everyone, 8)
	fx.recordTrace()
	if err := fx.sys.Originate(0, packet.DataID{Origin: 0, Seq: 0}); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 2*time.Second)
	for _, ev := range fx.events {
		if ev.Kind != network.TraceTx {
			continue
		}
		switch ev.Packet.Kind {
		case packet.ADV:
			if ev.Packet.Level != radio.MaxPower {
				t.Fatalf("ADV at level %v, want max power", ev.Packet.Level)
			}
		case packet.REQ, packet.DATA:
			if ev.Packet.Level != 5 {
				t.Fatalf("failure-free %v hop at level %v, want 5: %v",
					ev.Packet.Kind, ev.Packet.Level, ev.Packet)
			}
		}
	}
}

func TestFullDisseminationOnGrid(t *testing.T) {
	fx := gridFixture(t, 25, 15, dissem.Everyone, 9)
	d := packet.DataID{Origin: 12, Seq: 0}
	if err := fx.sys.Originate(12, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 5*time.Second)
	for id := 0; id < 25; id++ {
		if !fx.sys.Has(packet.NodeID(id), d) {
			t.Fatalf("node %d never received the data", id)
		}
	}
	if fx.ledger.Deliveries() != 24 {
		t.Fatalf("Deliveries=%d, want 24", fx.ledger.Deliveries())
	}
}

func TestCornerToCornerAcrossZones(t *testing.T) {
	// 7×7 grid with a 12 m zone: corner to corner is far outside one zone,
	// so delivery relies on relay re-advertisement rippling data across.
	fx := gridFixture(t, 49, 12, dissem.Everyone, 10)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 10*time.Second)
	if !fx.sys.Has(48, d) {
		t.Fatal("far corner never received the data")
	}
	if fx.ledger.Deliveries() != 48 {
		t.Fatalf("Deliveries=%d, want 48", fx.ledger.Deliveries())
	}
}

func TestUninterestedNodesServeAsRelays(t *testing.T) {
	// Only the chain's far end wants data; middle nodes must still relay.
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == 3 }
	fx := chainFixture(t, 4, interest, 11)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 2*time.Second)
	if !fx.sys.Has(3, d) {
		t.Fatal("interested node starved")
	}
	if fx.ledger.Deliveries() != 1 {
		t.Fatalf("Deliveries=%d, want 1 (only one interested node)", fx.ledger.Deliveries())
	}
}

func TestSourceFailureAfterNeighborHasData(t *testing.T) {
	// §3.4 tolerance claim 1: the source may die once any zone neighbor
	// holds the data; the rest of the network still gets it.
	fx := chainFixture(t, 4, dissem.Everyone, 12)
	d := packet.DataID{Origin: 0, Seq: 0}
	killed := false
	fx.nw.SetTrace(func(ev network.TraceEvent) {
		// Kill A as soon as r1 (node 1) has received the DATA.
		if !killed && ev.Kind == network.TraceDeliver && ev.Packet.Kind == packet.DATA && ev.Node == 1 {
			killed = true
			fx.nw.Fail(0)
		}
	})
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 3*time.Second)
	if !killed {
		t.Fatal("test setup: node 1 never received data")
	}
	for id := 1; id < 4; id++ {
		if !fx.sys.Has(packet.NodeID(id), d) {
			t.Fatalf("node %d starved after source failure", id)
		}
	}
}

func TestTransientFailureRecoveryServesCache(t *testing.T) {
	// A node that held data, failed, and recovered still serves it: the
	// cache survives transient failures.
	fx := chainFixture(t, 3, dissem.Everyone, 13)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, time.Second)
	if !fx.sys.Has(1, d) {
		t.Fatal("setup: B lacks data")
	}
	fx.nw.Fail(1)
	fx.nw.Recover(1)
	if !fx.sys.Has(1, d) {
		t.Fatal("cache lost across transient failure")
	}
}

func TestSetTables(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 14)
	fresh := routing.ComputeWorkers(routing.BuildGraphWorkers(fx.field, 1), 2, 1)
	fx.sys.SetTables(fresh)
	if fx.sys.Tables() != fresh {
		t.Fatal("SetTables did not swap tables")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetTables(nil) should panic")
		}
	}()
	fx.sys.SetTables(nil)
}

func TestAutoTimeoutsScaleWithHops(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 15)
	if got, want := fx.sys.tauDAT(3), fx.sys.tauDAT(1); got <= want {
		t.Fatalf("tauDAT(3)=%v not > tauDAT(1)=%v", got, want)
	}
	if fx.sys.tauADV() != fx.sys.cfg.TOutADV {
		t.Fatal("τADV must stay at the tight base value (see Config doc)")
	}
	// Fixed timeouts return the configured constants.
	cfg := DefaultConfig()
	cfg.AutoTimeouts = false
	f, err := topo.NewChainField(3, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	fixed := buildFixture(t, f, dissem.Everyone, cfg, 15)
	if fixed.sys.tauADV() != DefaultTOutADV {
		t.Fatalf("fixed tauADV=%v, want %v", fixed.sys.tauADV(), DefaultTOutADV)
	}
	if fixed.sys.tauDAT(7) != DefaultTOutDAT {
		t.Fatalf("fixed tauDAT=%v, want %v", fixed.sys.tauDAT(7), DefaultTOutDAT)
	}
}

func TestMaxAttemptsBoundsRequests(t *testing.T) {
	// Kill every possible provider: C can never get data, and its REQ count
	// must stay within MaxAttempts.
	fx := chainFixture(t, 3, dissem.Everyone, 16)
	fx.recordTrace()
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	// Fail A and B right after the initial ADV leaves A.
	fx.sched.AfterArg(50*time.Millisecond, func(uint64) {
		fx.nw.Fail(0)
		fx.nw.Fail(1)
	}, 0)
	run(t, fx, 10*time.Second)
	reqs := 0
	for _, ev := range fx.events {
		if ev.Kind == network.TraceTx && ev.Packet.Kind == packet.REQ && ev.Packet.Src == 2 {
			reqs++
		}
	}
	if reqs > fx.sys.Config().MaxAttempts {
		t.Fatalf("C sent %d REQs, budget %d", reqs, fx.sys.Config().MaxAttempts)
	}
}

func TestDeterministicRuns(t *testing.T) {
	results := make([]time.Duration, 2)
	deliveries := make([]int, 2)
	for i := range results {
		fx := gridFixture(t, 25, 15, dissem.Everyone, 77)
		if err := fx.sys.Originate(12, packet.DataID{Origin: 12, Seq: 0}); err != nil {
			t.Fatalf("Originate: %v", err)
		}
		run(t, fx, 3*time.Second)
		results[i] = fx.ledger.Delays().Mean()
		deliveries[i] = fx.ledger.Deliveries()
	}
	if results[0] != results[1] || deliveries[0] != deliveries[1] {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", results[0], deliveries[0], results[1], deliveries[1])
	}
}

func TestHooksPanicOutOfRange(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 1)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Has", func() { fx.sys.Has(99, packet.DataID{}) }},
		{"Prone", func() { fx.sys.Prone(-1, packet.DataID{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}
