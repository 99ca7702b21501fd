package core

import (
	"testing"
	"time"

	"repro/internal/dissem"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/topo"
)

// stripFixture builds a long, narrow field: a chain of n nodes 5 m apart
// with a 12 m zone (each node sees only ±2 neighbors), so the two ends are
// several zones apart and an end-to-end pull must cross zones. With
// 12 nodes the span is within the default query horizon; 20 nodes exceeds
// it (used by the horizon test).
func stripFixture(t *testing.T, n int, interest dissem.Interest, seed int64) *fixture {
	t.Helper()
	m, err := radio.ScaledMICA2(12)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewChainField(n, 5, m)
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	return buildFixture(t, f, interest, DefaultConfig(), seed)
}

func TestQueryValidation(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 1)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Query(99, d); err == nil {
		t.Fatal("out-of-range requester accepted")
	}
	fx.nw.Fail(2)
	if err := fx.sys.Query(2, d); err == nil {
		t.Fatal("dead requester accepted")
	}
}

func TestQueryAlreadyHeldIsNoop(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 2)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, time.Second)
	sent := fx.nw.Counters().TotalSent()
	if err := fx.sys.Query(2, d); err != nil {
		t.Fatalf("Query: %v", err)
	}
	run(t, fx, 2*time.Second)
	if got := fx.nw.Counters().TotalSent(); got != sent {
		t.Fatalf("query for held data transmitted %d packets", got-sent)
	}
}

func TestQueryWithinZoneUsesRoutedREQ(t *testing.T) {
	// Nobody is interested, so the data sits at the source. A same-zone
	// query must pull it via the normal multi-hop REQ path (no QRY frames).
	nobody := func(packet.NodeID, packet.DataID) bool { return false }
	fx := chainFixture(t, 3, nobody, 3)
	fx.recordTrace()
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 100*time.Millisecond)
	if err := fx.sys.Query(2, d); err != nil {
		t.Fatalf("Query: %v", err)
	}
	run(t, fx, time.Second)
	if !fx.sys.Has(2, d) {
		t.Fatal("in-zone query did not deliver")
	}
	for _, ev := range fx.events {
		if ev.Kind == network.TraceTx && ev.Packet.Kind == packet.QRY {
			t.Fatal("in-zone query used bordercast instead of routed REQ")
		}
	}
}

func TestQueryAcrossZonesDelivers(t *testing.T) {
	// Only the far end wants the data, it is several zones away, and no
	// intermediate node requests it: plain SPMS leaves the far end starved
	// (the §6 motivation); Query recovers it.
	far := packet.NodeID(11)
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == far }
	fx := stripFixture(t, 12, interest, 4)
	fx.recordTrace()
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 300*time.Millisecond)
	if fx.sys.Has(far, d) {
		t.Fatal("setup broken: far node already has the data without a query")
	}

	if err := fx.sys.Query(far, d); err != nil {
		t.Fatalf("Query: %v", err)
	}
	run(t, fx, 5*time.Second)
	if !fx.sys.Has(far, d) {
		t.Fatal("cross-zone query never delivered")
	}
	// The pull must have used QRY frames.
	sawQRY := false
	for _, ev := range fx.events {
		if ev.Kind == network.TraceTx && ev.Packet.Kind == packet.QRY {
			sawQRY = true
			break
		}
	}
	if !sawQRY {
		t.Fatal("cross-zone delivery happened without any QRY")
	}
}

func TestQueryCheaperThanFlooding(t *testing.T) {
	// Bordercast prunes the search: the number of QRY transmissions must be
	// well below one-per-node-per-query (what flooding the query would
	// cost). Chain topology: at most 2 border directions per node.
	far := packet.NodeID(11)
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == far }
	fx := stripFixture(t, 12, interest, 5)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 300*time.Millisecond)
	if err := fx.sys.Query(far, d); err != nil {
		t.Fatalf("Query: %v", err)
	}
	run(t, fx, 5*time.Second)
	if !fx.sys.Has(far, d) {
		t.Fatal("query failed")
	}
	qry := fx.nw.Counters().Sent[packet.QRY]
	if qry == 0 {
		t.Fatal("no QRY sent")
	}
	// 12 nodes; flooding would visit every node per attempt. The bordercast
	// should stay within a small multiple of the chain length.
	if qry > 30 {
		t.Fatalf("QRY count %d suggests flooding, not bordercast", qry)
	}
}

func TestQueryDuplicateSuppression(t *testing.T) {
	// Issuing the same query twice while one is in flight must not spawn a
	// second bordercast: the requester's first-hop QRY count stays within
	// one fanout burst (at most 2 border directions on a chain end).
	far := packet.NodeID(11)
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == far }
	fx := stripFixture(t, 12, interest, 6)
	fx.recordTrace()
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 200*time.Millisecond)
	if err := fx.sys.Query(far, d); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if err := fx.sys.Query(far, d); err != nil {
		t.Fatalf("second Query: %v", err)
	}
	run(t, fx, fx.sched.Now()+10*time.Millisecond)
	fromRequester := 0
	for _, ev := range fx.events {
		if ev.Kind == network.TraceTx && ev.Packet.Kind == packet.QRY && ev.Packet.Src == far {
			fromRequester++
		}
	}
	if fromRequester == 0 {
		t.Fatal("no first-hop QRY at all")
	}
	if fromRequester > 2 {
		t.Fatalf("%d first-hop QRYs; duplicate query burst not suppressed", fromRequester)
	}
}

func TestQueryRetriesAfterTrailFailure(t *testing.T) {
	// Kill a mid-strip node so the first query (or its reply) dies; the
	// retry must find another border path (fanout explores both the near
	// and far ring) or re-issue until delivery.
	far := packet.NodeID(11)
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == far }
	fx := stripFixture(t, 12, interest, 7)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 200*time.Millisecond)
	// A transient failure window on node 6 (mid-strip).
	fx.nw.Fail(6)
	fx.sched.AfterArg(300*time.Millisecond, func(uint64) { fx.nw.Recover(6) }, 0)
	if err := fx.sys.Query(far, d); err != nil {
		t.Fatalf("Query: %v", err)
	}
	run(t, fx, 20*time.Second)
	if !fx.sys.Has(far, d) {
		t.Fatal("query never recovered from trail failure")
	}
}

func TestQueryHorizonBounds(t *testing.T) {
	// With a horizon of 1 zone, the far end is unreachable; the query gives
	// up after MaxAttempts without flooding forever.
	far := packet.NodeID(19)
	interest := func(id packet.NodeID, d packet.DataID) bool { return id == far }
	m, err := radio.ScaledMICA2(12)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewChainField(20, 5, m)
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	cfg := DefaultConfig()
	cfg.QueryHorizon = 1
	fx := buildFixture(t, f, interest, cfg, 8)
	d := packet.DataID{Origin: 0, Seq: 0}
	if err := fx.sys.Originate(0, d); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	run(t, fx, 200*time.Millisecond)
	if err := fx.sys.Query(far, d); err != nil {
		t.Fatalf("Query: %v", err)
	}
	run(t, fx, 30*time.Second)
	if fx.sys.Has(far, d) {
		t.Fatal("data crossed more zones than the horizon allows")
	}
	// Bounded retries: QRY traffic stops.
	qry := fx.nw.Counters().Sent[packet.QRY]
	run(t, fx, 40*time.Second)
	if got := fx.nw.Counters().Sent[packet.QRY]; got != qry {
		t.Fatalf("QRY traffic still flowing after giving up: %d → %d", qry, got)
	}
}

func TestQueryConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryHorizon = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative QueryHorizon accepted")
	}
	cfg = DefaultConfig()
	cfg.BorderFanout = -2
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative BorderFanout accepted")
	}
}

func TestQueryDefaultsApplied(t *testing.T) {
	fx := chainFixture(t, 3, dissem.Everyone, 9)
	if fx.sys.Config().QueryHorizon != DefaultQueryHorizon {
		t.Fatalf("QueryHorizon=%d, want default", fx.sys.Config().QueryHorizon)
	}
	if fx.sys.Config().BorderFanout != DefaultBorderFanout {
		t.Fatalf("BorderFanout=%d, want default", fx.sys.Config().BorderFanout)
	}
}

func TestQueryUnoriginatedItemKeepsInFlightDedup(t *testing.T) {
	// An item that was never originated has no ledger index; its
	// acquisition state lives in the want overflow map. Two back-to-back
	// queries for it must behave like the DataID-keyed implementation did:
	// the second sees the outstanding τDAT and sends nothing new.
	fx := chainFixture(t, 3, dissem.Everyone, 31)
	d := packet.DataID{Origin: 0, Seq: 7} // never originated
	if err := fx.sys.Query(2, d); err != nil {
		t.Fatalf("Query: %v", err)
	}
	sent := fx.nw.Counters().Sent[packet.REQ]
	if sent == 0 {
		t.Fatal("first query for an in-zone origin sent no REQ")
	}
	if err := fx.sys.Query(2, d); err != nil {
		t.Fatalf("second Query: %v", err)
	}
	if got := fx.nw.Counters().Sent[packet.REQ]; got != sent {
		t.Fatalf("second query re-sent a REQ while one was in flight (%d -> %d)", sent, got)
	}
}
