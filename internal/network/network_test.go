package network

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// recorder is the tests' Receiver. It logs every batch with the time it
// ran and, per node, the packets handled; a quiet recorder logs nothing,
// so it allocates nothing. react, when set, runs for each receiver of a
// batch in order, for handlers that Send.
type recorder struct {
	sched   *sim.Scheduler
	quiet   bool
	got     [][]packet.Packet
	batches []batch
	react   func(p packet.Packet, id packet.NodeID)
}

// batch is one HandleBatch call: the packet, a copy of to, and the time.
type batch struct {
	p  packet.Packet
	to []packet.NodeID
	at time.Duration
}

// handling is one node's share of a batch: which node handled which
// packet, when.
type handling struct {
	node packet.NodeID
	seq  int
	at   time.Duration
}

func newRecorder(sched *sim.Scheduler, nodes int) *recorder {
	return &recorder{sched: sched, got: make([][]packet.Packet, nodes)}
}

func (r *recorder) HandleBatch(p packet.Packet, to []packet.NodeID) {
	if !r.quiet {
		r.batches = append(r.batches, batch{p: p, to: slices.Clone(to), at: r.sched.Now()})
	}
	for _, id := range to {
		if !r.quiet {
			r.got[id] = append(r.got[id], p)
		}
		if r.react != nil {
			r.react(p, id)
		}
	}
}

// calls flattens the batch log into one handling per receiver, in the
// order the receivers were handed to the protocol.
func (r *recorder) calls() []handling {
	var out []handling
	for _, b := range r.batches {
		for _, id := range b.to {
			out = append(out, handling{node: id, seq: b.p.Meta.Seq, at: b.at})
		}
	}
	return out
}

// times returns when node id handled each of its packets.
func (r *recorder) times(id packet.NodeID) []time.Duration {
	var out []time.Duration
	for _, c := range r.calls() {
		if c.node == id {
			out = append(out, c.at)
		}
	}
	return out
}

type fixture struct {
	sched *sim.Scheduler
	nw    *Network
	rec   *recorder
}

// newFixture builds a 3-node chain, 5 m apart, MICA2 radio, zero-backoff MAC
// for exact-delay assertions (G=0.01 retained).
func newFixture(t *testing.T, macCfg mac.Config) *fixture {
	t.Helper()
	sched := sim.NewScheduler()
	f, err := topo.NewChainField(3, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	nw, err := New(sched, f, sim.NewRNG(1), Config{Sizes: packet.DefaultSizes(), MAC: macCfg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := newRecorder(sched, 3)
	nw.Bind(rec)
	return &fixture{sched: sched, nw: nw, rec: rec}
}

func noBackoff() mac.Config {
	return mac.Config{G: 0.01, SlotTime: 0, NumSlots: 0}
}

func TestNewValidation(t *testing.T) {
	sched := sim.NewScheduler()
	f, err := topo.NewChainField(2, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	rng := sim.NewRNG(1)
	if _, err := New(nil, f, rng, DefaultConfig()); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := New(sched, nil, rng, DefaultConfig()); err == nil {
		t.Fatal("nil field accepted")
	}
	if _, err := New(sched, f, nil, DefaultConfig()); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := DefaultConfig()
	bad.Sizes.ADV = 0
	if _, err := New(sched, f, rng, bad); err == nil {
		t.Fatal("invalid sizes accepted")
	}
	bad2 := DefaultConfig()
	bad2.MAC.G = -1
	if _, err := New(sched, f, rng, bad2); err == nil {
		t.Fatal("invalid MAC config accepted")
	}
}

func TestUnicastDelivery(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.got[1]) != 1 {
		t.Fatalf("node 1 got %d packets, want 1", len(fx.rec.got[1]))
	}
	if len(fx.rec.got[0]) != 0 || len(fx.rec.got[2]) != 0 {
		t.Fatal("unicast leaked to other nodes")
	}
	got := fx.rec.got[1][0]
	if got.Kind != packet.REQ || got.Bytes != 2 {
		t.Fatalf("delivered packet %v; want REQ with 2 bytes", got)
	}
}

func TestUnicastTiming(t *testing.T) {
	fx := newFixture(t, noBackoff())
	// Node 0 at min power (5.48 m) reaches node 1 only: contenders = 2.
	// Access delay = 0.01·4 = 0.04 ms; DATA airtime = 40 B × 0.05 ms = 2 ms.
	var deliveredAt time.Duration
	fx.nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			deliveredAt = fx.sched.Now()
		}
	})
	fx.nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	want := 40*time.Microsecond + 2*time.Millisecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestBroadcastReachesLevelRange(t *testing.T) {
	fx := newFixture(t, noBackoff())
	// Level 4 (11.28 m) from node 0 reaches nodes 1 (5 m) and 2 (10 m).
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 0, Dst: packet.Broadcast, Level: 4})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.got[1]) != 1 || len(fx.rec.got[2]) != 1 {
		t.Fatalf("broadcast deliveries = %d/%d, want 1/1", len(fx.rec.got[1]), len(fx.rec.got[2]))
	}
	// At level 5 (5.48 m) only node 1 is reachable.
	fx2 := newFixture(t, noBackoff())
	fx2.nw.Send(packet.Packet{Kind: packet.ADV, Src: 0, Dst: packet.Broadcast, Level: 5})
	if err := fx2.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx2.rec.got[1]) != 1 || len(fx2.rec.got[2]) != 0 {
		t.Fatal("level-5 broadcast should reach only node 1")
	}
}

func TestEnergyAccounting(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	m := radio.MICA2()
	wantTx := m.TxEnergy(40, 5)
	wantRx := m.RxEnergy(40)
	if got := fx.nw.Energy().Node(0).Tx; got != wantTx {
		t.Fatalf("sender tx energy %v, want %v", got, wantTx)
	}
	if got := fx.nw.Energy().Node(1).Rx; got != wantRx {
		t.Fatalf("receiver rx energy %v, want %v", got, wantRx)
	}
	if got := fx.nw.Energy().Node(2).Total(); got != 0 {
		t.Fatalf("bystander charged %v", got)
	}
}

func TestBroadcastChargesAllReceivers(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 0, Dst: packet.Broadcast, Level: 1})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	m := radio.MICA2()
	for _, id := range []packet.NodeID{1, 2} {
		if got := fx.nw.Energy().Node(id).Rx; got != m.RxEnergy(2) {
			t.Fatalf("node %d rx=%v, want %v", id, got, m.RxEnergy(2))
		}
	}
}

func TestDeadSenderDrops(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Fail(0)
	fx.nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.got[1]) != 0 {
		t.Fatal("dead sender delivered a packet")
	}
	if fx.nw.Counters().Drops != 1 {
		t.Fatalf("Drops=%d, want 1", fx.nw.Counters().Drops)
	}
	if fx.nw.Energy().Total() != 0 {
		t.Fatal("dead sender was charged energy")
	}
}

func TestSenderFailsMidTransmission(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 1, Level: 5})
	// Kill the sender while the frame is in the air (airtime ≈ 2.04 ms).
	fx.sched.AfterArg(time.Millisecond, func(uint64) { fx.nw.Fail(0) }, 0)
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.got[1]) != 0 {
		t.Fatal("packet delivered despite sender failing mid-tx")
	}
	if fx.nw.Energy().Node(0).Tx != 0 {
		t.Fatal("cancelled transmission was charged")
	}
}

func TestDeadReceiverDrops(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Fail(1)
	fx.nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.got[1]) != 0 {
		t.Fatal("dead receiver handled a packet")
	}
	// Sender still spent the tx energy (it doesn't know the peer is down).
	if fx.nw.Energy().Node(0).Tx == 0 {
		t.Fatal("sender should be charged for the attempt")
	}
	if fx.nw.Energy().Node(1).Rx != 0 {
		t.Fatal("dead receiver was charged rx energy")
	}
}

func TestRecoveryRestoresDelivery(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Fail(1)
	fx.nw.Recover(1)
	fx.nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.got[1]) != 1 {
		t.Fatal("recovered node did not receive")
	}
}

func TestOutOfRangeUnicastDrops(t *testing.T) {
	fx := newFixture(t, noBackoff())
	// Node 2 is 10 m away; level 5 reaches 5.48 m.
	fx.nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 2, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.got[2]) != 0 {
		t.Fatal("out-of-range unicast delivered")
	}
	if fx.nw.Counters().Drops != 1 {
		t.Fatalf("Drops=%d, want 1", fx.nw.Counters().Drops)
	}
}

func TestBroadcastSkipsDeadNodes(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Fail(1)
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 0, Dst: packet.Broadcast, Level: 1})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(fx.rec.got[1]) != 0 {
		t.Fatal("dead node received broadcast")
	}
	if len(fx.rec.got[2]) != 1 {
		t.Fatal("alive node missed broadcast")
	}
}

func TestCountersTrackSends(t *testing.T) {
	fx := newFixture(t, noBackoff())
	fx.nw.Send(packet.Packet{Kind: packet.ADV, Src: 0, Dst: packet.Broadcast, Level: 1})
	fx.nw.Send(packet.Packet{Kind: packet.REQ, Src: 1, Dst: 0, Level: 5})
	fx.nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	c := fx.nw.Counters()
	if c.Sent[packet.ADV] != 1 || c.Sent[packet.REQ] != 1 || c.Sent[packet.DATA] != 1 {
		t.Fatalf("Sent=%v", c.Sent)
	}
	if c.TotalSent() != 3 {
		t.Fatalf("TotalSent=%d, want 3", c.TotalSent())
	}
}

func TestTraceEvents(t *testing.T) {
	fx := newFixture(t, noBackoff())
	var events []TraceEvent
	fx.nw.SetTrace(func(ev TraceEvent) { events = append(events, ev) })
	fx.nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d trace events, want tx+deliver", len(events))
	}
	if events[0].Kind != TraceTx || events[1].Kind != TraceDeliver {
		t.Fatalf("trace order wrong: %v, %v", events[0].Kind, events[1].Kind)
	}
	fx.nw.SetTrace(nil) // must not panic afterwards
	fx.nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 1, Level: 5})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
}

func TestEnergyConservation(t *testing.T) {
	// Property: the account's total energy equals the sum, over trace
	// events, of the model's per-event energies — no double counting, no
	// leaks. Drive a random mix of unicasts and broadcasts.
	sched := sim.NewScheduler()
	f, err := topo.NewChainField(5, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	nw, err := New(sched, f, sim.NewRNG(9), DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.Bind(newRecorder(sched, 5))
	m := f.Model()
	// Rx side: sum the model's receive energy over delivery trace events.
	var expected float64
	nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			expected += float64(m.RxEnergy(ev.Packet.Bytes))
		}
	})
	// Tx side: every send completes (all nodes stay alive), so the Tx sum
	// must equal the per-send model energies exactly.
	rng := sim.NewRNG(10)
	type sent struct {
		bytes int
		level radio.Level
	}
	var sends []sent
	for i := 0; i < 200; i++ {
		src := packet.NodeID(rng.Intn(5))
		kind := packet.REQ
		if rng.Bool(0.3) {
			kind = packet.DATA
		}
		p := packet.Packet{Kind: kind, Src: src, Level: radio.Level(1 + rng.Intn(5))}
		if rng.Bool(0.5) {
			p.Dst = packet.Broadcast
		} else {
			p.Dst = packet.NodeID(rng.Intn(5))
			if p.Dst == src {
				p.Dst = (p.Dst + 1) % 5
			}
		}
		nw.Send(p)
		sends = append(sends, sent{bytes: nw.Sizes().Of(kind), level: p.Level})
	}
	if err := sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	var expectedTx float64
	for _, s := range sends {
		expectedTx += float64(m.TxEnergy(s.bytes, s.level))
	}
	gotTx := float64(nw.Energy().TotalBreakdown().Tx)
	if diff := gotTx - expectedTx; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("tx energy %v, expected %v (all senders alive)", gotTx, expectedTx)
	}
	gotRx := float64(nw.Energy().TotalBreakdown().Rx)
	if diff := gotRx - expected; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("rx energy %v, trace-derived %v", gotRx, expected)
	}
	if nw.Energy().TotalBreakdown().Ctrl != 0 {
		t.Fatal("no control traffic was sent")
	}
}

func TestFaultTargetInterface(t *testing.T) {
	fx := newFixture(t, noBackoff())
	var target fault.Target = fx.nw
	if target.N() != 3 {
		t.Fatalf("N=%d, want 3", target.N())
	}
	if !target.Alive(0) {
		t.Fatal("nodes must start alive")
	}
	target.Fail(0)
	if target.Alive(0) {
		t.Fatal("Fail did not take")
	}
	target.Recover(0)
	if !target.Alive(0) {
		t.Fatal("Recover did not take")
	}
}

func TestUnboundReceiverPanics(t *testing.T) {
	sched := sim.NewScheduler()
	f, err := topo.NewChainField(2, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	nw, err := New(sched, f, sim.NewRNG(1), Config{Sizes: packet.DefaultSizes(), MAC: noBackoff()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 1, Level: 5})
	defer func() {
		if r := recover(); r != "network: no receiver bound" {
			t.Fatalf("batch with no receiver bound: recovered %v, want the no-receiver panic", r)
		}
	}()
	_ = sched.RunUntilIdle(0)
}

func TestBindValidation(t *testing.T) {
	fx := newFixture(t, noBackoff())
	defer func() {
		if recover() == nil {
			t.Fatal("nil receiver should panic")
		}
	}()
	fx.nw.Bind(nil)
}

func TestCarrierSenseSerializesOverlappingTransmissions(t *testing.T) {
	// Two max-power DATA sends from the same node: with carrier sense the
	// second must start after the first frame ends, so the deliveries are
	// at least one DATA airtime (2 ms) apart.
	sched := sim.NewScheduler()
	f, err := topo.NewChainField(3, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	cfg := Config{Sizes: packet.DefaultSizes(), MAC: noBackoff(), CarrierSense: true}
	nw, err := New(sched, f, sim.NewRNG(1), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.Bind(newRecorder(sched, 3))
	var deliveries []time.Duration
	nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			deliveries = append(deliveries, sched.Now())
		}
	})
	nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 1, Level: 1})
	nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 2, Level: 1})
	if err := sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(deliveries) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(deliveries))
	}
	gap := deliveries[1] - deliveries[0]
	if gap < 2*time.Millisecond {
		t.Fatalf("deliveries %v apart; carrier sense should serialize by ≥ one 2ms airtime", gap)
	}
}

func TestCarrierSenseSpatialReuse(t *testing.T) {
	// Two low-power transmissions in disjoint neighborhoods must NOT
	// serialize: node 0→1 and node 3→4 on a chain where min power (5.48 m)
	// keeps the reservations disjoint.
	sched := sim.NewScheduler()
	f, err := topo.NewChainField(5, 5, radio.MICA2())
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	// Zero-delay MAC so any delivery-time difference can only come from
	// channel serialization.
	cfg := Config{Sizes: packet.DefaultSizes(), MAC: mac.Config{}, CarrierSense: true}
	nw, err := New(sched, f, sim.NewRNG(1), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.Bind(newRecorder(sched, 5))
	var deliveries []time.Duration
	nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			deliveries = append(deliveries, sched.Now())
		}
	})
	nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 1, Level: 5})
	nw.Send(packet.Packet{Kind: packet.DATA, Src: 3, Dst: 4, Level: 5})
	if err := sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(deliveries) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(deliveries))
	}
	if gap := deliveries[1] - deliveries[0]; gap != 0 {
		t.Fatalf("disjoint low-power transmissions serialized by %v; spatial reuse broken", gap)
	}
}

func TestCarrierSenseOffByDefault(t *testing.T) {
	fx := newFixture(t, noBackoff())
	var deliveries []time.Duration
	fx.nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			deliveries = append(deliveries, fx.sched.Now())
		}
	})
	fx.nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 1, Level: 1})
	fx.nw.Send(packet.Packet{Kind: packet.DATA, Src: 0, Dst: 2, Level: 1})
	if err := fx.sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(deliveries) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(deliveries))
	}
	if gap := deliveries[1] - deliveries[0]; gap != 0 {
		t.Fatalf("without carrier sense, concurrent sends should overlap (gap %v)", gap)
	}
}

func TestBackoffVariesWithRNG(t *testing.T) {
	// With the full Table 1 MAC, delivery times should vary across seeds.
	times := map[time.Duration]bool{}
	for seed := int64(0); seed < 8; seed++ {
		sched := sim.NewScheduler()
		f, err := topo.NewChainField(3, 5, radio.MICA2())
		if err != nil {
			t.Fatalf("NewChainField: %v", err)
		}
		nw, err := New(sched, f, sim.NewRNG(seed), DefaultConfig())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		nw.Bind(newRecorder(sched, 3))
		var at time.Duration
		nw.SetTrace(func(ev TraceEvent) {
			if ev.Kind == TraceDeliver {
				at = sched.Now()
			}
		})
		nw.Send(packet.Packet{Kind: packet.REQ, Src: 0, Dst: 1, Level: 5})
		if err := sched.RunUntilIdle(0); err != nil {
			t.Fatalf("RunUntilIdle: %v", err)
		}
		times[at] = true
	}
	if len(times) < 2 {
		t.Fatal("backoff produced identical delays across 8 seeds")
	}
}
