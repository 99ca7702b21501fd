// Package spin implements the SPIN baseline (Sensor Protocols for
// Information via Negotiation, Heinzelman/Kulik/Balakrishnan) as the paper
// describes it in §3.1: a three-stage ADV → REQ → DATA metadata negotiation
// in which every transmission happens at the single maximum power level.
//
// Each node that acquires a new data item advertises it once to its
// neighborhood (the SPIN-BC pattern), which is how data ripples across
// zones. SPIN keeps no routes and has no explicit failure handling; the
// liveness it retains under failures comes from re-requesting when a later
// advertisement for still-missing data is heard (§5.1.2's F-SPIN).
package spin

import (
	"fmt"
	"time"

	"repro/internal/dissem"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Config holds SPIN's (few) knobs.
type Config struct {
	// Proc is the per-packet processing delay (Table 1: 0.02 ms).
	Proc time.Duration
	// PendingTimeout is how long an outstanding REQ suppresses re-requesting
	// the same data. Zero derives it from the radio and MAC models: the
	// expected ADV→REQ→DATA exchange time at maximum power plus slack.
	PendingTimeout time.Duration
}

// DefaultConfig returns Table 1 parameters with a derived pending timeout.
func DefaultConfig() Config {
	return Config{Proc: network.DefaultProc}
}

// System is one SPIN network: the per-node protocol instances plus shared
// bookkeeping.
type System struct {
	nw       *network.Network
	ledger   *dissem.Ledger
	interest dissem.Interest
	cfg      Config
	// nodes[i] is node i's instance, nil until a packet or an origination
	// first reaches the node (instance).
	nodes []*node

	// pendingFn is the pending-timer handler, bound once so arming a
	// timer allocates nothing; its argument is node<<32 | item.
	pendingFn sim.ArgHandler
}

var (
	_ dissem.Protocol  = (*System)(nil)
	_ network.Receiver = (*System)(nil)
)

// NewSystem builds a SPIN system and binds it to the network.
func NewSystem(nw *network.Network, ledger *dissem.Ledger, interest dissem.Interest, cfg Config) (*System, error) {
	if nw == nil || ledger == nil || interest == nil {
		return nil, fmt.Errorf("spin: nil dependency (nw=%v ledger=%v interest=%v)",
			nw != nil, ledger != nil, interest != nil)
	}
	if cfg.Proc < 0 {
		return nil, fmt.Errorf("spin: negative processing delay %v", cfg.Proc)
	}
	if cfg.PendingTimeout < 0 {
		return nil, fmt.Errorf("spin: negative pending timeout %v", cfg.PendingTimeout)
	}
	if cfg.PendingTimeout == 0 {
		cfg.PendingTimeout = derivePendingTimeout(nw, cfg.Proc)
	}
	s := &System{nw: nw, ledger: ledger, interest: interest, cfg: cfg}
	s.pendingFn = s.onPendingExpired
	nw.SetProcessingDelay(cfg.Proc)
	// Instances are created on first touch, not here: on a large field a
	// SPIN run reaches a fraction of the nodes (under a fifth of 10⁵ in
	// the clustered scale workload), so setup pays a pointer per node.
	// SPMS and flooding keep contiguous arrays because every node of their
	// runs is touched: flooding reaches every node, and SPMS's all-pairs
	// route tables keep its fields at about 10³ nodes at most.
	s.nodes = make([]*node, nw.N())
	nw.Bind(s)
	return s, nil
}

// derivePendingTimeout estimates the worst-case REQ→DATA turnaround at
// maximum power: two channel accesses at the max-power contender count
// (with full backoff), the REQ and DATA airtimes, and two processing
// delays — doubled for slack.
func derivePendingTimeout(nw *network.Network, proc time.Duration) time.Duration {
	f := nw.Field()
	m := f.Model()
	// A count-only pass: building every node's neighbor cache just to read
	// one integer would dominate setup on large fields, where the event
	// loop later queries only the caches it touches.
	maxContenders := f.MaxContenders(radio.MaxPower)
	// The network does not expose its CSMA instance, so the full-window
	// backoff bound is not available here. Use a conservative closed form
	// instead: the Table 1 MAC's G·n² term (G = 0.01 ms) dominates, and
	// reconstructing it here keeps spin decoupled from mac.
	const gMS = 0.01
	access := time.Duration(gMS * float64(maxContenders) * float64(maxContenders) * float64(time.Millisecond))
	sz := nw.Sizes()
	rtt := 2*access + m.TxTime(sz.REQ) + m.TxTime(sz.DATA) + 2*proc
	return 2 * rtt
}

// Config returns the effective configuration (with derived defaults).
func (s *System) Config() Config { return s.cfg }

// Originate implements dissem.Protocol: node src has sensed new data d and
// advertises it to its neighborhood at maximum power.
func (s *System) Originate(src packet.NodeID, d packet.DataID) error {
	if src != d.Origin {
		return fmt.Errorf("spin: originate %v at wrong node %d", d, src)
	}
	if int(src) >= len(s.nodes) || src < 0 {
		return fmt.Errorf("spin: origin node %d out of range", src)
	}
	if !s.nw.Alive(src) {
		return fmt.Errorf("spin: origin node %d is down", src)
	}
	if err := s.ledger.Originate(d, s.nw.Scheduler().Now()); err != nil {
		return err
	}
	n := s.instance(src)
	it := s.ledger.Index(d)
	n.setHas(it)
	n.advertise(d, it)
	return nil
}

// instance returns node id's protocol instance, creating it on first use.
func (s *System) instance(id packet.NodeID) *node {
	n := s.nodes[id]
	if n == nil {
		n = &node{sys: s, id: id}
		s.nodes[id] = n
	}
	return n
}

// node is one SPIN protocol instance. Per-item state lives in flat slices
// indexed by the ledger's dense item index (dissem.Ledger.Index), resolved
// once per packet — see the matching layout in internal/core. The zero
// sim.Timer is inert, and both ends of a pending window — expiry and DATA —
// zero the handle, so a non-zero pending[it] is itself the "request
// outstanding" state: no occupancy flag, and no scheduler read per ADV.
type node struct {
	sys        *System
	id         packet.NodeID
	has        []bool
	advertised []bool
	pending    []sim.Timer
}

// hasItem reports whether this node holds item it.
func (n *node) hasItem(it int) bool { return it >= 0 && it < len(n.has) && n.has[it] }

// grow extends the per-item slices to cover item it.
func (n *node) grow(it int) {
	if it < len(n.has) {
		return
	}
	l := n.sys.ledger
	n.has = dissem.GrowItems(n.has, it, l)
	n.advertised = dissem.GrowItems(n.advertised, it, l)
	n.pending = dissem.GrowItems(n.pending, it, l)
}

// setHas marks item it as held (no-op for unregistered items, which can
// never be advertised or delivered).
func (n *node) setHas(it int) {
	if it < 0 {
		return
	}
	n.grow(it)
	n.has[it] = true
}

// HandleBatch implements network.Receiver: it runs the protocol reaction
// to p at every node in to. The paper's explicit Tproc term ("this
// eliminates the unrealistic simplification in the SPIN simulations where
// the data is taken to be processed instantaneously") is applied by the
// network's batched dispatch (SetProcessingDelay in NewSystem), which also
// drops receivers that failed before processing. The item index and the
// kind are resolved once per batch, as in internal/core.
func (s *System) HandleBatch(p packet.Packet, to []packet.NodeID) {
	it := s.ledger.Index(p.Meta)
	switch p.Kind {
	case packet.ADV:
		for _, id := range to {
			s.instance(id).onADV(&p, it)
		}
	case packet.REQ:
		for _, id := range to {
			s.instance(id).onREQ(&p, it)
		}
	case packet.DATA:
		for _, id := range to {
			s.instance(id).onDATA(&p, it)
		}
	default:
		// SPIN has no other traffic; CTRL packets would indicate a
		// miswired experiment.
		panic(fmt.Sprintf("spin: node %d received unexpected %v", to[0], p.Kind))
	}
}

// onADV requests advertised data the node needs and is not already waiting
// for.
func (n *node) onADV(p *packet.Packet, it int) {
	d := p.Meta
	if n.hasItem(it) || !n.sys.interest(n.id, d) {
		return
	}
	if it >= 0 && it < len(n.pending) && n.pending[it] != (sim.Timer{}) {
		return // a request is already outstanding
	}
	n.sys.nw.Send(packet.Packet{
		Kind:      packet.REQ,
		Meta:      d,
		Src:       n.id,
		Dst:       p.Src,
		Requester: n.id,
		Provider:  p.Src,
		Level:     radio.MaxPower,
	})
	if it >= 0 {
		n.grow(it)
		n.pending[it] = n.sys.nw.Scheduler().AfterArg(n.sys.cfg.PendingTimeout,
			n.sys.pendingFn, uint64(n.id)<<32|uint64(it))
	}
}

// onPendingExpired ends the pending window of node arg>>32 for item
// uint32(arg). Expiry simply clears the suppression; a later ADV
// re-requests. The node armed the timer, so its instance exists.
func (s *System) onPendingExpired(arg uint64) {
	s.nodes[arg>>32].pending[uint32(arg)] = sim.Timer{}
	s.nw.Counters().Timeouts++
}

// onREQ serves data the node holds.
func (n *node) onREQ(p *packet.Packet, it int) {
	d := p.Meta
	if !n.hasItem(it) {
		n.sys.nw.Counters().Drops++
		return
	}
	n.sys.nw.Send(packet.Packet{
		Kind:      packet.DATA,
		Meta:      d,
		Src:       n.id,
		Dst:       p.Requester,
		Requester: p.Requester,
		Provider:  n.id,
		Level:     radio.MaxPower,
	})
}

// onDATA stores and re-advertises newly received data.
func (n *node) onDATA(p *packet.Packet, it int) {
	d := p.Meta
	if it >= 0 && it < len(n.pending) {
		n.pending[it].Cancel()
		n.pending[it] = sim.Timer{}
	}
	if n.hasItem(it) {
		n.sys.nw.Counters().Duplicates++
		return
	}
	n.setHas(it)
	if n.sys.ledger.RecordDelivery(n.id, d, n.sys.nw.Scheduler().Now()) {
		n.sys.nw.Counters().Delivered++
	}
	n.advertise(d, it)
}

// advertise broadcasts an ADV for d once per node, at maximum power.
func (n *node) advertise(d packet.DataID, it int) {
	if it < 0 || (it < len(n.advertised) && n.advertised[it]) {
		return
	}
	n.grow(it)
	n.advertised[it] = true
	n.sys.nw.Send(packet.Packet{
		Kind:  packet.ADV,
		Meta:  d,
		Src:   n.id,
		Dst:   packet.Broadcast,
		Level: radio.MaxPower,
	})
}

// Has reports whether node id currently holds d (test hook). It reads an
// absent instance as holding nothing and creates none.
func (s *System) Has(id packet.NodeID, d packet.DataID) bool {
	if id < 0 || int(id) >= len(s.nodes) {
		panic(fmt.Sprintf("spin: node id %d out of range", id))
	}
	n := s.nodes[id]
	return n != nil && n.hasItem(s.ledger.Index(d))
}
