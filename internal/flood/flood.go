// Package flood implements classic flooding, the baseline protocol the
// paper's introduction describes: "each node retransmits the data it
// receives to all its neighbors, except the neighbor that it received the
// data from". It keeps no negotiation state and suffers the implosion
// problem SPIN and SPMS exist to fix; it is included as the reference point
// for the energy comparisons.
package flood

import (
	"fmt"
	"time"

	"repro/internal/dissem"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
)

// System is one flooding network.
type System struct {
	nw     *network.Network
	ledger *dissem.Ledger
	// interest only affects delivery accounting: flooding transmits to
	// everyone regardless of interest.
	interest dissem.Interest
	proc     time.Duration
	nodes    []node
}

var (
	_ dissem.Protocol  = (*System)(nil)
	_ network.Receiver = (*System)(nil)
)

// NewSystem builds the flooding instances and binds them to the network.
// proc is the per-packet processing delay (Table 1: 0.02 ms).
func NewSystem(nw *network.Network, ledger *dissem.Ledger, interest dissem.Interest, proc time.Duration) (*System, error) {
	if nw == nil || ledger == nil || interest == nil {
		return nil, fmt.Errorf("flood: nil dependency (nw=%v ledger=%v interest=%v)",
			nw != nil, ledger != nil, interest != nil)
	}
	if proc < 0 {
		return nil, fmt.Errorf("flood: negative processing delay %v", proc)
	}
	s := &System{nw: nw, ledger: ledger, interest: interest, proc: proc}
	nw.SetProcessingDelay(proc)
	// Nodes live in one contiguous slice (allocated once, never grown), so
	// per-node state is a flat array walk rather than a pointer chase.
	s.nodes = make([]node, nw.N())
	for i := range s.nodes {
		s.nodes[i] = node{sys: s, id: packet.NodeID(i)}
	}
	nw.Bind(s)
	return s, nil
}

// Originate implements dissem.Protocol: the origin broadcasts the full DATA
// packet to its neighborhood at maximum power.
func (s *System) Originate(src packet.NodeID, d packet.DataID) error {
	if src != d.Origin {
		return fmt.Errorf("flood: originate %v at wrong node %d", d, src)
	}
	if src < 0 || int(src) >= len(s.nodes) {
		return fmt.Errorf("flood: origin node %d out of range", src)
	}
	if !s.nw.Alive(src) {
		return fmt.Errorf("flood: origin node %d is down", src)
	}
	if err := s.ledger.Originate(d, s.nw.Scheduler().Now()); err != nil {
		return err
	}
	n := &s.nodes[src]
	n.setSeen(s.ledger.Index(d))
	n.rebroadcast(d)
	return nil
}

// Has reports whether node id has seen d (test hook).
func (s *System) Has(id packet.NodeID, d packet.DataID) bool {
	if id < 0 || int(id) >= len(s.nodes) {
		panic(fmt.Sprintf("flood: node id %d out of range", id))
	}
	return s.nodes[id].seenItem(s.ledger.Index(d))
}

// node keeps its seen set as a flat slice indexed by the ledger's dense
// item index (dissem.Ledger.Index) — see the matching layout in
// internal/core.
type node struct {
	sys  *System
	id   packet.NodeID
	seen []bool
}

// seenItem reports whether this node already received item it.
func (n *node) seenItem(it int) bool { return it >= 0 && it < len(n.seen) && n.seen[it] }

// setSeen marks item it as received (no-op for unregistered items).
func (n *node) setSeen(it int) {
	if it < 0 {
		return
	}
	n.seen = dissem.GrowItems(n.seen, it, n.sys.ledger)
	n.seen[it] = true
}

// HandleBatch implements network.Receiver: it runs the flooding reaction
// to p at every node in to. The processing delay is applied by the
// network's batched dispatch (SetProcessingDelay in NewSystem), which also
// drops receivers that failed before processing. The item index is
// resolved once per batch, as in internal/core.
func (s *System) HandleBatch(p packet.Packet, to []packet.NodeID) {
	if p.Kind != packet.DATA {
		panic(fmt.Sprintf("flood: node %d received unexpected %v", to[0], p.Kind))
	}
	it := s.ledger.Index(p.Meta)
	for _, id := range to {
		s.nodes[id].onDATA(&p, it)
	}
}

// onDATA rebroadcasts the first copy of an item and counts the rest as
// duplicates.
func (n *node) onDATA(p *packet.Packet, it int) {
	d := p.Meta
	if n.seenItem(it) {
		n.sys.nw.Counters().Duplicates++
		return // rebroadcast only the first copy
	}
	n.setSeen(it)
	if n.sys.interest(n.id, d) &&
		n.sys.ledger.RecordDelivery(n.id, d, n.sys.nw.Scheduler().Now()) {
		n.sys.nw.Counters().Delivered++
	}
	n.rebroadcast(d)
}

func (n *node) rebroadcast(d packet.DataID) {
	n.sys.nw.Send(packet.Packet{
		Kind:  packet.DATA,
		Meta:  d,
		Src:   n.id,
		Dst:   packet.Broadcast,
		Level: radio.MaxPower,
	})
}
