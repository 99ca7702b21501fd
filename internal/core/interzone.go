// interzone.go implements the paper's §6 future-work extension: "an
// extension to SPMS to disseminate data when the source and the destination
// are in separate zones with no interested nodes in the intermediate zones.
// This would require the use of zone routing of [4] and the request phase
// of the protocol to go across zones."
//
// The mechanism is a ZRP-style bordercast (Haas & Pearlman [4]): a node
// that wants data it has never heard advertised issues a QRY that hops from
// zone to zone via border nodes (peripheral zone neighbors, spread by
// direction). Each QRY accumulates its forwarding trail; the first node
// holding the data answers with a DATA packet source-routed back along the
// reversed trail. Retries bump a sequence number so per-hop duplicate
// suppression does not swallow them.
package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Inter-zone query defaults.
const (
	// DefaultQueryHorizon bounds a QRY's trail length (zones crossed).
	DefaultQueryHorizon = 8
	// DefaultBorderFanout is how many border nodes a bordercast forwards to.
	DefaultBorderFanout = 4
	// borderRingFraction of the zone radius marks the peripheral ring from
	// which border nodes are preferred.
	borderRingFraction = 0.6
)

// queryKey identifies one query instance for duplicate suppression.
type queryKey struct {
	meta      packet.DataID
	requester packet.NodeID
	seq       int
}

// pendingQuery is the requester-side state of an inter-zone pull.
type pendingQuery struct {
	id       uint64        // index in System.queries: the retry timer's argument
	node     packet.NodeID // the requesting node
	d        packet.DataID // the item queried
	it       int           // d's dense ledger index, -1 when never originated
	seq      int
	attempts int
	timer    sim.Timer
}

// Query pulls data across zones (§6 extension): if the requesting node has
// a route to the data's origin it issues a normal multi-hop REQ (reusing
// the acquisition machinery and its failover ladder); otherwise it
// bordercasts a QRY that propagates zone to zone until some node holding
// the data answers with a source-routed reply. Retries are bounded by
// MaxAttempts. Query returns an error only for invalid arguments or a dead
// requester; a lost query surfaces as non-delivery, observable via Has.
func (s *System) Query(requester packet.NodeID, d packet.DataID) error {
	if requester < 0 || int(requester) >= len(s.nodes) {
		return fmt.Errorf("core: query node %d out of range", requester)
	}
	n := &s.nodes[requester]
	if !s.nw.Alive(requester) {
		return fmt.Errorf("core: query node %d is down", requester)
	}
	it := s.ledger.Index(d)
	if n.hasItem(it) {
		return nil // already holds it
	}

	// In-zone pull: when the origin is a zone neighbor the node legitimately
	// has routing state for it (SPMS maintains routes only to zone
	// neighbors, §3.2) — reuse the standard REQ path with its PRONE/SCONE
	// failover. The zone check matters even though our DBF tables happen to
	// be all-pairs: a cross-zone destination is outside the protocol's
	// routing state and must go through the bordercast extension.
	if s.nw.Field().InZone(requester, d.Origin) {
		if hops, ok := s.tables.Hops(requester, d.Origin); ok {
			acq := n.wantFor(d, it)
			if acq == nil {
				acq = n.acquire(d, it, d.Origin)
			}
			if armed(acq.tauDAT) {
				return nil // a request is already in flight
			}
			n.sendREQ(acq, d.Origin, hops == 1)
			return nil
		}
	}

	// Cross-zone pull: bordercast.
	if q := n.queries[d.Key()]; q != nil && q.timer.Active() {
		return nil // a query is already in flight
	}
	n.startQuery(d, it)
	return nil
}

// startQuery issues (or re-issues) a bordercast and arms its retry timer.
func (n *node) startQuery(d packet.DataID, it int) {
	if n.queries == nil {
		n.queries = make(map[uint64]*pendingQuery)
	}
	q := n.queries[d.Key()]
	if q == nil {
		q = &pendingQuery{id: uint64(len(n.sys.queries)), node: n.id, d: d, it: it}
		n.sys.queries = append(n.sys.queries, q)
		n.queries[d.Key()] = q
	}
	if q.attempts >= n.sys.cfg.MaxAttempts {
		return // out of budget; give up silently (observable via Has)
	}
	q.attempts++
	q.seq++
	n.forwardQuery(packet.Packet{
		Kind:      packet.QRY,
		Meta:      d,
		Src:       n.id,
		Requester: n.id,
		Provider:  packet.None,
		QuerySeq:  q.seq,
		Trail:     []packet.NodeID{n.id},
	})
	// Worst case: horizon zones out and back, each leg one border hop.
	wait := n.sys.tauDAT(1) + 2*time.Duration(n.sys.cfg.QueryHorizon)*n.sys.hopRTT
	q.timer = n.sys.nw.Scheduler().AfterArg(wait, n.sys.queryFn, q.id)
}

// onQueryTimeout handles the expiry of query arg's retry timer: re-issue
// the bordercast while the requester is up and still lacks the data.
func (s *System) onQueryTimeout(arg uint64) {
	q := s.queries[arg]
	n := &s.nodes[q.node]
	if !s.nw.Alive(n.id) || n.hasItem(q.it) {
		return
	}
	s.nw.Counters().Timeouts++
	n.startQuery(q.d, q.it)
}

// onQRY runs at a node receiving an inter-zone query: answer from the local
// cache, or bordercast onward.
func (n *node) onQRY(p *packet.Packet, it int) {
	key := queryKey{meta: p.Meta, requester: p.Requester, seq: p.QuerySeq}
	if n.seenQueries == nil {
		n.seenQueries = make(map[queryKey]bool)
	}
	if n.seenQueries[key] {
		return // already processed this query instance
	}
	n.seenQueries[key] = true

	if n.hasItem(it) {
		n.replyToQuery(p)
		return
	}
	if len(p.Trail) >= n.sys.cfg.QueryHorizon {
		n.sys.nw.Counters().Drops++
		return
	}
	fwd := *p
	fwd.Trail = appendTrail(p.Trail, n.id)
	n.forwardQuery(fwd)
}

// appendTrail copies-on-extend so concurrent forwarders never share backing
// arrays.
func appendTrail(trail []packet.NodeID, id packet.NodeID) []packet.NodeID {
	out := make([]packet.NodeID, len(trail)+1)
	copy(out, trail)
	out[len(trail)] = id
	return out
}

// forwardQuery unicasts the QRY to up to BorderFanout border nodes that are
// not already on the trail. Border nodes are zone neighbors on the
// peripheral ring, spread across direction quadrants so the query expands
// outward rather than ping-ponging.
func (n *node) forwardQuery(p packet.Packet) {
	targets := n.borderNodes(p.Trail)
	if len(targets) == 0 {
		n.sys.nw.Counters().Drops++
		return
	}
	sz := n.sys.nw.Sizes()
	for _, t := range targets {
		level, ok := n.sys.nw.Field().LevelTo(n.id, t)
		if !ok {
			continue
		}
		out := p
		out.Src = n.id
		out.Dst = t
		out.Level = level
		out.Bytes = sz.Of(packet.QRY) + len(p.Trail) // header + trail entries
		n.sys.nw.Send(out)
	}
}

// borderNodes selects bordercast targets: peripheral zone neighbors (beyond
// borderRingFraction of the zone radius) not on the trail, at most one per
// direction quadrant, farthest first; topped up with any remaining
// candidates up to the fanout.
func (n *node) borderNodes(trail []packet.NodeID) []packet.NodeID {
	f := n.sys.nw.Field()
	ring := borderRingFraction * f.Model().MaxRange()
	onTrail := make(map[packet.NodeID]bool, len(trail))
	for _, id := range trail {
		onTrail[id] = true
	}

	type candidate struct {
		id   packet.NodeID
		dist float64
		quad int
	}
	var cands []candidate
	self := f.Pos(n.id)
	for _, nb := range f.ZoneNeighbors(n.id) {
		if onTrail[nb] {
			continue
		}
		pos := f.Pos(nb)
		quad := 0
		if pos.X >= self.X {
			quad |= 1
		}
		if pos.Y >= self.Y {
			quad |= 2
		}
		cands = append(cands, candidate{id: nb, dist: f.Dist(n.id, nb), quad: quad})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist > cands[j].dist
		}
		return cands[i].id < cands[j].id
	})

	fanout := n.sys.cfg.BorderFanout
	picked := make([]packet.NodeID, 0, fanout)
	usedQuad := make(map[int]bool)
	// First pass: farthest peripheral node per quadrant.
	for _, c := range cands {
		if len(picked) == fanout {
			return picked
		}
		if c.dist < ring || usedQuad[c.quad] {
			continue
		}
		usedQuad[c.quad] = true
		picked = append(picked, c.id)
	}
	// Top up with the farthest remaining candidates of any kind.
	for _, c := range cands {
		if len(picked) == fanout {
			break
		}
		if contains(picked, c.id) {
			continue
		}
		picked = append(picked, c.id)
	}
	return picked
}

func contains(ids []packet.NodeID, id packet.NodeID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// replyToQuery serves a QRY from the local cache: the DATA retraces the
// query's trail in reverse (source routing), so no routing state beyond the
// trail is needed.
func (n *node) replyToQuery(q *packet.Packet) {
	if len(q.Trail) == 0 {
		n.sys.nw.Counters().Drops++
		return
	}
	rev := make([]packet.NodeID, len(q.Trail))
	for i, id := range q.Trail {
		rev[len(q.Trail)-1-i] = id
	}
	next := rev[0]
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	n.sys.nw.Send(packet.Packet{
		Kind:      packet.DATA,
		Meta:      q.Meta,
		Src:       n.id,
		Dst:       next,
		Requester: q.Requester,
		Provider:  n.id,
		Level:     level,
		Bytes:     n.sys.nw.Sizes().DATA,
		Trail:     rev[1:],
	})
}

// forwardSourceRouted advances a trail-carrying DATA reply one hop. It
// reports whether it consumed the packet (false means the caller should
// fall back to table routing).
func (n *node) forwardSourceRouted(p *packet.Packet) bool {
	if len(p.Trail) == 0 {
		return false
	}
	next := p.Trail[0]
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		n.sys.nw.Counters().Drops++
		return true // consumed (and lost); the requester's retry recovers
	}
	fwd := *p
	fwd.Src = n.id
	fwd.Dst = next
	fwd.Level = level
	fwd.Trail = p.Trail[1:]
	n.sys.nw.Send(fwd)
	return true
}
