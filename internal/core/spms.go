// Package core implements SPMS (Shortest Path Minded SPIN), the paper's
// contribution: a fault-tolerant, energy-aware data dissemination protocol
// for sensor networks.
//
// SPMS keeps SPIN's metadata negotiation (ADV → REQ → DATA) but routes the
// REQ and DATA legs along minimum-energy multi-hop paths computed by the
// intra-zone Distributed Bellman-Ford of internal/routing, transmitting
// each hop at the lowest sufficient power level. Failure tolerance comes
// from two mechanisms (§3.4):
//
//   - Every destination tracks a Primary Originator Node (PRONE) and a
//     Secondary Originator Node (SCONE). Both start as the advertising
//     node; when a closer node advertises the same data, it becomes the
//     PRONE and the previous PRONE becomes the SCONE.
//   - Two timers drive recovery. τADV (TOutADV) bounds the wait for a relay
//     to advertise data that would otherwise need a multi-hop request.
//     τDAT (TOutDAT) bounds the wait for requested data; on expiry the
//     request fails over — first retrying the PRONE directly at a higher
//     power level (guaranteed reachable, they are zone neighbors), then
//     falling back to the SCONE.
//
// Every node that acquires a data item — destination or relay — caches it
// and advertises it once in its zone, which is what makes closer PRONEs
// appear and lets the network tolerate source failure after any neighbor
// has the data.
package core

import (
	"fmt"
	"time"

	"repro/internal/dissem"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Default timer values from Table 1.
const (
	DefaultTOutADV = time.Millisecond
	DefaultTOutDAT = 2500 * time.Microsecond
)

// DefaultMaxAttempts bounds the REQ failover chain. With two routing
// entries per destination the paper tolerates one concurrent failure; the
// chain multi-hop → direct-PRONE → SCONE → direct-SCONE uses four.
const DefaultMaxAttempts = 4

// Config parameterizes SPMS.
type Config struct {
	// TOutADV is the base τADV timeout (Table 1: 1.0 ms).
	TOutADV time.Duration
	// TOutDAT is the base τDAT timeout (Table 1: 2.5 ms).
	TOutDAT time.Duration
	// Proc is the per-packet processing delay (Table 1: 0.02 ms).
	Proc time.Duration
	// AutoTimeouts, when true, stretches the base τDAT by the expected
	// multi-hop round-trip time derived from the radio and MAC models, so
	// that a k-hop request is not declared lost before its data could
	// possibly return (§4.1.2's "TOutDAT, which counts all the delays
	// occurred at B"). τADV is never stretched: the paper runs it at a
	// tight 1 ms, which makes distant nodes pull data through cheap
	// low-power multi-hop requests instead of idling for relay
	// advertisements — that early pull is where SPMS's delay win over SPIN
	// comes from. When false both base values are used verbatim.
	AutoTimeouts bool
	// MaxAttempts bounds how many REQ attempts (including failovers) a node
	// makes per data item. Zero means DefaultMaxAttempts.
	MaxAttempts int
	// ServeFromCache lets a relay holding a cached copy answer a REQ that
	// is addressed further upstream. The paper leaves this as future work
	// ("we are also investigating the issue of data caching at intermediate
	// nodes"); it is off by default, and the ablation-serve-from-cache
	// golden campaign turns it on.
	ServeFromCache bool
	// DisableRelayADV suppresses the re-advertisement of relayed data,
	// for the ablation-relay-adv-off golden campaign only. The protocol
	// proper requires relay advertisement (§3.2).
	DisableRelayADV bool
	// QueryHorizon bounds how many zones an inter-zone query (§6 extension,
	// System.Query) may cross. Zero means DefaultQueryHorizon.
	QueryHorizon int
	// BorderFanout is how many border nodes each bordercast step forwards
	// to. Zero means DefaultBorderFanout.
	BorderFanout int
}

// DefaultConfig returns Table 1 timers with model-derived stretching on.
func DefaultConfig() Config {
	return Config{
		TOutADV:      DefaultTOutADV,
		TOutDAT:      DefaultTOutDAT,
		Proc:         network.DefaultProc,
		AutoTimeouts: true,
		MaxAttempts:  DefaultMaxAttempts,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TOutADV <= 0 {
		return fmt.Errorf("core: non-positive TOutADV %v", c.TOutADV)
	}
	if c.TOutDAT <= 0 {
		return fmt.Errorf("core: non-positive TOutDAT %v", c.TOutDAT)
	}
	if c.Proc < 0 {
		return fmt.Errorf("core: negative processing delay %v", c.Proc)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("core: negative MaxAttempts %d", c.MaxAttempts)
	}
	if c.QueryHorizon < 0 {
		return fmt.Errorf("core: negative QueryHorizon %d", c.QueryHorizon)
	}
	if c.BorderFanout < 0 {
		return fmt.Errorf("core: negative BorderFanout %d", c.BorderFanout)
	}
	return nil
}

// System is one SPMS network: the per-node protocol instances, the shared
// routing tables, and derived timeout parameters.
type System struct {
	nw       *network.Network
	ledger   *dissem.Ledger
	interest dissem.Interest
	cfg      Config
	tables   *routing.Tables
	nodes    []node

	// Derived expected per-hop REQ+DATA round trip for AutoTimeouts.
	hopRTT time.Duration

	// Acquisitions are carved from fixed-size slab chunks and recycled
	// through acqFree once satisfied, so the live set — not every (node,
	// item) pair a run ever negotiates — bounds their memory, and opening
	// one allocates nothing in steady state. An acquisition's slab index
	// is its timers' event argument.
	acqChunks []*[acqChunk]acquisition
	acqFree   []uint32
	acqCarved uint32

	// queries holds every pending inter-zone query ever opened, indexed by
	// the query timer's event argument.
	queries []*pendingQuery

	// The timer handlers, bound once so arming a timer allocates nothing.
	tauADVFn, tauDATFn, queryFn sim.ArgHandler
}

// acqChunk is the number of acquisitions in one slab chunk.
const acqChunk = 256

var (
	_ dissem.Protocol  = (*System)(nil)
	_ network.Receiver = (*System)(nil)
)

// NewSystem builds the protocol instances and binds them to the network.
// tables must be the converged routing state for the network's field.
func NewSystem(nw *network.Network, ledger *dissem.Ledger, interest dissem.Interest,
	tables *routing.Tables, cfg Config) (*System, error) {
	if nw == nil || ledger == nil || interest == nil || tables == nil {
		return nil, fmt.Errorf("core: nil dependency (nw=%v ledger=%v interest=%v tables=%v)",
			nw != nil, ledger != nil, interest != nil, tables != nil)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.QueryHorizon == 0 {
		cfg.QueryHorizon = DefaultQueryHorizon
	}
	if cfg.BorderFanout == 0 {
		cfg.BorderFanout = DefaultBorderFanout
	}
	s := &System{nw: nw, ledger: ledger, interest: interest, cfg: cfg, tables: tables}
	s.tauADVFn = s.onTauADV
	s.tauDATFn = s.onTauDAT
	s.queryFn = s.onQueryTimeout
	s.deriveTimeouts()
	nw.SetProcessingDelay(cfg.Proc)
	// Nodes live in one contiguous slice (allocated once, never grown), so
	// per-node state is a flat array walk rather than a pointer chase.
	s.nodes = make([]node, nw.N())
	for i := range s.nodes {
		s.nodes[i] = node{sys: s, id: packet.NodeID(i)}
	}
	nw.Bind(s)
	return s, nil
}

// deriveTimeouts estimates the expected per-hop REQ+DATA round trip from
// the field: the mean contender count at minimum power (the paper's ns)
// gives the expected CSMA access delay via the same G·n² law the MAC uses.
func (s *System) deriveTimeouts() {
	f := s.nw.Field()
	m := f.Model()
	var sumNs float64
	for i := 0; i < f.N(); i++ {
		sumNs += float64(f.Contenders(packet.NodeID(i), m.MinPower()))
	}
	meanNs := sumNs / float64(f.N())
	const gMS = 0.01 // Table 1 MAC contention constant, in ms
	accessNs := time.Duration(gMS * meanNs * meanNs * float64(time.Millisecond))
	// Full backoff window bound (20 slots × 0.1 ms) so expected-case jitter
	// does not trip timers.
	const backoff = 2 * time.Millisecond
	sz := s.nw.Sizes()
	reqLeg := accessNs + backoff + m.TxTime(sz.REQ) + s.cfg.Proc
	datLeg := accessNs + backoff + m.TxTime(sz.DATA) + s.cfg.Proc
	s.hopRTT = reqLeg + datLeg
}

// tauADV returns the τADV duration. It is deliberately the tight base value
// (Table 1: 1 ms): expiring before a relay completes its own acquisition is
// normal and simply converts the wait into an early multi-hop pull.
func (s *System) tauADV() time.Duration {
	return s.cfg.TOutADV
}

// tauDAT returns the τDAT duration for a request that travels hops hops.
func (s *System) tauDAT(hops int) time.Duration {
	if !s.cfg.AutoTimeouts {
		return s.cfg.TOutDAT
	}
	if hops < 1 {
		hops = 1
	}
	return s.cfg.TOutDAT + time.Duration(hops)*s.hopRTT
}

// SetTables swaps in freshly converged routing tables (after a mobility
// event re-runs DBF).
func (s *System) SetTables(t *routing.Tables) {
	if t == nil {
		panic("core: SetTables(nil)")
	}
	s.tables = t
	s.deriveTimeouts()
}

// Tables returns the current routing tables.
func (s *System) Tables() *routing.Tables { return s.tables }

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Originate implements dissem.Protocol.
func (s *System) Originate(src packet.NodeID, d packet.DataID) error {
	if src != d.Origin {
		return fmt.Errorf("core: originate %v at wrong node %d", d, src)
	}
	if src < 0 || int(src) >= len(s.nodes) {
		return fmt.Errorf("core: origin node %d out of range", src)
	}
	if !s.nw.Alive(src) {
		return fmt.Errorf("core: origin node %d is down", src)
	}
	if err := s.ledger.Originate(d, s.nw.Scheduler().Now()); err != nil {
		return err
	}
	n := &s.nodes[src]
	it := s.ledger.Index(d)
	n.setHas(it)
	n.advertise(d, it)
	return nil
}

// Has reports whether node id holds d (test hook).
func (s *System) Has(id packet.NodeID, d packet.DataID) bool {
	if id < 0 || int(id) >= len(s.nodes) {
		panic(fmt.Sprintf("core: node id %d out of range", id))
	}
	return s.nodes[id].hasItem(s.ledger.Index(d))
}

// Prone returns node id's current PRONE/SCONE for d (test hook). ok is
// false when the node has no acquisition state for d.
func (s *System) Prone(id packet.NodeID, d packet.DataID) (prone, scone packet.NodeID, ok bool) {
	if id < 0 || int(id) >= len(s.nodes) {
		panic(fmt.Sprintf("core: node id %d out of range", id))
	}
	acq := s.nodes[id].wantFor(d, s.ledger.Index(d))
	if acq == nil {
		return packet.None, packet.None, false
	}
	return acq.prone, acq.scone, true
}

// acquisition is a destination's per-data-item negotiation state (§3.4).
// The slab keeps one per open (node, item) negotiation, so its fields are
// 32-bit where the values fit and ordered by alignment, the flags last: 88
// bytes. The 32-bit slab and item indices cannot wrap: 2³¹ items or
// acquisitions would not fit in memory.
type acquisition struct {
	// The timer handles double as the protocol's own timer state: every
	// path that fires or cancels τADV or τDAT zeroes its handle (stop, and
	// the expiry handlers), so a non-zero handle is a pending timer and the
	// ADV path answers "is a request outstanding" without reading the
	// scheduler's arena (armed).
	tauADV sim.Timer
	tauDAT sim.Timer

	d        packet.DataID // the item being acquired
	id       uint32        // slab index: the event argument of its timers
	it       int32         // d's dense ledger index, -1 when never originated
	attempts int32         // REQ transmissions so far

	node       packet.NodeID // the acquiring node
	prone      packet.NodeID // primary originator node
	scone      packet.NodeID // secondary originator node
	lastTarget packet.NodeID

	lastDirect bool // last REQ was a direct (single-hop) transmission
	abandoned  bool // attempt budget exhausted; a fresh ADV restarts
}

// node is one SPMS protocol instance. Per-item state (has/advertised/want)
// lives in flat slices indexed by the ledger's dense item index
// (dissem.Ledger.Index): one shared map lookup resolves a packet's DataID
// to its index, after which every state access is an indexed load — the
// per-item maps these replace dominated the delivery-path profile at
// campaign scale.
type node struct {
	sys        *System
	id         packet.NodeID
	has        []bool
	advertised []bool
	want       []*acquisition

	// wantOverflow holds acquisition state for items with no ledger index
	// (never originated — reachable only via System.Query), preserving
	// Query's in-flight dedup for them. Allocated lazily; empty in every
	// normal workload.
	wantOverflow map[uint64]*acquisition

	// Inter-zone query state (§6 extension), allocated lazily. queries is
	// keyed on DataID.Key directly: query traffic is rare and may reference
	// items that were never originated (no ledger index exists).
	queries     map[uint64]*pendingQuery
	seenQueries map[queryKey]bool
}

// hasItem reports whether this node holds item it.
func (n *node) hasItem(it int) bool { return it >= 0 && it < len(n.has) && n.has[it] }

// wantFor returns the acquisition state for d (dense index it), nil when
// none. Unregistered items (it < 0, possible only via System.Query) live
// in the overflow map so Query keeps its in-flight dedup for them.
func (n *node) wantFor(d packet.DataID, it int) *acquisition {
	if it >= 0 {
		if it < len(n.want) {
			return n.want[it]
		}
		return nil
	}
	return n.wantOverflow[d.Key()]
}

// grow extends the per-item slices to cover item it.
func (n *node) grow(it int) {
	if it < len(n.has) {
		return
	}
	l := n.sys.ledger
	n.has = dissem.GrowItems(n.has, it, l)
	n.advertised = dissem.GrowItems(n.advertised, it, l)
	n.want = dissem.GrowItems(n.want, it, l)
}

// setHas marks item it as held. Unregistered items (it < 0) have no slot
// and nothing to record — they can never be advertised or delivered.
func (n *node) setHas(it int) {
	if it < 0 {
		return
	}
	n.grow(it)
	n.has[it] = true
}

// acquire opens acquisition state for d (dense index it), with provider
// as both PRONE and SCONE; unregistered items go to the overflow map.
func (n *node) acquire(d packet.DataID, it int, provider packet.NodeID) *acquisition {
	acq := n.sys.newAcquisition()
	acq.node, acq.d, acq.it = n.id, d, int32(it)
	acq.prone, acq.scone = provider, provider
	if it >= 0 {
		n.grow(it)
		n.want[it] = acq
		return acq
	}
	if n.wantOverflow == nil {
		n.wantOverflow = make(map[uint64]*acquisition)
	}
	n.wantOverflow[d.Key()] = acq
	return acq
}

// armed reports whether the acquisition timer t is pending. It reads only
// the handle, which stop and the expiry handlers zero (see acquisition).
func armed(t sim.Timer) bool { return t != sim.Timer{} }

// stop cancels the acquisition timer *t and zeroes its handle.
func stop(t *sim.Timer) {
	t.Cancel()
	*t = sim.Timer{}
}

// finish closes a satisfied acquisition: its timers are cancelled, the
// node forgets it and its slab slot is freed for reuse.
func (n *node) finish(acq *acquisition) {
	stop(&acq.tauADV)
	stop(&acq.tauDAT)
	if acq.it >= 0 {
		n.want[acq.it] = nil
	} else {
		delete(n.wantOverflow, acq.d.Key())
	}
	n.sys.acqFree = append(n.sys.acqFree, acq.id)
}

// newAcquisition returns zeroed acquisition state from the slab, reusing
// a freed slot when there is one.
func (s *System) newAcquisition() *acquisition {
	var id uint32
	if k := len(s.acqFree); k > 0 {
		id = s.acqFree[k-1]
		s.acqFree = s.acqFree[:k-1]
	} else {
		id = s.acqCarved
		s.acqCarved++
		if id%acqChunk == 0 {
			s.acqChunks = append(s.acqChunks, new([acqChunk]acquisition))
		}
	}
	acq := s.acqAt(id)
	*acq = acquisition{id: id}
	return acq
}

// acqAt returns the acquisition in slab slot id.
func (s *System) acqAt(id uint32) *acquisition {
	return &s.acqChunks[id/acqChunk][id%acqChunk]
}

// HandleBatch implements network.Receiver: it runs the protocol reaction
// to p at every node in to. The Tproc processing delay of §4's model is
// applied by the network's batched dispatch (SetProcessingDelay in
// NewSystem), which also drops receivers that failed before processing —
// so every node in to is alive and the clock is already at
// delivery+Tproc. The item index and the kind are resolved once per batch:
// items are registered only by Originate, from workload events, so the
// index cannot change while the batch runs.
func (s *System) HandleBatch(p packet.Packet, to []packet.NodeID) {
	it := s.ledger.Index(p.Meta)
	switch p.Kind {
	case packet.ADV:
		for _, id := range to {
			s.nodes[id].onADV(&p, it)
		}
	case packet.REQ:
		for _, id := range to {
			s.nodes[id].onREQ(&p, it)
		}
	case packet.DATA:
		for _, id := range to {
			s.nodes[id].onDATA(&p, it)
		}
	case packet.QRY:
		for _, id := range to {
			s.nodes[id].onQRY(&p, it)
		}
	default:
		panic(fmt.Sprintf("core: node %d received unexpected %v", to[0], p.Kind))
	}
}

// closer reports whether candidate is a strictly cheaper provider than
// current, by shortest-path cost.
func (n *node) closer(candidate, current packet.NodeID) bool {
	if candidate == current {
		return false
	}
	cCand, okCand := n.sys.tables.Cost(n.id, candidate)
	if !okCand {
		return false
	}
	cCur, okCur := n.sys.tables.Cost(n.id, current)
	if !okCur {
		return true // anything reachable beats an unreachable provider
	}
	return cCand < cCur
}

// onADV runs the destination side of the negotiation (§3.2):
//
//   - A next-hop-neighbor advertiser is requested immediately and directly.
//   - A farther advertiser arms τADV: the node waits, expecting a closer
//     relay to acquire and re-advertise the data.
//   - Advertisements from closer nodes promote the PRONE and demote the old
//     PRONE to SCONE.
func (n *node) onADV(p *packet.Packet, it int) {
	d := p.Meta
	if n.hasItem(it) || !n.sys.interest(n.id, d) {
		return
	}
	acq := n.wantFor(d, it)
	promoted := false
	if acq == nil {
		// First ADV for this item: PRONE and SCONE both start as the
		// advertiser (the data source, at protocol start).
		acq = n.acquire(d, it, p.Src)
		promoted = true
	} else {
		if acq.abandoned {
			// A fresh advertisement revives an abandoned acquisition.
			acq.abandoned = false
			acq.attempts = 0
			acq.prone = p.Src
			acq.scone = p.Src
			promoted = true
		} else if n.closer(p.Src, acq.prone) {
			acq.scone = acq.prone
			acq.prone = p.Src
			promoted = true
		}
	}
	if armed(acq.tauDAT) {
		// A request is already outstanding; the PRONE/SCONE update above is
		// all this ADV changes.
		return
	}
	hops, ok := n.sys.tables.Hops(n.id, acq.prone)
	if !ok {
		// PRONE unreachable by routing (e.g. source in another zone whose
		// ADV still arrived radio-wise). Wait for a closer advertiser.
		if promoted || !armed(acq.tauADV) {
			n.armTauADV(acq)
		}
		return
	}
	if hops == 1 {
		// Next-hop neighbor: request immediately, directly.
		stop(&acq.tauADV)
		n.sendREQ(acq, acq.prone, true)
		return
	}
	// Multi-hop would be needed: wait τADV for a relay's advertisement.
	// Re-arming on a PRONE promotion matches §3.5 ("C ... resets its timer
	// τADV"); unrelated repeat ADVs must not postpone the timer forever.
	if promoted || !armed(acq.tauADV) {
		n.armTauADV(acq)
	}
}

// armTauADV (re)starts the advertisement-wait timer. Re-arming on each ADV
// matches §3.5: "C on receiving the ADV packet from r1 resets its timer
// τADV".
func (n *node) armTauADV(acq *acquisition) {
	acq.tauADV.Cancel()
	acq.tauADV = n.sys.nw.Scheduler().AfterArg(n.sys.tauADV(), n.sys.tauADVFn, uint64(acq.id))
}

// onTauADV handles the expiry of the τADV timer of acquisition arg:
// request from the PRONE through the shortest path.
func (s *System) onTauADV(arg uint64) {
	acq := s.acqAt(uint32(arg))
	acq.tauADV = sim.Timer{}
	n := &s.nodes[acq.node]
	if !s.nw.Alive(n.id) || n.hasItem(int(acq.it)) {
		return
	}
	s.nw.Counters().Timeouts++
	n.sendREQ(acq, acq.prone, false)
}

// sendREQ transmits a request to target, directly (single transmission at
// the level that spans the distance) or along the multi-hop shortest path,
// and arms τDAT.
func (n *node) sendREQ(acq *acquisition, target packet.NodeID, direct bool) {
	if int(acq.attempts) >= n.sys.cfg.MaxAttempts {
		acq.abandoned = true
		stop(&acq.tauADV)
		stop(&acq.tauDAT)
		return
	}
	acq.attempts++
	acq.lastDirect = direct
	acq.lastTarget = target

	d := acq.d
	sz := n.sys.nw.Sizes()
	hops := 1
	if direct {
		level, ok := n.sys.nw.Field().LevelTo(n.id, target)
		if !ok {
			// Not actually reachable in one transmission (mobility can do
			// this); fall back to multi-hop.
			n.sendREQViaRoute(acq, target)
			return
		}
		n.sys.nw.Send(packet.Packet{
			Kind:      packet.REQ,
			Meta:      d,
			Src:       n.id,
			Dst:       target,
			Requester: n.id,
			Provider:  target,
			Level:     level,
			Bytes:     sz.REQ,
		})
	} else {
		if !n.sendREQViaRouteOnce(d, target) {
			// No route at all: try direct as a last resort, else abandon
			// until a fresh ADV arrives.
			if level, ok := n.sys.nw.Field().LevelTo(n.id, target); ok {
				acq.lastDirect = true
				n.sys.nw.Send(packet.Packet{
					Kind:      packet.REQ,
					Meta:      d,
					Src:       n.id,
					Dst:       target,
					Requester: n.id,
					Provider:  target,
					Level:     level,
					Bytes:     sz.REQ,
				})
			} else {
				acq.abandoned = true
				return
			}
		}
		if h, ok := n.sys.tables.Hops(n.id, target); ok {
			hops = h
		}
	}
	n.armTauDAT(acq, hops)
}

// sendREQViaRoute is sendREQ's multi-hop fallback used when a "direct"
// attempt turns out to be unreachable.
func (n *node) sendREQViaRoute(acq *acquisition, target packet.NodeID) {
	acq.lastDirect = false
	if !n.sendREQViaRouteOnce(acq.d, target) {
		acq.abandoned = true
		return
	}
	hops, _ := n.sys.tables.Hops(n.id, target)
	n.armTauDAT(acq, hops)
}

// sendREQViaRouteOnce emits one REQ toward target via the primary next hop.
// It reports false when no route exists.
func (n *node) sendREQViaRouteOnce(d packet.DataID, target packet.NodeID) bool {
	next, ok := n.sys.tables.NextHop(n.id, target)
	if !ok {
		return false
	}
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		return false
	}
	n.sys.nw.Send(packet.Packet{
		Kind:      packet.REQ,
		Meta:      d,
		Src:       n.id,
		Dst:       next,
		Requester: n.id,
		Provider:  target,
		Level:     level,
		Bytes:     n.sys.nw.Sizes().REQ,
	})
	return true
}

// armTauDAT starts the data-wait timer for a request that travels the given
// number of hops.
func (n *node) armTauDAT(acq *acquisition, hops int) {
	acq.tauDAT.Cancel()
	acq.tauDAT = n.sys.nw.Scheduler().AfterArg(n.sys.tauDAT(hops), n.sys.tauDATFn, uint64(acq.id))
}

// onTauDAT handles the expiry of the τDAT timer of acquisition arg: the
// request was lost, so fail over.
func (s *System) onTauDAT(arg uint64) {
	acq := s.acqAt(uint32(arg))
	acq.tauDAT = sim.Timer{}
	n := &s.nodes[acq.node]
	if !s.nw.Alive(n.id) || n.hasItem(int(acq.it)) {
		return
	}
	s.nw.Counters().Timeouts++
	n.failover(acq)
}

// failover implements §3.4's recovery ladder after a τDAT expiry:
//
//  1. If the lost request was multi-hop, a relay on the path is down: retry
//     the current PRONE directly at the higher power level ("it finally
//     requests the data directly from the PRONE, using a higher
//     transmission power" — guaranteed reachable, they are zone neighbors).
//     The PRONE may have been promoted by an ADV that arrived while the
//     request was outstanding, so this uses the freshest choice.
//  2. If a direct request was lost, the target itself is down: request the
//     SCONE directly ("it then sends a REQ packet to the SCONE (r1)
//     directly").
//  3. If the direct SCONE request was lost too, the node is out of known
//     providers; the acquisition is abandoned until a fresh advertisement
//     revives it.
func (n *node) failover(acq *acquisition) {
	n.sys.nw.Counters().Failovers++
	switch {
	case !acq.lastDirect:
		// Multi-hop attempt failed: go direct to the current PRONE at
		// whatever power reaches it.
		n.sendREQ(acq, acq.prone, true)
	case acq.lastTarget != acq.scone:
		// Direct attempt on the PRONE failed: the PRONE is down.
		n.sendREQ(acq, acq.scone, true)
	default:
		acq.abandoned = true
	}
}

// onREQ handles a request arriving at this node: serve it if addressed
// here, otherwise forward it along this node's own shortest path to the
// addressee (hop-by-hop forwarding, §3.2).
func (n *node) onREQ(p *packet.Packet, it int) {
	if p.Provider == n.id || (n.sys.cfg.ServeFromCache && n.hasItem(it)) {
		if !n.hasItem(it) {
			// Addressed to us but we never got the data (e.g. we are a
			// PRONE that lost a race). Drop; the requester's τDAT recovers.
			n.sys.nw.Counters().Drops++
			return
		}
		n.serveDATA(p)
		return
	}
	// Relay the REQ one hop closer to the provider.
	next, ok := n.sys.tables.NextHop(n.id, p.Provider)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	fwd := *p
	fwd.Src = n.id
	fwd.Dst = next
	fwd.Level = level
	n.sys.nw.Send(fwd)
}

// serveDATA answers a REQ: "the data is sent in exactly the same manner as
// the received request" — directly when the REQ arrived directly from the
// requester, otherwise along the shortest path.
func (n *node) serveDATA(req *packet.Packet) {
	d := req.Meta
	sz := n.sys.nw.Sizes()
	if req.Src == req.Requester {
		// The REQ came straight from the requester (possibly at high
		// power): reply the same way.
		level, ok := n.sys.nw.Field().LevelTo(n.id, req.Requester)
		if !ok {
			n.sys.nw.Counters().Drops++
			return
		}
		n.sys.nw.Send(packet.Packet{
			Kind:      packet.DATA,
			Meta:      d,
			Src:       n.id,
			Dst:       req.Requester,
			Requester: req.Requester,
			Provider:  n.id,
			Level:     level,
			Bytes:     sz.DATA,
		})
		return
	}
	next, ok := n.sys.tables.NextHop(n.id, req.Requester)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	n.sys.nw.Send(packet.Packet{
		Kind:      packet.DATA,
		Meta:      d,
		Src:       n.id,
		Dst:       next,
		Requester: req.Requester,
		Provider:  n.id,
		Level:     level,
		Bytes:     sz.DATA,
	})
}

// onDATA handles arriving data: deliver it if we are the requester, cache
// and forward it if we are a relay. Either way the node advertises the item
// once in its zone ("a node advertises its own data as well as all received
// data once amongst its neighbors", §3.2) — unless DisableRelayADV
// ablates relay re-advertisement.
func (n *node) onDATA(p *packet.Packet, it int) {
	d := p.Meta
	isNew := !n.hasItem(it)
	n.setHas(it)
	if !isNew {
		n.sys.nw.Counters().Duplicates++
	}
	// Any interested node that newly holds the data counts as a delivery —
	// a relay that carries the item will never request it again.
	if isNew && n.sys.interest(n.id, d) &&
		n.sys.ledger.RecordDelivery(n.id, d, n.sys.nw.Scheduler().Now()) {
		n.sys.nw.Counters().Delivered++
	}
	// Whatever role this node played, its own acquisition is now satisfied.
	if acq := n.wantFor(d, it); acq != nil {
		n.finish(acq)
	}
	if q := n.queries[d.Key()]; q != nil {
		q.timer.Cancel()
		delete(n.queries, d.Key())
	}

	if p.Requester == n.id {
		n.advertise(d, it)
		return
	}

	// Relay: cache (done above), advertise, forward toward the requester.
	if !n.sys.cfg.DisableRelayADV {
		n.advertise(d, it)
	}
	// A trail-carrying reply (inter-zone query) is source-routed; otherwise
	// fall through to table routing.
	if n.forwardSourceRouted(p) {
		return
	}
	next, ok := n.sys.tables.NextHop(n.id, p.Requester)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	level, ok := n.sys.nw.Field().LevelTo(n.id, next)
	if !ok {
		n.sys.nw.Counters().Drops++
		return
	}
	fwd := *p
	fwd.Src = n.id
	fwd.Dst = next
	fwd.Level = level
	n.sys.nw.Send(fwd)
}

// advertise broadcasts an ADV for d once per node, at maximum power — the
// zone-wide announcement that drives both discovery and PRONE promotion.
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
		Bytes: n.sys.nw.Sizes().ADV,
	})
}
