// Package routing implements the paper's intra-zone route formation: a
// synchronous Distributed Bellman-Ford (DBF) over the graph whose edge
// weight w(i,j) is the minimum transmit power at which i reaches j. DBF
// "finds the shortest path between any two nodes in the weighted graph"
// (§3.2); keeping n entries per destination tolerates n concurrent relay
// failures — the paper's implementation (and ours, by default) keeps the
// shortest and the second shortest path.
//
// The algorithm is executed as the real distributed protocol would be: in
// rounds, each node whose distance vector changed broadcasts it to its zone
// neighbors. The number of broadcasts is recorded so the mobility
// experiments (§5.1.3) can charge routing-convergence energy. The kernel
// relaxes only the entries a broadcaster changed (ComputeWorkers), but the
// charge still prices every broadcast as the full vector
// (ChargeConvergenceEnergy): the shortcut changes how fast the tables are
// computed, not what the modeled radio traffic costs.
//
// The tables store costs and hop counts, and derive a pair's k alternatives
// when it is read. SPMS (internal/core) forwards only along the primary
// entry; the secondary routes are a known gap in fidelity to the paper
// (DESIGN.md §5.2).
package routing

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/topo"
	"repro/internal/zone"
)

// DefaultAlternatives is the number of next-hop entries kept per
// destination: the shortest and second-shortest path (§5.1.2).
const DefaultAlternatives = 2

// Edge is one usable radio link: the lowest-power level that spans it and
// that level's power draw, which is the link's routing weight.
type Edge struct {
	To       packet.NodeID
	WeightMW float64
	Level    radio.Level
}

// Graph is the connectivity snapshot DBF runs on. Rebuild it after nodes
// move.
type Graph struct {
	n   int
	adj [][]Edge
}

// BuildGraphWorkers derives the link graph from current node positions,
// over up to workers goroutines: an edge exists between every pair of zone
// neighbors, weighted by the minimum power to cross it. The field's
// neighbor caches are warmed first (topo.Field.WarmAll), after which each
// node's adjacency row is a pure function of positions written only by its
// own worker — the graph is identical for every worker count.
func BuildGraphWorkers(f *topo.Field, workers int) *Graph {
	n := f.N()
	g := &Graph{n: n, adj: make([][]Edge, n)}
	m := f.Model()
	f.WarmAll(workers)
	zone.For(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := packet.NodeID(i)
			for _, dst := range f.ZoneNeighbors(src) {
				level, ok := f.LevelTo(src, dst)
				if !ok {
					continue // zone boundary race after a move; skip
				}
				g.adj[i] = append(g.adj[i], Edge{To: dst, WeightMW: m.PowerMW(level), Level: level})
			}
		}
	})
	return g
}

// N returns the number of nodes in the graph.
func (g *Graph) N() int { return g.n }

// Neighbors returns node id's outgoing edges. The slice is owned by the
// graph; callers must not modify it.
func (g *Graph) Neighbors(id packet.NodeID) []Edge {
	if id < 0 || int(id) >= g.n {
		panic(fmt.Sprintf("routing: node id %d out of range [0,%d)", id, g.n))
	}
	return g.adj[id]
}

// Entry is one routing-table row: reach the destination via NextHop at
// total path cost Cost (mW-weighted) in Hops hops.
type Entry struct {
	NextHop packet.NodeID
	Cost    float64
	Hops    int
}

// Tables is the converged output of one DBF execution for every node, 16
// bytes per ordered pair. Alternatives are derived on read, not stored;
// NextHop writes its cache, so a Tables has one owner (DESIGN.md §5.1).
type Tables struct {
	n    int
	dist []float64 // row-major n×n: dist[i*n+d] is the shortest cost i→d (+Inf if none)
	hops []int32   // row-major n×n: hops on that path (-1 if none)
	next []int32   // row-major n×n: NextHop's cache, 0 until read, then -1 (no route) or hop+1

	// adj is the graph the tables were computed on; k, the alternatives a
	// pair keeps, is capped at its largest degree. top is NextHop's scratch
	// of capacity k, as Routes derives, so that NextHop is Routes' entry 0
	// even on costs where approxEqual is not transitive.
	adj [][]Edge
	k   int
	top []Entry

	rounds        int
	broadcasts    int
	perNodeBcasts []int
}

// vecEntry is one distance-vector entry as a node broadcasts it.
type vecEntry struct {
	dest int32
	hops int32
	cost float64
}

// ComputeWorkers runs synchronous DBF to convergence over up to workers
// goroutines and returns tables that derive k alternatives per pair on
// read. k < 1 is treated as DefaultAlternatives.
//
// Each round runs as the triggered updates of a real distance-vector
// protocol: a node broadcasts exactly when it changed some entry in the
// previous round, and what its neighbors relax is the published snapshot
// of just those entries. That is exact, not an approximation of the dense
// synchronous update that relaxes every broadcaster's whole vector: for
// each (i, d) the candidates still arrive in adjacency order, and every
// one skipped is an entry of j that i already relaxed, at the same value,
// in the round after j last changed it. Since then i's entry has only
// improved, so the dense update would reject that candidate again.
//
// Exactness condition: that last step needs "better" (lower cost beyond
// costEpsilon) to be a strict weak order on the costs that occur, i.e.
// approxEqual must be transitive on them: any two path costs are either
// equal up to rounding or apart by much more than costEpsilon. The MICA2-scaled models meet it by a wide margin: on the
// fields the tests and experiments use, distinct path costs lie at least
// ~1.6e-4 of the top power level apart (~2e-7 mW at a 10 m radius), while
// equal costs differ by under 1e-15 mW of rounding. derive relies on the
// same condition. TestComputeMatchesDenseReference checks the tables bit
// for bit against the dense kernel.
//
// Rounds are parallel over rows in two phases. In the relax phase node i
// reads only its neighbors' snapshots and writes only its own row (in
// place) and change list; in the publish phase it writes only its own
// snapshot. Every row is computed by the same float operations in the
// same order at any worker count, so the tables are bit-identical; the
// broadcast accounting stays serial in node order between rounds.
func ComputeWorkers(g *Graph, k, workers int) *Tables {
	if k < 1 {
		k = DefaultAlternatives
	}
	n := g.n
	t := &Tables{
		n:             n,
		dist:          make([]float64, n*n),
		hops:          make([]int32, n*n),
		perNodeBcasts: make([]int, n),
	}
	// pub[i] is node i's snapshot from the last round, chg[i] the
	// destinations it changes this round (dirty dedupes them); all are
	// carved from one backing each and reused every round.
	pub := make([][]vecEntry, n)
	chg := make([][]int32, n)
	pubBuf := make([]vecEntry, n*n)
	chgBuf := make([]int32, n*n)
	dirty := make([]bool, n*n)
	zone.For(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dist, hops := t.dist[i*n:(i+1)*n], t.hops[i*n:(i+1)*n]
			for d := range dist {
				dist[d] = math.Inf(1)
				hops[d] = -1
			}
			dist[i], hops[i] = 0, 0
			// Round 0: every node announces its initial vector, in which
			// only the distance 0 to itself is finite.
			pub[i] = append(pubBuf[i*n:i*n:(i+1)*n], vecEntry{dest: int32(i)})
			chg[i] = chgBuf[i*n : i*n : (i+1)*n]
		}
	})
	for {
		anyChanged := false
		for i := range pub {
			if len(pub[i]) > 0 {
				anyChanged = true
				t.broadcasts++
				t.perNodeBcasts[i]++
			}
		}
		if !anyChanged {
			break
		}
		t.rounds++

		zone.For(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dist, hops, dirt := t.dist[i*n:(i+1)*n], t.hops[i*n:(i+1)*n], dirty[i*n:(i+1)*n]
				changed := chg[i][:0]
				for _, e := range g.adj[i] {
					changed = relax(dist, hops, dirt, changed, int32(i), e.WeightMW, pub[e.To])
				}
				chg[i] = changed
			}
		})
		zone.For(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dist, hops, dirt := t.dist[i*n:(i+1)*n], t.hops[i*n:(i+1)*n], dirty[i*n:(i+1)*n]
				snap := pub[i][:0]
				for _, d := range chg[i] {
					dirt[d] = false
					snap = append(snap, vecEntry{dest: d, hops: hops[d], cost: dist[d]})
				}
				pub[i] = snap
			}
		})
	}

	for _, adj := range g.adj {
		t.k = max(t.k, min(k, len(adj)))
	}
	t.adj, t.next, t.top = g.adj, make([]int32, n*n), make([]Entry, 0, t.k)
	return t
}

// relax offers node self, whose row is dist/hops, the entries one neighbor
// published, reached over a link of weight w. It returns changed extended
// by each destination that improved for the first time this round. It is
// a function of its own, not part of the kernel closure, so that its loop
// state stays in registers. The relax test is the dense kernel's cost
// test, float expression for float expression. The dense kernel's second
// clause — an equal cost over fewer hops — cannot fire in rounds that
// start from scratch (DESIGN.md §8), so it is not repeated here. Self's
// own entry (0 cost, 0 hops) can never pass the test with positive link
// weights, so the skip sits after it, off the hot path.
func relax(dist []float64, hops []int32, dirty []bool, changed []int32, self int32, w float64, snap []vecEntry) []int32 {
	hops, dirty = hops[:len(dist)], dirty[:len(dist)] // one bounds check on d covers all three rows
	for _, v := range snap {
		d := v.dest
		cand, h := w+v.cost, 1+v.hops
		if cand < dist[d]-costEpsilon {
			if d == self {
				continue
			}
			dist[d], hops[d] = cand, h
			if !dirty[d] {
				dirty[d] = true
				changed = append(changed, d)
			}
		}
	}
	return changed
}

// costEpsilon absorbs float error when comparing accumulated link weights.
const costEpsilon = 1e-12

func approxEqual(a, b float64) bool { return math.Abs(a-b) <= costEpsilon }

// compareRoutes orders route candidates: lower cost beyond costEpsilon,
// then fewer hops, then the lower next-hop id. A pair's candidates have
// distinct next hops, so under ComputeWorkers' exactness condition this
// is a strict total order.
func compareRoutes(a, b Entry) int {
	if !approxEqual(a.Cost, b.Cost) {
		if a.Cost < b.Cost {
			return -1
		}
		return 1
	}
	if a.Hops != b.Hops {
		return a.Hops - b.Hops
	}
	return int(a.NextHop) - int(b.NextHop)
}

// derive fills top with src→dst's best cap(top) alternatives, best first:
// the candidate via each neighbor j costs w(src,j) + dist(j,dst), kept by
// insertion as it arrives. Because compareRoutes is a strict total order,
// that selects the first cap(top) of the sorted candidate list. Nothing it
// reads changes after ComputeWorkers, so the read order does not matter.
func (t *Tables) derive(top []Entry, src, dst int) []Entry {
	top = top[:0]
	if src == dst {
		return top
	}
	n := t.n
	for _, e := range t.adj[src] {
		j := int(e.To)
		if math.IsInf(t.dist[j*n+dst], 1) {
			continue
		}
		top = insertTopK(top, Entry{
			NextHop: e.To,
			Cost:    e.WeightMW + t.dist[j*n+dst],
			Hops:    1 + int(t.hops[j*n+dst]),
		})
	}
	return top
}

// insertTopK inserts c into top, kept sorted by compareRoutes, and drops
// the worst entry when top is already at its capacity.
func insertTopK(top []Entry, c Entry) []Entry {
	p := len(top)
	for p > 0 && compareRoutes(c, top[p-1]) < 0 {
		p--
	}
	if p == cap(top) {
		return top
	}
	if len(top) < cap(top) {
		top = top[:len(top)+1]
	}
	copy(top[p+1:], top[p:])
	top[p] = c
	return top
}

// Rounds returns how many synchronous rounds DBF took to converge.
func (t *Tables) Rounds() int { return t.rounds }

// Broadcasts returns the total number of distance-vector broadcasts, the
// unit of routing-convergence cost.
func (t *Tables) Broadcasts() int { return t.broadcasts }

// NodeBroadcasts returns how many vector broadcasts node id made.
func (t *Tables) NodeBroadcasts(id packet.NodeID) int {
	t.check(id)
	return t.perNodeBcasts[id]
}

func (t *Tables) check(id packet.NodeID) {
	if id < 0 || int(id) >= t.n {
		panic(fmt.Sprintf("routing: node id %d out of range [0,%d)", id, t.n))
	}
}

// Routes returns up to k alternative entries for src→dst, best first,
// derived on each call into a fresh slice that is the caller's.
func (t *Tables) Routes(src, dst packet.NodeID) []Entry {
	t.check(src)
	t.check(dst)
	return t.derive(make([]Entry, 0, t.k), int(src), int(dst))
}

// NextHop returns the primary next hop for src→dst, entry 0 of Routes,
// derived on the pair's first read and cached.
func (t *Tables) NextHop(src, dst packet.NodeID) (packet.NodeID, bool) {
	t.check(src)
	t.check(dst)
	pair := int(src)*t.n + int(dst)
	if t.next[pair] == 0 {
		t.next[pair] = -1
		if top := t.derive(t.top, int(src), int(dst)); len(top) > 0 {
			t.next[pair] = int32(top[0].NextHop) + 1
		}
	}
	if h := t.next[pair]; h > 0 {
		return packet.NodeID(h - 1), true
	}
	return packet.None, false
}

// Cost returns the shortest-path cost src→dst in summed milliwatts.
func (t *Tables) Cost(src, dst packet.NodeID) (float64, bool) {
	t.check(src)
	t.check(dst)
	d := t.dist[int(src)*t.n+int(dst)]
	if math.IsInf(d, 1) {
		return 0, false
	}
	return d, true
}

// Hops returns the hop count of the shortest path src→dst.
func (t *Tables) Hops(src, dst packet.NodeID) (int, bool) {
	t.check(src)
	t.check(dst)
	pair := int(src)*t.n + int(dst)
	if math.IsInf(t.dist[pair], 1) {
		return 0, false
	}
	return int(t.hops[pair]), true
}

// Path materializes the primary route src→dst by following next hops.
// Returns nil if dst is unreachable. The result includes both endpoints.
func (t *Tables) Path(src, dst packet.NodeID) []packet.NodeID {
	t.check(src)
	t.check(dst)
	if src == dst {
		return []packet.NodeID{src}
	}
	path := []packet.NodeID{src}
	cur := src
	for cur != dst {
		next, ok := t.NextHop(cur, dst)
		if !ok {
			return nil
		}
		path = append(path, next)
		cur = next
		if len(path) > t.n {
			// A loop would indicate inconsistent tables; DBF on a static
			// snapshot cannot produce one, so this is a bug guard.
			panic(fmt.Sprintf("routing: next-hop loop from %d to %d: %v", src, dst, path))
		}
	}
	return path
}

// CtrlEntryBytes is the on-air size of one distance-vector entry
// (destination id + path cost), the unit a DBF broadcast's payload scales
// with.
const CtrlEntryBytes = 4

// ChargeConvergenceEnergy charges one DBF execution's radio traffic to the
// energy account: each vector broadcast is a control packet at maximum
// power carrying the broadcaster's distance vector — CtrlEntryBytes per
// zone destination, floored at the base CTRL size — received by every zone
// neighbor. This is the cost §5.1.3 includes in SPMS's mobility-scenario
// energy.
func ChargeConvergenceEnergy(t *Tables, f *topo.Field, sizes packet.Sizes, acct *metrics.EnergyAccount) {
	m := f.Model()
	for i := 0; i < t.n; i++ {
		id := packet.NodeID(i)
		b := t.perNodeBcasts[i]
		if b == 0 {
			continue
		}
		neighbors := f.ZoneNeighbors(id)
		vectorBytes := CtrlEntryBytes * (1 + len(neighbors))
		if base := sizes.Of(packet.CTRL); vectorBytes < base {
			vectorBytes = base
		}
		txE := m.TxEnergy(vectorBytes, radio.MaxPower)
		rxE := m.RxEnergy(vectorBytes)
		acct.AddCtrl(id, radio.Energy(float64(b))*txE)
		for _, nb := range neighbors {
			acct.AddCtrl(nb, radio.Energy(float64(b))*rxE)
		}
	}
}
