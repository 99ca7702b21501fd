package routing

import (
	"container/heap"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

func gridField(t testing.TB, n int, spacing, zoneRadius float64) *topo.Field {
	t.Helper()
	m, err := radio.ScaledMICA2(zoneRadius)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewGridField(n, spacing, m)
	if err != nil {
		t.Fatalf("NewGridField: %v", err)
	}
	return f
}

// dijkstra is the oracle: single-source shortest path over the same graph.
func dijkstra(g *Graph, src packet.NodeID) []float64 {
	const inf = math.MaxFloat64
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	pq := &distHeap{{int(src), 0}}
	for pq.Len() > 0 {
		item, ok := heap.Pop(pq).(distItem)
		if !ok {
			panic("bad heap item")
		}
		if item.d > dist[item.id] {
			continue
		}
		for _, e := range g.Neighbors(packet.NodeID(item.id)) {
			nd := item.d + e.WeightMW
			if nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(pq, distItem{int(e.To), nd})
			}
		}
	}
	for i := range dist {
		if dist[i] == inf {
			dist[i] = math.Inf(1)
		}
	}
	return dist
}

type distItem struct {
	id int
	d  float64
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func TestBuildGraphSymmetric(t *testing.T) {
	f := gridField(t, 25, 5, 12)
	g := BuildGraphWorkers(f, 1)
	if g.N() != 25 {
		t.Fatalf("N=%d, want 25", g.N())
	}
	// Undirected field ⇒ symmetric adjacency with equal weights.
	for i := 0; i < g.N(); i++ {
		for _, e := range g.Neighbors(packet.NodeID(i)) {
			found := false
			for _, back := range g.Neighbors(e.To) {
				if back.To == packet.NodeID(i) {
					found = true
					if back.WeightMW != e.WeightMW {
						t.Fatalf("asymmetric weight %d<->%d", i, e.To)
					}
				}
			}
			if !found {
				t.Fatalf("edge %d->%d has no reverse", i, e.To)
			}
		}
	}
}

func TestBuildGraphWeightsAreMinimumPower(t *testing.T) {
	f := gridField(t, 9, 5, 12)
	g := BuildGraphWorkers(f, 1)
	m := f.Model()
	for i := 0; i < g.N(); i++ {
		for _, e := range g.Neighbors(packet.NodeID(i)) {
			wantLevel, ok := f.LevelTo(packet.NodeID(i), e.To)
			if !ok {
				t.Fatalf("edge %d->%d beyond range", i, e.To)
			}
			if e.Level != wantLevel || e.WeightMW != m.PowerMW(wantLevel) {
				t.Fatalf("edge %d->%d level=%v w=%v, want %v/%v",
					i, e.To, e.Level, e.WeightMW, wantLevel, m.PowerMW(wantLevel))
			}
		}
	}
}

func TestDBFMatchesDijkstraOnGrid(t *testing.T) {
	f := gridField(t, 49, 5, 15)
	g := BuildGraphWorkers(f, 1)
	tbl := ComputeWorkers(g, 2, 1)
	for src := 0; src < g.N(); src++ {
		oracle := dijkstra(g, packet.NodeID(src))
		for dst := 0; dst < g.N(); dst++ {
			got, ok := tbl.Cost(packet.NodeID(src), packet.NodeID(dst))
			if math.IsInf(oracle[dst], 1) {
				if ok && src != dst {
					t.Fatalf("DBF found route %d->%d, oracle says unreachable", src, dst)
				}
				continue
			}
			if src == dst {
				continue
			}
			if !ok {
				t.Fatalf("DBF missing route %d->%d", src, dst)
			}
			if math.Abs(got-oracle[dst]) > 1e-9 {
				t.Fatalf("cost %d->%d = %v, oracle %v", src, dst, got, oracle[dst])
			}
		}
	}
}

func TestDBFMatchesDijkstraOnRandomFieldsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		m, err := radio.ScaledMICA2(18)
		if err != nil {
			return false
		}
		bounds := geom.Rect{Max: geom.Point{X: 40, Y: 40}}
		f, err := topo.NewUniformField(20, bounds, m, rng)
		if err != nil {
			return false
		}
		g := BuildGraphWorkers(f, 1)
		tbl := ComputeWorkers(g, 2, 1)
		for src := 0; src < g.N(); src++ {
			oracle := dijkstra(g, packet.NodeID(src))
			for dst := 0; dst < g.N(); dst++ {
				if src == dst {
					continue
				}
				got, ok := tbl.Cost(packet.NodeID(src), packet.NodeID(dst))
				if math.IsInf(oracle[dst], 1) != !ok {
					return false
				}
				if ok && math.Abs(got-oracle[dst]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiHopCheaperThanDirect(t *testing.T) {
	// Chain 0-1-2 spaced 5 m with MICA2: direct 0→2 (10 m) needs level 4
	// (0.05 mW); two hops at level 5 cost 2×0.0125 = 0.025 mW. DBF must
	// choose the relay route — the core premise of SPMS.
	m := radio.MICA2()
	f, err := topo.NewChainField(3, 5, m)
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	cost, ok := tbl.Cost(0, 2)
	if !ok {
		t.Fatal("no route 0->2")
	}
	if math.Abs(cost-0.025) > 1e-9 {
		t.Fatalf("cost 0->2 = %v, want 0.025 (two min-power hops)", cost)
	}
	if hops, _ := tbl.Hops(0, 2); hops != 2 {
		t.Fatalf("hops 0->2 = %d, want 2", hops)
	}
	if next, _ := tbl.NextHop(0, 2); next != 1 {
		t.Fatalf("next hop 0->2 = %d, want 1", next)
	}
}

func TestRoutesDistinctNextHops(t *testing.T) {
	f := gridField(t, 25, 5, 15)
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	for src := 0; src < 25; src++ {
		for dst := 0; dst < 25; dst++ {
			if src == dst {
				continue
			}
			rs := tbl.Routes(packet.NodeID(src), packet.NodeID(dst))
			if len(rs) == 2 && rs[0].NextHop == rs[1].NextHop {
				t.Fatalf("duplicate next hop %d for %d->%d", rs[0].NextHop, src, dst)
			}
			if len(rs) == 2 && rs[1].Cost < rs[0].Cost {
				t.Fatalf("routes out of order for %d->%d: %v", src, dst, rs)
			}
			if len(rs) >= 1 && rs[0].Cost <= 0 {
				t.Fatalf("non-positive primary cost for %d->%d", src, dst)
			}
		}
	}
}

func TestRoutesRespectK(t *testing.T) {
	f := gridField(t, 25, 5, 15)
	g := BuildGraphWorkers(f, 1)
	for _, k := range []int{1, 2, 3} {
		tbl := ComputeWorkers(g, k, 1)
		maxSeen := 0
		for src := 0; src < 25; src++ {
			for dst := 0; dst < 25; dst++ {
				if src == dst {
					continue
				}
				if l := len(tbl.Routes(packet.NodeID(src), packet.NodeID(dst))); l > maxSeen {
					maxSeen = l
				}
			}
		}
		if maxSeen > k {
			t.Fatalf("k=%d but saw %d routes", k, maxSeen)
		}
	}
	// k<1 falls back to the default.
	tbl := ComputeWorkers(g, 0, 1)
	if got := len(tbl.Routes(0, 24)); got > DefaultAlternatives {
		t.Fatalf("default k exceeded: %d", got)
	}
}

func TestPathFollowsNextHops(t *testing.T) {
	f := gridField(t, 49, 5, 20)
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	for src := 0; src < 49; src += 7 {
		for dst := 0; dst < 49; dst += 5 {
			s, d := packet.NodeID(src), packet.NodeID(dst)
			path := tbl.Path(s, d)
			if src == dst {
				if len(path) != 1 || path[0] != s {
					t.Fatalf("self path = %v", path)
				}
				continue
			}
			if path == nil {
				if _, ok := tbl.Cost(s, d); ok {
					t.Fatalf("Path nil but Cost exists for %d->%d", src, dst)
				}
				continue
			}
			if path[0] != s || path[len(path)-1] != d {
				t.Fatalf("path endpoints wrong: %v", path)
			}
			if hops, _ := tbl.Hops(s, d); len(path)-1 != hops {
				t.Fatalf("path length %d != hops %d for %d->%d", len(path)-1, hops, src, dst)
			}
			// Path cost equals table cost.
			var sum float64
			for i := 0; i+1 < len(path); i++ {
				found := false
				for _, e := range BuildGraphWorkers(f, 1).Neighbors(path[i]) {
					if e.To == path[i+1] {
						sum += e.WeightMW
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("path uses nonexistent edge %d->%d", path[i], path[i+1])
				}
			}
			cost, _ := tbl.Cost(s, d)
			if math.Abs(sum-cost) > 1e-9 {
				t.Fatalf("path cost %v != table cost %v for %d->%d", sum, cost, src, dst)
			}
		}
	}
}

func TestSubpathOptimality(t *testing.T) {
	// Every suffix of a shortest path is itself shortest — this is what
	// makes hop-by-hop forwarding by per-node tables consistent.
	f := gridField(t, 36, 5, 18)
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	for src := 0; src < 36; src += 4 {
		for dst := 0; dst < 36; dst += 3 {
			if src == dst {
				continue
			}
			s, d := packet.NodeID(src), packet.NodeID(dst)
			path := tbl.Path(s, d)
			if path == nil {
				continue
			}
			full, _ := tbl.Cost(s, d)
			var consumed float64
			g := BuildGraphWorkers(f, 1)
			for i := 1; i < len(path)-1; i++ {
				for _, e := range g.Neighbors(path[i-1]) {
					if e.To == path[i] {
						consumed += e.WeightMW
						break
					}
				}
				rest, ok := tbl.Cost(path[i], d)
				if !ok {
					t.Fatalf("relay %d has no route to %d", path[i], d)
				}
				if math.Abs(consumed+rest-full) > 1e-9 {
					t.Fatalf("suffix from %d not optimal: %v+%v != %v", path[i], consumed, rest, full)
				}
			}
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two nodes 50 m apart with a 12 m zone: unreachable.
	m, err := radio.ScaledMICA2(12)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewChainField(2, 50, m)
	if err != nil {
		t.Fatalf("NewChainField: %v", err)
	}
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	if _, ok := tbl.Cost(0, 1); ok {
		t.Fatal("found route across disconnected graph")
	}
	if _, ok := tbl.NextHop(0, 1); ok {
		t.Fatal("NextHop for unreachable destination")
	}
	if p := tbl.Path(0, 1); p != nil {
		t.Fatalf("Path for unreachable destination: %v", p)
	}
	if hops, ok := tbl.Hops(0, 1); ok || hops != 0 {
		t.Fatal("Hops for unreachable destination")
	}
}

func TestConvergenceRoundsBounded(t *testing.T) {
	// DBF converges in O(diameter) rounds: for a 7×7 grid with 1-hop links
	// the hop diameter is 12, so rounds must be ≤ 12 + 2.
	f := gridField(t, 49, 5, 6)
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	if tbl.Rounds() > 14 {
		t.Fatalf("Rounds=%d, want ≤ 14", tbl.Rounds())
	}
	if tbl.Rounds() < 3 {
		t.Fatalf("Rounds=%d suspiciously small", tbl.Rounds())
	}
	if tbl.Broadcasts() < 49 {
		t.Fatalf("Broadcasts=%d, want ≥ one per node", tbl.Broadcasts())
	}
}

// TestDBFCountsPinned pins the DBF's deterministic rounds and broadcasts
// on BenchmarkDBFCompute's fields at the paper's 5 m spacing and 20 m zone
// radius: the 169-node grid, the 225-node grid, and that grid after a 5%
// relocation. If a count moves, the DBF's update semantics changed.
func TestDBFCountsPinned(t *testing.T) {
	for _, c := range []struct {
		name               string
		n                  int
		relocate           float64
		rounds, broadcasts int
	}{
		{"grid-169", 169, 0, 25, 3289},
		{"grid-225", 225, 0, 29, 5055},
		{"grid-225-relocated", 225, 0.05, 30, 5169},
	} {
		f := gridField(t, c.n, 5, 20)
		f.RelocateFraction(c.relocate, sim.NewRNG(1))
		for _, w := range []int{1, 4} {
			tbl := ComputeWorkers(BuildGraphWorkers(f, w), DefaultAlternatives, w)
			if tbl.Rounds() != c.rounds || tbl.Broadcasts() != c.broadcasts {
				t.Errorf("%s workers=%d: rounds/broadcasts %d/%d, want %d/%d",
					c.name, w, tbl.Rounds(), tbl.Broadcasts(), c.rounds, c.broadcasts)
			}
		}
	}
}

// BenchmarkDBFCompute measures one full Distributed Bellman-Ford
// convergence at the paper's 20 m zone radius: the standard 169-node field,
// the largest 225-node grid, and that grid after a 5% relocation — the
// recompute every §5.1.3 mobility event pays. Routes are derived on read,
// so this times the DBF alone. The rounds and broadcasts metrics are
// deterministic (TestDBFCountsPinned); if either moves, the routing
// semantics changed.
func BenchmarkDBFCompute(b *testing.B) {
	for _, bc := range []struct {
		name     string
		n        int
		relocate float64
	}{
		{"grid-169", 169, 0},
		{"grid-225", 225, 0},
		{"grid-225-relocated", 225, 0.05},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := gridField(b, bc.n, 5, 20)
			f.RelocateFraction(bc.relocate, sim.NewRNG(1))
			g := BuildGraphWorkers(f, 1)
			var tbl *Tables
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl = ComputeWorkers(g, DefaultAlternatives, 1)
			}
			b.ReportMetric(float64(tbl.Rounds()), "rounds")
			b.ReportMetric(float64(tbl.Broadcasts()), "broadcasts")
		})
	}
}

func TestNodeBroadcastsSumToTotal(t *testing.T) {
	f := gridField(t, 25, 5, 12)
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	sum := 0
	for i := 0; i < 25; i++ {
		sum += tbl.NodeBroadcasts(packet.NodeID(i))
	}
	if sum != tbl.Broadcasts() {
		t.Fatalf("per-node broadcasts %d != total %d", sum, tbl.Broadcasts())
	}
}

func TestChargeConvergenceEnergy(t *testing.T) {
	f := gridField(t, 25, 5, 12)
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	acct := metrics.NewEnergyAccount(25)
	ChargeConvergenceEnergy(tbl, f, packet.DefaultSizes(), acct)
	if acct.Total() <= 0 {
		t.Fatal("convergence energy must be positive")
	}
	br := acct.TotalBreakdown()
	if br.Tx != 0 || br.Rx != 0 {
		t.Fatal("convergence energy must be charged as Ctrl")
	}
	// Expected tx part: per-node broadcasts × vector-sized CTRL at max
	// power (4 bytes per destination entry, incl. self).
	m := f.Model()
	var wantTx float64
	for i := 0; i < 25; i++ {
		id := packet.NodeID(i)
		bytes := CtrlEntryBytes * (1 + len(f.ZoneNeighbors(id)))
		wantTx += float64(tbl.NodeBroadcasts(id)) * float64(m.TxEnergy(bytes, radio.MaxPower))
	}
	if float64(br.Ctrl) <= wantTx {
		t.Fatal("total ctrl energy should exceed tx-only (receivers charged)")
	}
	// The vector payload must dominate a minimal 2-byte packet's cost.
	minimal := float64(tbl.Broadcasts()) * float64(m.TxEnergy(2, radio.MaxPower))
	if wantTx <= minimal {
		t.Fatal("vector-sized control packets should cost more than 2-byte ones")
	}
}

func TestComputeDeterministic(t *testing.T) {
	f := gridField(t, 36, 5, 15)
	g := BuildGraphWorkers(f, 1)
	a, b := ComputeWorkers(g, 2, 1), ComputeWorkers(g, 2, 1)
	for src := 0; src < 36; src++ {
		for dst := 0; dst < 36; dst++ {
			if src == dst {
				continue
			}
			ra := a.Routes(packet.NodeID(src), packet.NodeID(dst))
			rb := b.Routes(packet.NodeID(src), packet.NodeID(dst))
			if len(ra) != len(rb) {
				t.Fatalf("route count differs for %d->%d", src, dst)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("route %d differs for %d->%d: %v vs %v", i, src, dst, ra[i], rb[i])
				}
			}
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	f := gridField(t, 4, 5, 12)
	tbl := ComputeWorkers(BuildGraphWorkers(f, 1), 2, 1)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Routes", func() { tbl.Routes(9, 0) }},
		{"Cost", func() { tbl.Cost(0, -1) }},
		{"NodeBroadcasts", func() { tbl.NodeBroadcasts(7) }},
		{"GraphNeighbors", func() { BuildGraphWorkers(f, 1).Neighbors(11) }},
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
