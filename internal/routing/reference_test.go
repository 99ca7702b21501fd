package routing

// The reference oracle: the dense synchronous DBF and the sort-based route
// derivation the delta-vector kernel replaced, kept verbatim apart from
// their names. ComputeWorkers must reproduce their tables bit for bit
// (every cost's float bits, every hop count, every route entry, the round
// and broadcast counts) on every field the suite below builds, before and
// after nodes relocate and at one and four workers. The dense kernel
// relaxes every broadcaster's whole vector each round, so it costs
// O(rounds·Σdeg·n): keep its fields small (≤ 49 nodes at the large radii).

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/zone"
)

// refTables is the reference's output, in its original jagged layout.
type refTables struct {
	n      int
	k      int
	dist   [][]float64 // dist[i][d]: shortest cost i→d (math.Inf if none)
	hops   [][]int     // hops on the shortest path
	routes [][][]Entry // routes[i][d]: up to k entries, best first

	rounds        int
	broadcasts    int
	perNodeBcasts []int
}

func refCompute(g *Graph, k, workers int) *refTables {
	if k < 1 {
		k = DefaultAlternatives
	}
	n := g.n
	t := &refTables{
		n:             n,
		k:             k,
		dist:          make([][]float64, n),
		hops:          make([][]int, n),
		routes:        make([][][]Entry, n),
		perNodeBcasts: make([]int, n),
	}
	// Round 0: every node announces its initial vector (distance 0 to
	// itself) to its neighbors. The two vector generations are
	// double-buffered and swapped between rounds — the synchronous
	// read-old/write-new update without reallocating O(N²) state per round.
	changed := make([]bool, n)
	next := make([]bool, n)
	newDist := make([][]float64, n)
	newHops := make([][]int, n)
	zone.For(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t.dist[i] = make([]float64, n)
			t.hops[i] = make([]int, n)
			for d := 0; d < n; d++ {
				if i == d {
					t.dist[i][d] = 0
				} else {
					t.dist[i][d] = math.Inf(1)
					t.hops[i][d] = -1
				}
			}
			changed[i] = true
			newDist[i] = make([]float64, n)
			newHops[i] = make([]int, n)
		}
	})
	inf := math.Inf(1)
	for {
		anyChanged := false
		for i := range changed {
			if changed[i] {
				anyChanged = true
				t.broadcasts++
				t.perNodeBcasts[i]++
			}
		}
		if !anyChanged {
			break
		}
		t.rounds++

		// Each node recomputes from the vectors its neighbors broadcast
		// this round. Disjoint writes: node i's worker owns next[i],
		// newDist[i], newHops[i] and reads only previous-generation state.
		zone.For(workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				next[i] = false
				di, hops := newDist[i], newHops[i]
				copy(di, t.dist[i])
				copy(hops, t.hops[i])
				for _, e := range g.adj[i] {
					if !changed[e.To] {
						continue // that neighbor did not broadcast this round
					}
					dj, hj := t.dist[e.To], t.hops[e.To]
					w := e.WeightMW
					for d := 0; d < n; d++ {
						if i == d || dj[d] == inf {
							continue
						}
						cand := w + dj[d]
						if cand < di[d]-costEpsilon ||
							(approxEqual(cand, di[d]) && 1+hj[d] < hops[d]) {
							di[d] = cand
							hops[d] = 1 + hj[d]
							next[i] = true
						}
					}
				}
			}
		})
		t.dist, newDist = newDist, t.dist
		t.hops, newHops = newHops, t.hops
		changed, next = next, changed
	}

	t.deriveRoutes(g, workers)
	return t
}

func (t *refTables) deriveRoutes(g *Graph, workers int) {
	zone.For(workers, t.n, func(_, lo, hi int) {
		var scratch []Entry
		arena := make([]Entry, 0, t.n*t.k) // grown in whole-row steps as needed
		for i := lo; i < hi; i++ {
			t.routes[i] = make([][]Entry, t.n)
			for d := 0; d < t.n; d++ {
				if i == d {
					continue
				}
				cands := scratch[:0]
				for _, e := range g.adj[i] {
					j := int(e.To)
					if math.IsInf(t.dist[j][d], 1) {
						continue
					}
					cands = append(cands, Entry{
						NextHop: e.To,
						Cost:    e.WeightMW + t.dist[j][d],
						Hops:    1 + t.hops[j][d],
					})
				}
				scratch = cands
				slices.SortFunc(cands, func(a, b Entry) int {
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
				})
				if len(cands) > t.k {
					cands = cands[:t.k]
				}
				if len(cands) == 0 {
					continue
				}
				if cap(arena)-len(arena) < len(cands) {
					arena = make([]Entry, 0, t.n*t.k)
				}
				start := len(arena)
				arena = append(arena, cands...)
				t.routes[i][d] = arena[start:len(arena):len(arena)]
			}
		}
	})
}

// assertMatchesReference compares got, computed with k alternatives,
// against the reference bit for bit through the public accessors. want may
// keep more alternatives than k: the reference sorts every candidate list
// and truncates it to its k, so its first k entries are the k-reference.
func assertMatchesReference(t *testing.T, got *Tables, want *refTables, k int) {
	t.Helper()
	if got.Rounds() != want.rounds || got.Broadcasts() != want.broadcasts {
		t.Fatalf("rounds/broadcasts %d/%d, reference %d/%d",
			got.Rounds(), got.Broadcasts(), want.rounds, want.broadcasts)
	}
	for i := 0; i < want.n; i++ {
		src := packet.NodeID(i)
		if b := got.NodeBroadcasts(src); b != want.perNodeBcasts[i] {
			t.Fatalf("node %d broadcasts %d, reference %d", i, b, want.perNodeBcasts[i])
		}
		for d := 0; d < want.n; d++ {
			dst := packet.NodeID(d)
			wantCost, reachable := want.dist[i][d], !math.IsInf(want.dist[i][d], 1)
			cost, ok := got.Cost(src, dst)
			if ok != reachable || (ok && math.Float64bits(cost) != math.Float64bits(wantCost)) {
				t.Fatalf("cost %d->%d = %v (ok %v), reference %v", i, d, cost, ok, wantCost)
			}
			hops, ok := got.Hops(src, dst)
			if ok != reachable || (ok && hops != want.hops[i][d]) {
				t.Fatalf("hops %d->%d = %d (ok %v), reference %d", i, d, hops, ok, want.hops[i][d])
			}
			rs, wrs := got.Routes(src, dst), want.routes[i][d]
			wrs = wrs[:min(k, len(wrs))]
			if len(rs) != len(wrs) {
				t.Fatalf("%d->%d: %d routes, reference %d", i, d, len(rs), len(wrs))
			}
			for r := range wrs {
				if rs[r].NextHop != wrs[r].NextHop || rs[r].Hops != wrs[r].Hops ||
					math.Float64bits(rs[r].Cost) != math.Float64bits(wrs[r].Cost) {
					t.Fatalf("%d->%d route %d: %+v, reference %+v", i, d, r, rs[r], wrs[r])
				}
			}
		}
	}
}

func TestComputeMatchesDenseReference(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	type placement struct {
		name  string
		build func(n int, m *radio.Model, rng *sim.RNG) (*topo.Field, error)
	}
	side := func(n int) float64 { return float64(geom.GridSide(n)-1) * 5 }
	placements := []placement{
		{"grid", func(n int, m *radio.Model, _ *sim.RNG) (*topo.Field, error) {
			return topo.NewGridField(n, 5, m)
		}},
		{"uniform", func(n int, m *radio.Model, rng *sim.RNG) (*topo.Field, error) {
			return topo.NewUniformField(n, geom.Rect{Max: geom.Point{X: side(n), Y: side(n)}}, m, rng)
		}},
		{"clustered", func(n int, m *radio.Model, rng *sim.RNG) (*topo.Field, error) {
			return topo.NewClusteredField(n, 4, 10, geom.Rect{Max: geom.Point{X: side(n), Y: side(n)}}, m, rng)
		}},
		{"chain", func(n int, m *radio.Model, _ *sim.RNG) (*topo.Field, error) {
			return topo.NewChainField(n, 5, m)
		}},
	}
	// Fields shrink as the radius grows: the dense reference's cost scales
	// with the degree, and at 91.44 m every node hears every other.
	for _, size := range []struct {
		radius float64
		n      int
	}{{10, 100}, {20, 64}, {35, 49}, {91.44, 36}} {
		radius, n := size.radius, size.n
		m, err := radio.ScaledMICA2(radius)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range placements {
			t.Run(p.name+"/r="+strconv.FormatFloat(radius, 'g', -1, 64), func(t *testing.T) {
				rng := sim.NewRNG(int64(radius * 100))
				f, err := p.build(n, m, rng)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 3; step++ {
					if step > 0 {
						f.RelocateFraction(0.1, rng)
					}
					g := BuildGraphWorkers(f, 1)
					want := refCompute(g, 3, 1)
					for k := 1; k <= 3; k++ {
						assertMatchesReference(t, ComputeWorkers(g, k, 1), want, k)
					}
					// k changes only the route derivation's run length, not
					// the parallel DBF path; one 4-worker compute ties that
					// path to the oracle (TestComputeWorkersMatchesSerial
					// compares more worker counts with the serial kernel).
					assertMatchesReference(t, ComputeWorkers(g, 3, 4), want, 3)
				}
			})
		}
	}
}
