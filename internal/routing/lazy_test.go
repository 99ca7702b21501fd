package routing

// Routes are derived on read: these pin that the derivation is exact in any
// read order, that NextHop answers a repeated read from its cache, that
// Routes hands out slices the caller owns, and that a table keeps 16 bytes
// per ordered pair and no route entries at all.

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestNextHopMatchesDenseReference checks every pair's NextHop against
// entry 0 of the dense oracle's routes, reading the pairs in row order on
// one table and in a seeded shuffle on another, at k = 1..3 on grid and
// uniform fields before and after a 5% relocation. Before each pair's
// first NextHop the test overwrites what Routes returned for it, which
// must change neither NextHop nor a later Routes, and the slice Routes
// returned for the previous pair must survive this pair's reads. After
// the pass it removes the graph the table derives from, and a second read
// must still give every hop, from the cache.
func TestNextHopMatchesDenseReference(t *testing.T) {
	m, err := radio.ScaledMICA2(20)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	side := float64(geom.GridSide(n)-1) * 5
	rowOrder := make([]int, n*n)
	for i := range rowOrder {
		rowOrder[i] = i
	}
	for _, p := range []struct {
		name  string
		build func(rng *sim.RNG) (*topo.Field, error)
	}{
		{"grid", func(*sim.RNG) (*topo.Field, error) { return topo.NewGridField(n, 5, m) }},
		{"uniform", func(rng *sim.RNG) (*topo.Field, error) {
			return topo.NewUniformField(n, geom.Rect{Max: geom.Point{X: side, Y: side}}, m, rng)
		}},
	} {
		for _, relocate := range []float64{0, 0.05} {
			t.Run(p.name+"/relocate="+strconv.FormatFloat(relocate, 'g', -1, 64), func(t *testing.T) {
				rng := sim.NewRNG(3)
				f, err := p.build(rng)
				if err != nil {
					t.Fatal(err)
				}
				f.RelocateFraction(relocate, rng)
				g := BuildGraphWorkers(f, 1)
				want := refCompute(g, 3, 1)
				for k := 1; k <= 3; k++ {
					for _, order := range [][]int{rowOrder, sim.NewRNG(int64(k)).Perm(n * n)} {
						assertLazyReads(t, ComputeWorkers(g, k, 1), want, k, order)
					}
				}
			})
		}
	}
}

// assertLazyReads reads got's pairs in order and compares each with the
// reference, as TestNextHopMatchesDenseReference describes.
func assertLazyReads(t *testing.T, got *Tables, want *refTables, k int, order []int) {
	t.Helper()
	n := want.n
	hops := make([]packet.NodeID, n*n)
	var prev, prevWant []Entry
	for _, pair := range order {
		src, dst := packet.NodeID(pair/n), packet.NodeID(pair%n)
		wrs := want.routes[src][dst]
		wrs = wrs[:min(k, len(wrs))]
		for i, rs := 0, got.Routes(src, dst); i < len(rs); i++ {
			rs[i] = Entry{NextHop: -2, Cost: math.NaN(), Hops: -2}
		}
		hop, ok := got.NextHop(src, dst)
		if ok != (len(wrs) > 0) || (ok && hop != wrs[0].NextHop) {
			t.Fatalf("k=%d NextHop %d->%d = %d (ok %v), reference %v", k, src, dst, hop, ok, wrs)
		}
		rs := got.Routes(src, dst)
		assertRoutes(t, rs, wrs, "k=%d %d->%d after overwriting a copy", k, src, dst)
		assertRoutes(t, prev, prevWant, "k=%d the pair before %d->%d, held across its reads", k, src, dst)
		prev, prevWant = rs, wrs
		hops[pair] = hop
	}
	got.adj = nil // a pair derived again would now panic
	for _, pair := range order {
		src, dst := packet.NodeID(pair/n), packet.NodeID(pair%n)
		if hop, ok := got.NextHop(src, dst); hop != hops[pair] || ok != (hop != packet.None) {
			t.Fatalf("k=%d repeated NextHop %d->%d = %d (ok %v), first read %d", k, src, dst, hop, ok, hops[pair])
		}
	}
}

// assertRoutes compares rs with the reference wrs bit for bit.
func assertRoutes(t *testing.T, rs, wrs []Entry, format string, args ...any) {
	t.Helper()
	if len(rs) != len(wrs) {
		t.Fatalf(format+": %d routes, reference %d", append(args, len(rs), len(wrs))...)
	}
	for r := range wrs {
		if rs[r].NextHop != wrs[r].NextHop || rs[r].Hops != wrs[r].Hops ||
			math.Float64bits(rs[r].Cost) != math.Float64bits(wrs[r].Cost) {
			t.Fatalf(format+": route %d is %+v, reference %+v", append(args, r, rs[r], wrs[r])...)
		}
	}
}

// keptBytes sums cap × element size over every slice v reaches through
// pointers, struct fields and slices of slices: the heap a value keeps
// alive through its slices.
func keptBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return keptBytes(v.Elem())
	case reflect.Struct:
		b := 0
		for i := 0; i < v.NumField(); i++ {
			b += keptBytes(v.Field(i))
		}
		return b
	case reflect.Slice:
		b := v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			b += keptBytes(v.Index(i))
		}
		return b
	}
	return 0
}

// TestTablesMemoryPerPair pins routing memory on the 225-node grid at the
// paper's 5 m spacing and 20 m zone, before and after a 5% relocation. A
// table keeps 16 bytes per ordered pair (cost, hop count, cached next
// hop); everything else it keeps is per node, the graph it derives from
// aside, and reading every pair adds nothing. One ComputeWorkers allocates
// at most 40 bytes per ordered pair, the kept 16 plus the DBF's publish
// buffers, change lists and dirty flags.
func TestTablesMemoryPerPair(t *testing.T) {
	const (
		keptPerPair  = 16
		perNode      = 64
		allocPerPair = 40
		n            = 225
		pairs        = n * n
	)
	for _, relocate := range []float64{0, 0.05} {
		f := gridField(t, n, 5, 20)
		f.RelocateFraction(relocate, sim.NewRNG(1))
		g := BuildGraphWorkers(f, 1)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tbl := ComputeWorkers(g, DefaultAlternatives, 1)
		runtime.ReadMemStats(&after)
		alloc := float64(after.TotalAlloc-before.TotalAlloc) / pairs

		graph := keptBytes(reflect.ValueOf(g.adj))
		kept := keptBytes(reflect.ValueOf(tbl))
		t.Logf("relocate=%g: allocated %.1f B/pair, kept %.1f B/pair (%.2f MB beside the %.2f MB graph)",
			relocate, alloc, float64(kept-graph)/pairs, float64(kept-graph)/1e6, float64(graph)/1e6)
		if extra := kept - graph - keptPerPair*pairs; extra < 0 || extra > perNode*n {
			t.Errorf("relocate=%g: table keeps %d B beside its graph, want %d B per pair plus at most %d B per node",
				relocate, kept-graph, keptPerPair, perNode)
		}
		if alloc > allocPerPair {
			t.Errorf("relocate=%g: ComputeWorkers allocated %.1f B per ordered pair, want ≤ %d", relocate, alloc, allocPerPair)
		}

		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				tbl.NextHop(packet.NodeID(s), packet.NodeID(d))
			}
		}
		if read := keptBytes(reflect.ValueOf(tbl)); read != kept {
			t.Errorf("relocate=%g: reading every pair changed the bytes kept from %d to %d", relocate, kept, read)
		}
	}
}

// TestCompactLayout pins the size of a graph edge, which the graph keeps
// per directed link: a field that regrows it fails here with the type's
// name.
func TestCompactLayout(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	typ := reflect.TypeFor[Edge]()
	if got, want := typ.Size(), uintptr(16); got != want {
		t.Errorf("%v is %d bytes, want %d", typ, got, want)
	}
}
