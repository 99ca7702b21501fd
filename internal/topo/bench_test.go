package topo

// Micro-benchmarks of the topology layer: the warm ReachedBy and
// Contenders queries (each asserts in its body that it allocates
// nothing), the count-only MaxContenders pass, and the neighbor-cache
// rebuild after a mobility event.

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// benchField builds the benchmark topology: an n-node grid at the paper's
// 5 m spacing with a 20 m zone radius — 169 is the paper's standard field,
// 1024 the stress-campaign grid.
func benchField(b *testing.B, n int) *Field {
	b.Helper()
	m, err := radio.ScaledMICA2(20)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewGridField(n, 5, m)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// benchSink keeps query results observable so the compiler cannot elide the
// benchmark body.
var benchSink int

// assertQueryAllocFree fails the benchmark if the steady-state query path
// allocates: the spatial-index contract is 0 allocs/op once caches are warm.
func assertQueryAllocFree(b *testing.B, query func()) {
	b.Helper()
	query() // warm every cache the query touches
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		b.Fatalf("steady-state query allocates %v per run, want 0", allocs)
	}
}

// BenchmarkReachedBy measures the broadcast recipient-list query across all
// power levels on a warm cache: O(1) slice handout, asserted 0 allocs/op.
func BenchmarkReachedBy(b *testing.B) {
	for _, n := range []int{169, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := benchField(b, n)
			center := packet.NodeID(f.N() / 2)
			levels := f.Model().MinPower()
			query := func() {
				for l := radio.MaxPower; l <= levels; l++ {
					benchSink += len(f.ReachedBy(center, l))
				}
			}
			assertQueryAllocFree(b, query)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query()
			}
		})
	}
}

// BenchmarkContenders measures the MAC contention-count lookup across all
// power levels on a warm cache: a cached length, asserted 0 allocs/op.
func BenchmarkContenders(b *testing.B) {
	for _, n := range []int{169, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := benchField(b, n)
			center := packet.NodeID(f.N() / 2)
			levels := f.Model().MinPower()
			query := func() {
				for l := radio.MaxPower; l <= levels; l++ {
					benchSink += f.Contenders(center, l)
				}
			}
			assertQueryAllocFree(b, query)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query()
			}
		})
	}
}

// BenchmarkMaxContenders measures the count-only max-contender pass SPIN
// runs once per trial, on uniform fields at the grid's density (the
// scale-1e5 benchmark's field at n=100000). It builds no neighbor cache,
// so every iteration does the whole pass.
func BenchmarkMaxContenders(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m, err := radio.ScaledMICA2(20)
			if err != nil {
				b.Fatal(err)
			}
			side := float64(geom.GridSide(n)-1) * DefaultGridSpacing
			f, err := NewUniformField(n, geom.Rect{Max: geom.Point{X: side, Y: side}}, m, sim.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += f.MaxContenders(radio.MaxPower)
			}
		})
	}
}

// BenchmarkZoneNeighborsRebuild measures the topology cache rebuild after a
// mobility event, comparing incremental invalidation (the production path:
// only the neighborhoods a mover leaves and enters are stamped dirty)
// against forcing the pre-index full-discard behavior (InvalidateAll).
// Each iteration performs one mobility event and then a full-field query
// wave, so deferred lazy rebuilds are paid inside the measurement. Two
// event shapes: a single Move (incrementality's best case — one zone's
// worth of rebuilds vs the whole field) and the paper's 5% relocation wave
// (whose scattered movers dirty most of a dense field either way; the win
// there is the O(neighbors) grid rebuild itself, not the stamping).
func BenchmarkZoneNeighborsRebuild(b *testing.B) {
	queryAll := func(f *Field) {
		for i := 0; i < f.N(); i++ {
			benchSink += len(f.ZoneNeighbors(packet.NodeID(i)))
		}
	}
	for _, n := range []int{169, 1024} {
		events := []struct {
			name string
			do   func(f *Field, rng *sim.RNG)
		}{
			{"move1", func(f *Field, rng *sim.RNG) {
				id := packet.NodeID(rng.Intn(f.N()))
				f.Move(id, geom.Point{
					X: f.Bounds().Width() * rng.Float64(),
					Y: f.Bounds().Height() * rng.Float64(),
				})
			}},
			{"relocate5pct", func(f *Field, rng *sim.RNG) {
				f.RelocateFraction(0.05, rng)
			}},
		}
		for _, ev := range events {
			b.Run(fmt.Sprintf("n=%d/%s/incremental", n, ev.name), func(b *testing.B) {
				f := benchField(b, n)
				rng := sim.NewRNG(1)
				queryAll(f) // start from a fully warm cache
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.do(f, rng)
					queryAll(f)
				}
			})
			b.Run(fmt.Sprintf("n=%d/%s/full", n, ev.name), func(b *testing.B) {
				f := benchField(b, n)
				rng := sim.NewRNG(1)
				queryAll(f)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.do(f, rng)
					f.InvalidateAll()
					queryAll(f)
				}
			})
		}
	}
}
