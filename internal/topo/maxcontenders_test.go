package topo

// MaxContenders checks: the count-only kernel must equal the largest
// cached Contenders on every placement, radio scale and power level,
// before and after mobility; and it must build no neighbor cache and
// allocate a constant number of slices whatever the field size.

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// maxByCache is the reference the kernel must match: the largest
// Contenders(id, l) over every node, each read through the neighbor cache
// (rebuildNode's 3×3 scan).
func maxByCache(f *Field, l radio.Level) int {
	best := 0
	for i := 0; i < f.N(); i++ {
		best = max(best, f.Contenders(packet.NodeID(i), l))
	}
	return best
}

// checkMaxContenders compares the kernel with the cache reference at every
// power level. The first level's kernel call runs before any cache of the
// stage is rebuilt.
func checkMaxContenders(t *testing.T, f *Field, ctx string) {
	t.Helper()
	for l := radio.Level(1); l <= f.Model().MinPower(); l++ {
		got := f.MaxContenders(l)
		if want := maxByCache(f, l); got != want {
			t.Fatalf("%s: MaxContenders(%d) = %d, max Contenders %d", ctx, l, got, want)
		}
	}
}

// TestMaxContendersMatchesBruteForce is the kernel's differential test:
// uniform, clustered (tight blobs, and wide ones whose clamping stacks
// nodes on the boundary at identical positions), grid and chain fields;
// radio scales from one that caps the bucket grid (1 m) to one whose range
// spans several grid spacings (40 m); several seeds; and the same fields
// again after a Move and after both RelocateFraction invalidation paths.
func TestMaxContendersMatchesBruteForce(t *testing.T) {
	const n = 1000
	side := float64(geom.GridSide(n)-1) * DefaultGridSpacing
	bounds := geom.Rect{Max: geom.Point{X: side, Y: side}}
	placements := []struct {
		name  string
		build func(m *radio.Model, rng *sim.RNG) (*Field, error)
	}{
		{"uniform", func(m *radio.Model, rng *sim.RNG) (*Field, error) {
			return NewUniformField(n, bounds, m, rng)
		}},
		{"clustered", func(m *radio.Model, rng *sim.RNG) (*Field, error) {
			return NewClusteredField(n, 4, 2*DefaultGridSpacing, bounds, m, rng)
		}},
		{"clustered-clamped", func(m *radio.Model, rng *sim.RNG) (*Field, error) {
			return NewClusteredField(n, 3, side, bounds, m, rng)
		}},
		{"grid", func(m *radio.Model, _ *sim.RNG) (*Field, error) {
			return NewGridField(n, DefaultGridSpacing, m)
		}},
		{"chain", func(m *radio.Model, _ *sim.RNG) (*Field, error) {
			return NewChainField(300, DefaultGridSpacing, m)
		}},
	}
	for _, pl := range placements {
		for _, radius := range []float64{1, 5, 20, 40} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/r=%g/seed=%d", pl.name, radius, seed), func(t *testing.T) {
					rng := sim.NewRNG(seed)
					f, err := pl.build(scaled(t, radius), rng)
					if err != nil {
						t.Fatal(err)
					}
					checkMaxContenders(t, f, "fresh field")
					f.Move(packet.NodeID(rng.Intn(f.N())), f.Bounds().UniformPoint(rng.Float64))
					checkMaxContenders(t, f, "after Move")
					f.RelocateFraction(0.1, rng)
					checkMaxContenders(t, f, "after local relocation")
					f.RelocateFraction(0.6, rng) // global invalidation path
					checkMaxContenders(t, f, "after global relocation")
				})
			}
		}
	}
}

// TestMaxContendersBuildsNoCache pins what makes the kernel cheap on large
// fields: it creates no neighbor-cache slot (which ValidCaches, the
// accessor other packages' tests use, must report), and it allocates the
// same small number of slices at 1 000 and 20 000 nodes.
func TestMaxContendersBuildsNoCache(t *testing.T) {
	small := uniformAtDensity(t, 1000, 20, 0.04, 7)
	large := uniformAtDensity(t, 20000, 20, 0.04, 7)
	for _, f := range []*Field{small, large} {
		f.MaxContenders(radio.MaxPower)
		for i, c := range f.cache {
			if c != nil {
				t.Fatalf("n=%d: node %d has a cache slot (epoch %d)", f.N(), i, c.epoch)
			}
		}
		if v := f.ValidCaches(); v != 0 {
			t.Fatalf("n=%d: ValidCaches = %d after MaxContenders, want 0", f.N(), v)
		}
		f.ZoneNeighbors(0)
		if v := f.ValidCaches(); v != 1 {
			t.Fatalf("n=%d: ValidCaches = %d after one query, want 1", f.N(), v)
		}
	}
	allocs := func(f *Field) float64 {
		return testing.AllocsPerRun(3, func() { f.MaxContenders(radio.MaxPower) })
	}
	a, b := allocs(small), allocs(large)
	if a != b || b > 4 {
		t.Fatalf("MaxContenders allocs: %v at n=1000, %v at n=20000; want equal and <= 4", a, b)
	}
}
