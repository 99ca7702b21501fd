package workload

// Tests for source-restricted workloads: AllToAllSources / ClusteredSources
// must draw the same RNG variate sequence at sources = 0 (every node
// originates) and sources = n, restrict origination to the first ids
// otherwise, and reject counts outside [0, n]. Source restriction is the
// knob that decouples traffic volume from field size at 10⁵ nodes.

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

func sameEvents(t *testing.T, a, b *Generator, label string) {
	t.Helper()
	if a.Items() != b.Items() {
		t.Fatalf("%s: %d items vs %d", label, a.Items(), b.Items())
	}
	for i := range a.events {
		if a.events[i].at != b.events[i].at || a.events[i].data != b.events[i].data {
			t.Fatalf("%s: event %d differs: %+v vs %+v", label, i, a.events[i], b.events[i])
		}
	}
}

func TestAllToAllSourcesZeroAndFullMatchUnrestricted(t *testing.T) {
	zero, err := AllToAllSources(20, 0, 5, time.Millisecond, sim.NewRNG(9))
	if err != nil {
		t.Fatalf("AllToAllSources(0): %v", err)
	}
	full, err := AllToAllSources(20, 20, 5, time.Millisecond, sim.NewRNG(9))
	if err != nil {
		t.Fatalf("AllToAllSources(n): %v", err)
	}
	if zero.Items() != 20*5 {
		t.Fatalf("sources=0: %d items, want every node's %d", zero.Items(), 20*5)
	}
	sameEvents(t, zero, full, "sources=0 vs sources=n")
}

func TestAllToAllSourcesRestrictsOrigins(t *testing.T) {
	const n, sources, ppn = 50, 3, 4
	g, err := AllToAllSources(n, sources, ppn, time.Millisecond, sim.NewRNG(9))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	if g.Items() != sources*ppn {
		t.Fatalf("items = %d, want %d (traffic scales with sources, not n)", g.Items(), sources*ppn)
	}
	for _, ev := range g.events {
		if int(ev.data.Origin) >= sources {
			t.Fatalf("item %v originated outside the first %d nodes", ev.data, sources)
		}
	}
}

func TestClusteredSourcesZeroMatchesUnrestricted(t *testing.T) {
	f := clusteredField(t, 169, 20)
	zero, err := ClusteredSources(f, 0, 3, time.Millisecond, 0.05, sim.NewRNG(11))
	if err != nil {
		t.Fatalf("ClusteredSources(0): %v", err)
	}
	full, err := ClusteredSources(f, f.N(), 3, time.Millisecond, 0.05, sim.NewRNG(11))
	if err != nil {
		t.Fatalf("ClusteredSources(n): %v", err)
	}
	if zero.Items() != f.N()*3 {
		t.Fatalf("sources=0: %d items, want every node's %d", zero.Items(), f.N()*3)
	}
	sameEvents(t, zero, full, "clustered sources=0 vs sources=n")
}

func TestClusteredSourcesRestrictsOrigins(t *testing.T) {
	f := clusteredField(t, 169, 20)
	const sources, ppn = 7, 3
	g, err := ClusteredSources(f, sources, ppn, time.Millisecond, 0.05, sim.NewRNG(11))
	if err != nil {
		t.Fatalf("ClusteredSources: %v", err)
	}
	if g.Items() != sources*ppn {
		t.Fatalf("items = %d, want %d", g.Items(), sources*ppn)
	}
	origins := map[packet.NodeID]bool{}
	for _, ev := range g.events {
		if int(ev.data.Origin) >= sources {
			t.Fatalf("item %v originated outside the first %d nodes", ev.data, sources)
		}
		origins[ev.data.Origin] = true
	}
	if len(origins) != sources {
		t.Fatalf("%d distinct origins, want %d", len(origins), sources)
	}
}

func TestSourcesValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := AllToAllSources(10, -1, 1, time.Millisecond, rng); err == nil {
		t.Fatal("negative sources accepted")
	}
	if _, err := AllToAllSources(10, 11, 1, time.Millisecond, rng); err == nil {
		t.Fatal("sources > n accepted")
	}
	f := clusteredField(t, 25, 15)
	if _, err := ClusteredSources(f, -1, 1, time.Millisecond, 0.05, rng); err == nil {
		t.Fatal("clustered negative sources accepted")
	}
	if _, err := ClusteredSources(f, 26, 1, time.Millisecond, 0.05, rng); err == nil {
		t.Fatal("clustered sources > n accepted")
	}
}
