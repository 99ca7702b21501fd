package workload

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestAllToAllValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := AllToAllSources(0, 0, 10, time.Millisecond, rng); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := AllToAllSources(5, 0, 0, time.Millisecond, rng); err == nil {
		t.Fatal("packets=0 accepted")
	}
	if _, err := AllToAllSources(5, 0, 10, 0, rng); err == nil {
		t.Fatal("zero arrival accepted")
	}
	if _, err := AllToAllSources(5, 0, 10, time.Millisecond, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestAllToAllShape(t *testing.T) {
	g, err := AllToAllSources(9, 0, 10, time.Millisecond, sim.NewRNG(4))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	if g.Items() != 90 {
		t.Fatalf("Items=%d, want 90", g.Items())
	}
	if g.ExpectedDeliveries() != 90*8 {
		t.Fatalf("ExpectedDeliveries=%d, want %d", g.ExpectedDeliveries(), 90*8)
	}
	if g.Horizon() <= 0 {
		t.Fatal("horizon must be positive")
	}
	// Every node is interested in everyone else's data.
	in := g.Interest()
	d := packet.DataID{Origin: 3, Seq: 2}
	if in(3, d) {
		t.Fatal("origin interested in own data")
	}
	if !in(0, d) || !in(8, d) {
		t.Fatal("all-to-all interest missing")
	}
}

func TestAllToAllUniqueDataIDs(t *testing.T) {
	g, err := AllToAllSources(7, 0, 10, time.Millisecond, sim.NewRNG(5))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	seen := make(map[packet.DataID]bool)
	for _, ev := range g.events {
		if seen[ev.data] {
			t.Fatalf("duplicate data id %v", ev.data)
		}
		seen[ev.data] = true
	}
}

func TestAllToAllEventsSorted(t *testing.T) {
	g, err := AllToAllSources(13, 0, 10, time.Millisecond, sim.NewRNG(6))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	for i := 1; i < len(g.events); i++ {
		if g.events[i].at < g.events[i-1].at {
			t.Fatal("events not time-ordered")
		}
	}
}

func TestAllToAllPoissonMean(t *testing.T) {
	// With mean 1 ms and 10 packets, a node's last arrival averages 10 ms.
	var sum time.Duration
	const trials = 200
	for seed := int64(0); seed < trials; seed++ {
		g, err := AllToAllSources(1, 0, 10, time.Millisecond, sim.NewRNG(seed))
		if err != nil {
			t.Fatalf("AllToAllSources: %v", err)
		}
		sum += g.Horizon()
	}
	mean := sum / trials
	if mean < 8*time.Millisecond || mean > 12*time.Millisecond {
		t.Fatalf("mean horizon %v, want ≈10ms", mean)
	}
}

func TestAllToAllDeterminism(t *testing.T) {
	a, err := AllToAllSources(9, 0, 10, time.Millisecond, sim.NewRNG(9))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	b, err := AllToAllSources(9, 0, 10, time.Millisecond, sim.NewRNG(9))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	if len(a.events) != len(b.events) {
		t.Fatal("event counts differ")
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func clusteredField(t *testing.T, n int, radius float64) *topo.Field {
	t.Helper()
	m, err := radio.ScaledMICA2(radius)
	if err != nil {
		t.Fatalf("ScaledMICA2: %v", err)
	}
	f, err := topo.NewGridField(n, 5, m)
	if err != nil {
		t.Fatalf("NewGridField: %v", err)
	}
	return f
}

func TestClusteredValidation(t *testing.T) {
	f := clusteredField(t, 25, 15)
	rng := sim.NewRNG(1)
	if _, err := ClusteredSources(nil, 0, 10, time.Millisecond, 0.05, rng); err == nil {
		t.Fatal("nil field accepted")
	}
	if _, err := ClusteredSources(f, 0, 0, time.Millisecond, 0.05, rng); err == nil {
		t.Fatal("packets=0 accepted")
	}
	if _, err := ClusteredSources(f, 0, 10, 0, 0.05, rng); err == nil {
		t.Fatal("zero arrival accepted")
	}
	if _, err := ClusteredSources(f, 0, 10, time.Millisecond, -0.1, rng); err == nil {
		t.Fatal("negative prob accepted")
	}
	if _, err := ClusteredSources(f, 0, 10, time.Millisecond, 1.1, rng); err == nil {
		t.Fatal("prob>1 accepted")
	}
	if _, err := ClusteredSources(f, 0, 10, time.Millisecond, 0.05, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestClusterHeadsCoverAllNodes(t *testing.T) {
	f := clusteredField(t, 169, 20)
	heads := ClusterHeads(f)
	if len(heads) != 169 {
		t.Fatalf("heads cover %d nodes, want 169", len(heads))
	}
	distinct := make(map[packet.NodeID]bool)
	for node, h := range heads {
		distinct[h] = true
		// A head leads its own cluster.
		if heads[h] != h {
			t.Fatalf("head %d of node %d is not its own head", h, node)
		}
	}
	if len(distinct) < 2 {
		t.Fatal("a 65 m field with 20 m cells must have several clusters")
	}
}

// referenceHeads is the election written out per node: the head of i is
// the member of i's cell nearest the cell center, ties to the lower id.
func referenceHeads(f *topo.Field) []packet.NodeID {
	cell := f.Model().MaxRange()
	origin := f.Bounds().Min
	key := func(id packet.NodeID) [2]int {
		p := f.Pos(id)
		return [2]int{int((p.X - origin.X) / cell), int((p.Y - origin.Y) / cell)}
	}
	dist := func(id packet.NodeID) float64 {
		k, p := key(id), f.Pos(id)
		dx := p.X - (origin.X + (float64(k[0])+0.5)*cell)
		dy := p.Y - (origin.Y + (float64(k[1])+0.5)*cell)
		return dx*dx + dy*dy
	}
	heads := make([]packet.NodeID, f.N())
	for i := range heads {
		best := packet.NodeID(-1)
		for j := 0; j < f.N(); j++ {
			id := packet.NodeID(j)
			if key(id) == key(packet.NodeID(i)) && (best < 0 || dist(id) < dist(best)) {
				best = id
			}
		}
		heads[i] = best
	}
	return heads
}

// TestClusterHeadsMatchesReference covers both ways cells are numbered:
// the whole grid at zone radii near the node spacing, and only the
// occupied cells at a radius far below it, on grid and uniform fields.
// At 15 m the grid puts four nodes at the same distance from each cell
// center, so the lower-id tie rule is exercised too.
func TestClusterHeadsMatchesReference(t *testing.T) {
	for _, radius := range []float64{0.5, 3, 15, 20, 40} {
		m, err := radio.ScaledMICA2(radius)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := topo.NewGridField(169, 5, m)
		if err != nil {
			t.Fatal(err)
		}
		uniform, err := topo.NewUniformField(400, geom.Rect{Max: geom.Point{X: 60, Y: 60}}, m, sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*topo.Field{grid, uniform} {
			got, want := ClusterHeads(f), referenceHeads(f)
			if !slices.Equal(got, want) {
				t.Fatalf("radius %g, %d nodes: ClusterHeads diverges from the reference", radius, f.N())
			}
		}
	}
}

func TestClusteredInterestSets(t *testing.T) {
	f := clusteredField(t, 169, 20)
	g, err := ClusteredSources(f, 0, 10, time.Millisecond, 0.05, sim.NewRNG(11))
	if err != nil {
		t.Fatalf("ClusteredSources: %v", err)
	}
	if g.Items() != 1690 {
		t.Fatalf("Items=%d, want 1690", g.Items())
	}
	heads := ClusterHeads(f)
	in := g.Interest()
	sawBystander := false
	for _, ev := range g.events {
		d := ev.data
		if h := heads[d.Origin]; h != d.Origin && !in(h, d) {
			t.Fatalf("cluster head %d not interested in %v", h, d)
		}
		if in(d.Origin, d) {
			t.Fatalf("origin interested in own data %v", d)
		}
		for _, nb := range f.ZoneNeighbors(d.Origin) {
			if nb != heads[d.Origin] && in(nb, d) {
				sawBystander = true
			}
		}
	}
	if !sawBystander {
		t.Fatal("5% bystander interest never fired across 1690 items")
	}
	// Expected deliveries is the summed interest set size and must exceed
	// the per-item head count alone.
	if g.ExpectedDeliveries() < g.Items() {
		t.Fatalf("ExpectedDeliveries=%d implausibly low", g.ExpectedDeliveries())
	}
}

func TestClusteredBystanderRate(t *testing.T) {
	f := clusteredField(t, 169, 20)
	g, err := ClusteredSources(f, 0, 10, time.Millisecond, 0.05, sim.NewRNG(13))
	if err != nil {
		t.Fatalf("ClusteredSources: %v", err)
	}
	heads := ClusterHeads(f)
	bystanders, candidates := 0, 0
	in := g.Interest()
	for _, ev := range g.events {
		for _, nb := range f.ZoneNeighbors(ev.data.Origin) {
			if nb == heads[ev.data.Origin] {
				continue
			}
			candidates++
			if in(nb, ev.data) {
				bystanders++
			}
		}
	}
	rate := float64(bystanders) / float64(candidates)
	if rate < 0.04 || rate > 0.06 {
		t.Fatalf("bystander rate %v, want ≈0.05", rate)
	}
}

// fakeProtocol records originations and optionally fails the first k.
type fakeProtocol struct {
	calls     int
	failFirst int
	origins   []packet.DataID
}

func (p *fakeProtocol) Originate(src packet.NodeID, d packet.DataID) error {
	p.calls++
	if p.calls <= p.failFirst {
		return errors.New("origin down")
	}
	p.origins = append(p.origins, d)
	return nil
}

func TestScheduleDrivesProtocol(t *testing.T) {
	g, err := AllToAllSources(3, 0, 2, time.Millisecond, sim.NewRNG(21))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	sched := sim.NewScheduler()
	p := &fakeProtocol{}
	g.Schedule(sched, p)
	if err := sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(p.origins) != 6 {
		t.Fatalf("originated %d items, want 6", len(p.origins))
	}
	if g.Skipped() != 0 {
		t.Fatalf("Skipped=%d, want 0", g.Skipped())
	}
}

func TestScheduleRetriesFailedOrigination(t *testing.T) {
	g, err := AllToAllSources(1, 0, 1, time.Millisecond, sim.NewRNG(22))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	sched := sim.NewScheduler()
	p := &fakeProtocol{failFirst: 2}
	g.Schedule(sched, p)
	if err := sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(p.origins) != 1 {
		t.Fatalf("origination not retried to success (%d)", len(p.origins))
	}
	if g.Skipped() != 0 {
		t.Fatalf("Skipped=%d, want 0", g.Skipped())
	}
}

func TestScheduleGivesUpAfterRetries(t *testing.T) {
	g, err := AllToAllSources(1, 0, 1, time.Millisecond, sim.NewRNG(23))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	sched := sim.NewScheduler()
	p := &fakeProtocol{failFirst: 1000}
	g.Schedule(sched, p)
	if err := sched.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if g.Skipped() != 1 {
		t.Fatalf("Skipped=%d, want 1", g.Skipped())
	}
}

func TestScheduleNilPanics(t *testing.T) {
	g, err := AllToAllSources(1, 0, 1, time.Millisecond, sim.NewRNG(24))
	if err != nil {
		t.Fatalf("AllToAllSources: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Schedule(nil, &fakeProtocol{})
}
