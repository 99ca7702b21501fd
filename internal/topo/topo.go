// Package topo models the sensor field: node positions (grid, uniform,
// chain, or clustered placement), zone neighborhoods, power-level
// selection between nodes, and the mobility models — the paper's §5.1.3
// fractional relocation (at discrete times a random fraction of nodes
// teleports, after which routing must re-converge) and random waypoint
// (waypoint.go).
//
// A zone, per the paper, is the region a node can reach transmitting at its
// maximum power level; the nodes inside it are the node's zone neighbors.
package topo

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Field is the set of node positions plus the shared radio model. Radio
// queries (ZoneNeighbors, ReachedBy, Contenders) run against a spatial
// index with per-node per-power-level neighbor caches — O(neighbors) and
// allocation-free once warm; see index.go for the structure, the epoch
// invalidation scheme, and the cache-ownership contract on returned slices.
type Field struct {
	model  *radio.Model
	pos    []geom.Point
	bounds geom.Rect

	rangeSq []float64 // rangeSq[l-1]: RangeM(l)², strictly decreasing
	index   *spatialIndex
	cache   []*nodeCache // nil until the node's first query or WarmAll (slot)

	epoch     uint64   // mobility event counter, starts at 1
	nodeEpoch []uint64 // last epoch node i's neighborhood changed

	scratch rebuildScratch // lazy-rebuild workspace, reused across rebuilds
}

// newField wires the spatial index over freshly placed positions, with no
// neighbor cache yet: a node's cache slot is created and built by its
// first query, through the index.
func newField(m *radio.Model, pos []geom.Point, bounds geom.Rect) *Field {
	f := &Field{
		model:     m,
		pos:       pos,
		bounds:    bounds,
		rangeSq:   make([]float64, m.NumLevels()),
		cache:     make([]*nodeCache, len(pos)),
		epoch:     1,
		nodeEpoch: make([]uint64, len(pos)),
	}
	f.scratch.counts = make([]int, m.NumLevels())
	for l := range f.rangeSq {
		r := m.RangeM(radio.Level(l + 1))
		f.rangeSq[l] = r * r
	}
	for i := range f.nodeEpoch {
		f.nodeEpoch[i] = 1
	}
	f.index = newSpatialIndex(bounds, m.MaxRange(), pos)
	return f
}

// DefaultGridSpacing is the default inter-node distance in meters. 5 m on a
// grid with the MICA2 lowest power range (5.48 m) gives ns = 5 reachable
// nodes at minimum power and n1 ≈ 45 at a 20 m zone radius — the values the
// paper takes from [9].
const DefaultGridSpacing = 5.0

// NewGridField places n nodes on a square grid with the given spacing.
func NewGridField(n int, spacing float64, m *radio.Model) (*Field, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: non-positive node count %d", n)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("topo: non-positive spacing %v", spacing)
	}
	if m == nil {
		return nil, fmt.Errorf("topo: nil radio model")
	}
	pts := geom.GridPlacement(n, spacing)
	side := float64(geom.GridSide(n)-1) * spacing
	return newField(m, pts, geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: side, Y: side}}), nil
}

// NewUniformField places n nodes uniformly at random in bounds.
func NewUniformField(n int, bounds geom.Rect, m *radio.Model, rng *sim.RNG) (*Field, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: non-positive node count %d", n)
	}
	if m == nil {
		return nil, fmt.Errorf("topo: nil radio model")
	}
	if rng == nil {
		return nil, fmt.Errorf("topo: nil rng")
	}
	if bounds.Area() <= 0 {
		return nil, fmt.Errorf("topo: empty bounds %+v", bounds)
	}
	return newField(m, geom.UniformPlacement(n, bounds, rng.Float64), bounds), nil
}

// NewClusteredField places n nodes as Gaussian blobs around k uniformly
// seeded cluster centers (geom.ClusteredPlacement): sigma is the per-axis
// standard deviation of a blob in meters, and positions are clamped into
// bounds.
func NewClusteredField(n, k int, sigma float64, bounds geom.Rect, m *radio.Model, rng *sim.RNG) (*Field, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: non-positive node count %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("topo: non-positive cluster count %d", k)
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("topo: non-positive cluster spread %v", sigma)
	}
	if m == nil {
		return nil, fmt.Errorf("topo: nil radio model")
	}
	if rng == nil {
		return nil, fmt.Errorf("topo: nil rng")
	}
	if bounds.Area() <= 0 {
		return nil, fmt.Errorf("topo: empty bounds %+v", bounds)
	}
	return newField(m, geom.ClusteredPlacement(n, k, sigma, bounds, rng.Float64), bounds), nil
}

// NewChainField places n nodes on a straight line, the §4 analytic topology.
func NewChainField(n int, spacing float64, m *radio.Model) (*Field, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: non-positive node count %d", n)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("topo: non-positive spacing %v", spacing)
	}
	if m == nil {
		return nil, fmt.Errorf("topo: nil radio model")
	}
	pts := geom.ChainPlacement(n, spacing)
	return newField(m, pts, geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: float64(n-1) * spacing, Y: 0}}), nil
}

// N returns the number of nodes.
func (f *Field) N() int { return len(f.pos) }

// Model returns the shared radio model.
func (f *Field) Model() *radio.Model { return f.model }

// Bounds returns the field rectangle used for random relocation.
func (f *Field) Bounds() geom.Rect { return f.bounds }

// Pos returns the position of node id.
func (f *Field) Pos(id packet.NodeID) geom.Point {
	f.check(id)
	return f.pos[id]
}

// Dist returns the distance in meters between two nodes.
func (f *Field) Dist(a, b packet.NodeID) float64 {
	f.check(a)
	f.check(b)
	return f.pos[a].Dist(f.pos[b])
}

// LevelTo returns the lowest-power level at which a reaches b, and whether
// b is reachable at all (i.e. a zone neighbor).
func (f *Field) LevelTo(a, b packet.NodeID) (radio.Level, bool) {
	return f.model.LevelFor(f.Dist(a, b))
}

// ZoneNeighbors returns the ids of the nodes within node id's zone
// (reachable at maximum power), excluding id itself, sorted ascending. The
// slice is cache-owned under the contract in index.go: do not modify it, do
// not retain it across a mobility event.
func (f *Field) ZoneNeighbors(id packet.NodeID) []packet.NodeID {
	f.check(id)
	return f.ensure(id).byLevel[0]
}

// InZone reports whether b lies within a's zone.
func (f *Field) InZone(a, b packet.NodeID) bool {
	if a == b {
		return false
	}
	f.check(a)
	f.check(b)
	return f.pos[a].Dist2(f.pos[b]) <= f.rangeSq[0]
}

// InRange reports whether b lies within a's radio range at level l — the
// broadcast-reachability predicate ReachedBy materializes.
func (f *Field) InRange(a, b packet.NodeID, l radio.Level) bool {
	f.check(a)
	f.check(b)
	return f.pos[a].Dist2(f.pos[b]) <= f.levelRangeSq(l)
}

// Contenders returns how many nodes (including the transmitter itself) lie
// within the transmitter's radio range at level l — the "n" of the MAC
// G·n² contention model. O(1) on a warm cache.
func (f *Field) Contenders(id packet.NodeID, l radio.Level) int {
	f.check(id)
	return len(f.ensure(id).byLevel[f.levelIndex(l)]) + 1
}

// ReachedBy returns the ids of all nodes (excluding src) within src's radio
// range at level l, sorted ascending: the receivers of a broadcast at that
// level. The slice is cache-owned under the contract in index.go: do not
// modify it, do not retain it across a mobility event.
func (f *Field) ReachedBy(src packet.NodeID, l radio.Level) []packet.NodeID {
	f.check(src)
	return f.ensure(src).byLevel[f.levelIndex(l)]
}

// Move relocates node id, incrementally invalidating the neighbor caches of
// the neighborhoods it leaves and enters.
func (f *Field) Move(id packet.NodeID, p geom.Point) {
	f.check(id)
	np := f.bounds.Clamp(p)
	f.epoch++
	f.invalidateAround(f.pos[id])
	f.pos[id] = np
	f.index.move(id, np)
	f.invalidateAround(np)
	f.nodeEpoch[id] = f.epoch
}

// RelocateFraction moves ceil(frac·N) randomly chosen nodes to uniform
// random positions in the field, returning the moved ids. This is the
// paper's mobility event: "a predefined fraction of nodes move; the nodes
// which are to move and their destination are chosen randomly." The ceiling
// uses a magnitude-relative tolerance so binary rounding in frac·N cannot
// inflate the count (see ceilFrac).
func (f *Field) RelocateFraction(frac float64, rng *sim.RNG) []packet.NodeID {
	if frac <= 0 || rng == nil {
		return nil
	}
	if frac > 1 {
		frac = 1
	}
	k := ceilFrac(frac, len(f.pos))
	perm := rng.Perm(len(f.pos))
	moved := make([]packet.NodeID, 0, k)
	f.epoch++
	// Past ~half the field moving, per-move neighborhood stamping does more
	// work than dirtying every node outright; either way cache contents —
	// and therefore simulation output — are identical.
	global := 2*k >= len(f.pos)
	for _, idx := range perm[:k] {
		id := packet.NodeID(idx)
		np := f.bounds.UniformPoint(rng.Float64)
		if !global {
			f.invalidateAround(f.pos[id])
		}
		f.pos[id] = np
		f.index.move(id, np)
		if !global {
			f.invalidateAround(np)
		}
		f.nodeEpoch[id] = f.epoch
		moved = append(moved, id)
	}
	if global {
		for i := range f.nodeEpoch {
			f.nodeEpoch[i] = f.epoch
		}
	}
	return moved
}

// MeanZoneSize returns the average zone-neighbor count, a sanity metric the
// experiments report (the paper expects 5–50 nodes per zone).
func (f *Field) MeanZoneSize() float64 {
	total := 0
	for i := range f.pos {
		total += len(f.ensure(packet.NodeID(i)).byLevel[0])
	}
	return float64(total) / float64(len(f.pos))
}

// levelIndex maps a radio level to its rangeSq/byLevel index, panicking on
// levels the model does not define (the pre-index code panicked through
// Model.RangeM; the contract is unchanged).
func (f *Field) levelIndex(l radio.Level) int {
	if l < 1 || int(l) > len(f.rangeSq) {
		panic(fmt.Sprintf("topo: invalid level %d (model has %d)", l, len(f.rangeSq)))
	}
	return int(l) - 1
}

// levelRangeSq returns the squared range at level l.
func (f *Field) levelRangeSq(l radio.Level) float64 {
	return f.rangeSq[f.levelIndex(l)]
}

func (f *Field) check(id packet.NodeID) {
	if id < 0 || int(id) >= len(f.pos) {
		panic(fmt.Sprintf("topo: node id %d out of range [0,%d)", id, len(f.pos)))
	}
}
