// index.go is the spatial substrate behind the Field's radio queries: a
// uniform bucket grid over the field rectangle (cell size = the radio's
// maximum range, so a range query only visits the 3×3 cell neighborhood)
// plus per-node, per-power-level neighbor caches invalidated by a mobility
// epoch counter. Together they make ReachedBy/Contenders/ZoneNeighbors
// O(neighbors) with zero allocations on the steady-state query path, where
// the pre-index implementation scanned all N nodes per query and rebuilt
// the zone table in O(N²) after every mobility event.
//
// # Cache ownership
//
// ZoneNeighbors and ReachedBy return slices owned by the neighbor cache:
// callers must not modify them and must not retain them across a mobility
// event (Move, RelocateFraction, InvalidateAll). A rebuild never writes
// into a previously returned slice — it swaps in freshly allocated backing —
// so a caller iterating a list while *other* nodes rebuild theirs is safe.
// This is sound under the DESIGN.md §5.1 concurrency contract: a Field
// belongs to exactly one single-threaded scheduler, so no query can race a
// mobility event, and campaign pool workers never share a Field.
//
// # Epoch invalidation
//
// epoch counts mobility events. nodeEpoch[i] is the last epoch at which
// node i's neighborhood changed; a cache entry is valid while its build
// epoch is >= nodeEpoch[i]. Moving one node bumps the global epoch and
// stamps only the nodes within max range of the old and new positions (two
// 3×3 bucket queries), so a k-node relocation dirties ~2k neighborhoods
// instead of the whole field, and rebuilds are lazy: only nodes actually
// queried afterwards pay the O(neighbors) rebuild.
package topo

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/zone"
)

// spatialIndex is the uniform bucket grid: buckets[c] holds the ids of the
// nodes currently inside cell c, in no particular order (query results are
// sorted by the cache layer, so bucket order never reaches callers). The
// per-axis cell cap is derived from the node count (geom.MaxCellsForCount)
// so bucket memory stays O(N) while neighbor queries stay O(degree) at any
// scale; cell contents are a pure function of positions, so the cap choice
// never changes query results — only how much gets scanned to produce them.
type spatialIndex struct {
	grid    geom.CellGrid
	buckets [][]packet.NodeID
	cell    []int32 // node id -> flattened bucket index
}

func newSpatialIndex(bounds geom.Rect, cellSize float64, pos []geom.Point) *spatialIndex {
	s := &spatialIndex{
		grid: geom.NewCellGrid(bounds, cellSize, geom.MaxCellsForCount(len(pos))),
		cell: make([]int32, len(pos)),
	}
	// Count each cell's nodes, then carve every bucket from one array at
	// exactly that capacity and fill it in id order. The capacity cap
	// matters: a bucket that move grows past it reallocates alone rather
	// than overwriting its neighbor's first slot.
	counts := make([]int32, s.grid.NumCells())
	for i, p := range pos {
		c := int32(s.grid.Index(s.grid.CellOf(p)))
		s.cell[i] = c
		counts[c]++
	}
	ids := make([]packet.NodeID, len(pos))
	s.buckets = make([][]packet.NodeID, len(counts))
	off := 0
	for c, k := range counts {
		end := off + int(k)
		s.buckets[c] = ids[off:off:end]
		off = end
	}
	for i, c := range s.cell {
		s.buckets[c] = append(s.buckets[c], packet.NodeID(i))
	}
	return s
}

// move rebuckets node id after its position changed to p.
func (s *spatialIndex) move(id packet.NodeID, p geom.Point) {
	to := int32(s.grid.Index(s.grid.CellOf(p)))
	from := s.cell[id]
	if to == from {
		return
	}
	b := s.buckets[from]
	for i, n := range b {
		if n == id {
			b[i] = b[len(b)-1]
			s.buckets[from] = b[:len(b)-1]
			break
		}
	}
	s.buckets[to] = append(s.buckets[to], id)
	s.cell[id] = to
}

// visitNeighborhood calls fn for each bucket of the 3×3 cell neighborhood
// around p — the superset of every node within one cell size of p.
func (s *spatialIndex) visitNeighborhood(p geom.Point, fn func(ids []packet.NodeID)) {
	cx, cy := s.grid.CellOf(p)
	x0, x1 := cx-1, cx+1
	if x0 < 0 {
		x0 = 0
	}
	if x1 >= s.grid.Cols() {
		x1 = s.grid.Cols() - 1
	}
	y0, y1 := cy-1, cy+1
	if y0 < 0 {
		y0 = 0
	}
	if y1 >= s.grid.Rows() {
		y1 = s.grid.Rows() - 1
	}
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if b := s.buckets[s.grid.Index(x, y)]; len(b) > 0 {
				fn(b)
			}
		}
	}
}

// nodeCache is one node's cached neighbor lists. byLevel[l-1] holds the ids
// reachable at power level l, sorted ascending — the same order the
// pre-index full scans produced, which keeps all simulation output
// bit-identical. The lists share one backing array per rebuild; the [][]
// header slice is allocated once per node and reused.
type nodeCache struct {
	epoch   uint64 // epoch the lists were built at; valid while >= nodeEpoch
	byLevel [][]packet.NodeID
}

// candidate is a rebuild scratch entry: a zone neighbor and its squared
// distance, used to classify it into power levels.
type candidate struct {
	id packet.NodeID
	d2 float64
}

// rebuildScratch is the reusable workspace one rebuild needs: the candidate
// buffer and the per-level counts. The Field owns one for the lazy
// single-threaded path; WarmAll allocates one per worker so parallel
// rebuilds never share it.
type rebuildScratch struct {
	cands  []candidate
	counts []int // per-level counts, len == NumLevels
}

// ensure returns node id's cache, creating its slot on the node's first
// query and rebuilding it if a mobility event invalidated it. The
// steady-state path (valid cache) does no work beyond the epoch comparison
// and allocates nothing.
func (f *Field) ensure(id packet.NodeID) *nodeCache {
	c := f.slot(id)
	if c.epoch >= f.nodeEpoch[id] {
		return c
	}
	f.rebuildNode(id, c, &f.scratch)
	return c
}

// slot returns node id's cache slot, creating it on first use. A new slot
// has epoch 0, below every node stamp (they start at 1), so it reads as
// invalid until rebuildNode builds it.
func (f *Field) slot(id packet.NodeID) *nodeCache {
	c := f.cache[id]
	if c == nil {
		c = new(nodeCache)
		f.cache[id] = c
	}
	return c
}

// rebuildNode recomputes every power level's neighbor list for one node by
// scanning only the 3×3 bucket neighborhood: O(neighbors), not O(N). It
// reads only frozen state (positions, buckets, ranges) plus the caller's
// scratch, and writes only node id's own cache entry — the disjoint-write
// shape that lets WarmAll run it from many workers at once.
func (f *Field) rebuildNode(id packet.NodeID, c *nodeCache, ws *rebuildScratch) {
	p := f.pos[id]
	cands := ws.cands[:0]
	rmax2 := f.rangeSq[0]
	f.index.visitNeighborhood(p, func(ids []packet.NodeID) {
		for _, j := range ids {
			if j == id {
				continue
			}
			if d2 := p.Dist2(f.pos[j]); d2 <= rmax2 {
				cands = append(cands, candidate{id: j, d2: d2})
			}
		}
	})
	slices.SortFunc(cands, func(a, b candidate) int { return cmp.Compare(a.id, b.id) })
	ws.cands = cands // keep the grown capacity for the next rebuild

	// Levels are nested (rangeSq is strictly decreasing), so one pass per
	// level over the sorted candidates materializes each list in id order.
	nl := len(f.rangeSq)
	if ws.counts == nil {
		ws.counts = make([]int, nl)
	}
	counts := ws.counts
	total := 0
	for l := 0; l < nl; l++ {
		counts[l] = 0
	}
	for _, cand := range cands {
		for l := 0; l < nl && cand.d2 <= f.rangeSq[l]; l++ {
			counts[l]++
		}
	}
	for l := 0; l < nl; l++ {
		total += counts[l]
	}
	// Fresh backing every rebuild: previously returned slices stay intact
	// (see "Cache ownership" above).
	backing := make([]packet.NodeID, 0, total)
	if c.byLevel == nil {
		c.byLevel = make([][]packet.NodeID, nl)
	}
	for l := 0; l < nl; l++ {
		start := len(backing)
		r2 := f.rangeSq[l]
		for _, cand := range cands {
			if cand.d2 <= r2 {
				backing = append(backing, cand.id)
			}
		}
		c.byLevel[l] = backing[start:len(backing):len(backing)]
	}
	c.epoch = f.epoch
}

// WarmAll rebuilds every invalid neighbor cache using up to workers
// goroutines, partitioned into contiguous node ranges with per-worker
// scratch. Cache contents are a pure function of positions (each node's
// lists are rebuilt from frozen inputs and written only by its own range's
// worker), so a warmed field answers every query exactly as lazy rebuilds
// would — WarmAll changes when the work happens, never what it produces.
// Each worker creates the absent slots of its own range, so those writes
// are disjoint too.
//
// Call it before read-only parallel passes over the field (graph building,
// parallel route derivation): once every cache is valid, ZoneNeighbors /
// ReachedBy / Contenders touch no shared mutable state.
func (f *Field) WarmAll(workers int) {
	zone.For(workers, len(f.pos), func(_, lo, hi int) {
		var ws rebuildScratch
		for i := lo; i < hi; i++ {
			c := f.slot(packet.NodeID(i))
			if c.epoch < f.nodeEpoch[i] {
				f.rebuildNode(packet.NodeID(i), c, &ws)
			}
		}
	})
}

// MaxContenders returns the largest Contenders(id, l) over every node of
// the field without building any neighbor cache: a count-only pass over
// the bucket grid for callers that need one field-wide integer, not the
// lists (SPIN derives its REQ-suppression timeout from it).
//
// Coordinates are copied bucket-contiguous (cell c's nodes occupy slots
// [start[c], start[c+1]) of xs/ys), then each in-range pair is counted once
// over a half stencil: the cell's own pairs, then its E, NE, N and NW
// neighbors; the other four directions are those cells' own half stencils.
// Buckets are row-major, so the cell plus its E neighbor is one slot range
// and the NW, N and NE cells are another. That visits exactly the pairs
// rebuildNode's 3×3 scans visit, under the same Dist2 <= rangeSq
// predicate (symmetric: negating a difference is exact), so every
// per-node count equals len(ReachedBy(id, l)). The pass is serial and
// allocates four slices whatever the field size.
func (f *Field) MaxContenders(l radio.Level) int {
	r2 := f.levelRangeSq(l)
	s := f.index
	start := make([]int32, len(s.buckets)+1)
	xs := make([]float64, len(f.pos))
	ys := make([]float64, len(f.pos))
	for c, b := range s.buckets {
		o := int(start[c])
		for k, id := range b {
			xs[o+k], ys[o+k] = f.pos[id].X, f.pos[id].Y
		}
		start[c+1] = start[c] + int32(len(b))
	}
	cnt := make([]int32, len(f.pos))
	cols, rows := s.grid.Cols(), s.grid.Rows()
	for cy := 0; cy < rows; cy++ {
		for cx := 0; cx < cols; cx++ {
			c := s.grid.Index(cx, cy)
			lo, hi := start[c], start[c+1]
			rowHi := hi // own cell, then E
			if cx+1 < cols {
				rowHi = start[c+2]
			}
			var upLo, upHi int32 // NW, N, NE
			if cy+1 < rows {
				upLo = start[s.grid.Index(max(cx-1, 0), cy+1)]
				upHi = start[s.grid.Index(min(cx+1, cols-1), cy+1)+1]
			}
			for i := lo; i < hi; i++ {
				p := geom.Point{X: xs[i], Y: ys[i]}
				cnt[i] += countInRange(p, r2, xs[i+1:rowHi], ys[i+1:rowHi], cnt[i+1:rowHi]) +
					countInRange(p, r2, xs[upLo:upHi], ys[upLo:upHi], cnt[upLo:upHi])
			}
		}
	}
	best := int32(0)
	for _, n := range cnt {
		best = max(best, n)
	}
	return int(best) + 1
}

// countInRange adds one to cnt[k] for each point (xs[k], ys[k]) within r2
// of p and returns how many there were. The count is branch-free: on a
// uniform field about a third of the candidates are in range, too
// unpredictable for a branch.
//
// countInRange stays out of line, so that its running count lives in a
// register. The compiler inlines any function whose cost is at most 80,
// and countInRange's is below that; inlined twice into MaxContenders, the
// first copy keeps its count in a stack slot and loads, adds and stores it
// for every candidate.
//
//go:noinline
func countInRange(p geom.Point, r2 float64, xs, ys []float64, cnt []int32) int32 {
	ys = ys[:len(xs)]
	cnt = cnt[:len(xs)]
	var n int32
	for k, x := range xs {
		var in int32
		if p.Dist2(geom.Point{X: x, Y: ys[k]}) <= r2 {
			in = 1
		}
		cnt[k] += in
		n += in
	}
	return n
}

// invalidateAround stamps every node within max radio range of p with the
// current epoch: exactly the nodes whose neighbor lists can gain or lose a
// node that moved from or to p.
func (f *Field) invalidateAround(p geom.Point) {
	rmax2 := f.rangeSq[0]
	f.index.visitNeighborhood(p, func(ids []packet.NodeID) {
		for _, j := range ids {
			if p.Dist2(f.pos[j]) <= rmax2 {
				f.nodeEpoch[j] = f.epoch
			}
		}
	})
}

// InvalidateAll discards every cached neighbor list, forcing each node's
// next query to rebuild. Mobility events invalidate incrementally on their
// own; this exists for callers (and benchmarks) that want the pre-index
// full-rebuild behavior as a baseline.
func (f *Field) InvalidateAll() {
	f.epoch++
	for i := range f.nodeEpoch {
		f.nodeEpoch[i] = f.epoch
	}
}

// ValidCaches returns how many nodes currently hold a valid neighbor
// cache: those some query (or WarmAll) rebuilt since their neighborhood
// last changed. Like Epoch it exists for tests and diagnostics — it shows
// how much of the field a run actually touched. A slot is created only by
// a query or WarmAll, which build it, so on a field where no node has
// moved it counts the slots that exist.
func (f *Field) ValidCaches() int {
	n := 0
	for i, c := range f.cache {
		if c != nil && c.epoch >= f.nodeEpoch[i] {
			n++
		}
	}
	return n
}

// Epoch returns the mobility epoch counter: it increments once per Move,
// RelocateFraction, or InvalidateAll. Tests use it to assert invalidation
// behavior; simulation code has no need for it.
func (f *Field) Epoch() uint64 { return f.epoch }

// ceilFrac returns ceil(frac·n) with a magnitude-relative tolerance that
// absorbs binary rounding in the product: 0.1·100 must be 10, not 11, even
// though float64(0.1)*100 lands just above 10. The tolerance (1e-12
// relative) is far below any meaningful fractional part, so genuinely
// fractional products (169·0.05 = 8.45) still round up.
func ceilFrac(frac float64, n int) int {
	k := int(math.Ceil(frac * float64(n) * (1 - 1e-12)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}
