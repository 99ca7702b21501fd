// Package workload generates the paper's two traffic patterns (§5):
//
//   - All-to-all: "each node generates 10 new packets and every other node
//     in the network is interested in receiving each packet", with Poisson
//     arrivals (Table 1: packet arrival rate 1/ms).
//   - Cluster-based hierarchical: cluster heads collect data ("request the
//     data if they need it"); other nodes in the source's zone are
//     interested with 5 % probability.
//
// A Generator pre-draws every origination time and interest set from a
// seeded RNG, so a workload is a deterministic value that can be replayed
// against SPIN, SPMS, and flooding for a like-for-like comparison.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/dissem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
)

// DefaultPacketsPerNode is §5.1's per-node generation count.
const DefaultPacketsPerNode = 10

// DefaultMeanArrival is Table 1's packet arrival rate: Poisson at 1/ms.
const DefaultMeanArrival = time.Millisecond

// DefaultClusterInterestProb is §5.2's bystander interest probability.
const DefaultClusterInterestProb = 0.05

// retryDelay is how long a failed origination (origin transiently down)
// waits before retrying.
const retryDelay = 10 * time.Millisecond

// maxOriginateRetries bounds origination retries against a down node.
const maxOriginateRetries = 5

// event is one scheduled data origination.
type event struct {
	at   time.Duration
	data packet.DataID
}

// Generator is a pre-drawn traffic pattern plus its interest relation.
type Generator struct {
	n        int
	events   []event
	interest map[packet.DataID]map[packet.NodeID]bool // nil ⇒ all-to-all
	horizon  time.Duration

	// SkippedOriginations counts items abandoned because the origin stayed
	// down through every retry. Populated during Schedule's run.
	skipped int
}

// AllToAllSources builds the §5.1 workload for n nodes: each of the first
// sources nodes (ids 0..sources-1) originates packetsPerNode items with
// per-node Poisson arrivals at the given mean inter-arrival time, and every
// node is interested in every item. sources == 0 means all n nodes
// originate, which is the paper's workload. Limiting sources decouples
// traffic volume from field size, which is what makes 10⁵-node fields
// simulable: items scale with sources, not with N.
func AllToAllSources(n, sources, packetsPerNode int, meanArrival time.Duration, rng *sim.RNG) (*Generator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive node count %d", n)
	}
	srcCount, err := checkSources(sources, n)
	if err != nil {
		return nil, err
	}
	if packetsPerNode <= 0 {
		return nil, fmt.Errorf("workload: non-positive packets per node %d", packetsPerNode)
	}
	if meanArrival <= 0 {
		return nil, fmt.Errorf("workload: non-positive mean arrival %v", meanArrival)
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	g := &Generator{n: n}
	for node := 0; node < srcCount; node++ {
		var t time.Duration
		for seq := 0; seq < packetsPerNode; seq++ {
			t += rng.ExpDuration(meanArrival)
			g.events = append(g.events, event{
				at:   t,
				data: packet.DataID{Origin: packet.NodeID(node), Seq: seq},
			})
		}
	}
	g.finish()
	return g, nil
}

// checkSources normalizes a source-node count against the field size:
// 0 means every node originates.
func checkSources(sources, n int) (int, error) {
	if sources < 0 || sources > n {
		return 0, fmt.Errorf("workload: source count %d outside [0,%d]", sources, n)
	}
	if sources == 0 {
		return n, nil
	}
	return sources, nil
}

// ClusteredSources builds the §5.2 workload over a concrete field: one
// cluster head per cell of side equal to the zone radius; for every data
// item the interested set is the origin's cluster head plus each zone
// neighbor of the origin independently with probability prob. Only the
// first sources nodes (ids 0..sources-1) originate items; sources == 0
// means every node does, which is the paper's workload.
func ClusteredSources(f *topo.Field, sources, packetsPerNode int, meanArrival time.Duration, prob float64, rng *sim.RNG) (*Generator, error) {
	if f == nil {
		return nil, fmt.Errorf("workload: nil field")
	}
	srcCount, err := checkSources(sources, f.N())
	if err != nil {
		return nil, err
	}
	if packetsPerNode <= 0 {
		return nil, fmt.Errorf("workload: non-positive packets per node %d", packetsPerNode)
	}
	if meanArrival <= 0 {
		return nil, fmt.Errorf("workload: non-positive mean arrival %v", meanArrival)
	}
	if prob < 0 || prob > 1 {
		return nil, fmt.Errorf("workload: interest probability %v outside [0,1]", prob)
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	heads := ClusterHeads(f)
	g := &Generator{
		n:        f.N(),
		interest: make(map[packet.DataID]map[packet.NodeID]bool),
	}
	for node := 0; node < srcCount; node++ {
		id := packet.NodeID(node)
		var t time.Duration
		for seq := 0; seq < packetsPerNode; seq++ {
			t += rng.ExpDuration(meanArrival)
			d := packet.DataID{Origin: id, Seq: seq}
			g.events = append(g.events, event{at: t, data: d})

			set := make(map[packet.NodeID]bool)
			if h := heads[id]; h != id {
				set[h] = true
			}
			for _, nb := range f.ZoneNeighbors(id) {
				if set[nb] {
					continue
				}
				if rng.Bool(prob) {
					set[nb] = true
				}
			}
			g.interest[d] = set
		}
	}
	g.finish()
	return g, nil
}

// finish orders events by time (stable on origin/seq for determinism) and
// computes the horizon.
func (g *Generator) finish() {
	sort.SliceStable(g.events, func(i, j int) bool { return g.events[i].at < g.events[j].at })
	if len(g.events) > 0 {
		g.horizon = g.events[len(g.events)-1].at
	}
}

// ClusterHeads partitions the field into square cells with side equal to
// the radio's maximum range and elects, per cell, the node nearest the cell
// center, ties going to the lower id. The returned slice, indexed by node
// id, gives every node its cluster head.
func ClusterHeads(f *topo.Field) []packet.NodeID {
	cell := f.Model().MaxRange() // positive: radio models reject non-positive ranges
	bounds := f.Bounds()
	n := f.N()
	type cellKey struct{ cx, cy int }
	keys := make([]cellKey, n)
	for i := range keys {
		p := f.Pos(packet.NodeID(i))
		keys[i] = cellKey{
			cx: int((p.X - bounds.Min.X) / cell),
			cy: int((p.Y - bounds.Min.Y) / cell),
		}
	}
	// Number the cells row-major over the whole grid while it holds at
	// most a few cells per node; a radius far below the node spacing would
	// make that grid huge and nearly empty, so there only the occupied
	// cells are numbered, in key order. Either way memory stays O(N).
	cellOf := make([]int32, n)
	cols := math.Floor(bounds.Width()/cell) + 1
	rows := math.Floor(bounds.Height()/cell) + 1
	var cells int
	if cols*rows <= float64(4*n+1024) {
		for i, k := range keys {
			cellOf[i] = int32(k.cy*int(cols) + k.cx)
		}
		cells = int(cols * rows)
	} else {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		slices.SortFunc(ids, func(a, b int32) int {
			return cmp.Or(cmp.Compare(keys[a].cy, keys[b].cy), cmp.Compare(keys[a].cx, keys[b].cx))
		})
		for k, id := range ids {
			if k > 0 && keys[id] != keys[ids[k-1]] {
				cells++
			}
			cellOf[id] = int32(cells)
		}
		cells++
	}
	best := make([]packet.NodeID, cells)
	bestD := make([]float64, cells)
	for c := range bestD {
		bestD[c] = -1
	}
	for i, k := range keys {
		p := f.Pos(packet.NodeID(i))
		dx := p.X - (bounds.Min.X + (float64(k.cx)+0.5)*cell)
		dy := p.Y - (bounds.Min.Y + (float64(k.cy)+0.5)*cell)
		d := dx*dx + dy*dy
		// Ids ascend, so a strict < keeps ties with the lower id.
		if c := cellOf[i]; bestD[c] < 0 || d < bestD[c] {
			best[c], bestD[c] = packet.NodeID(i), d
		}
	}
	heads := make([]packet.NodeID, n)
	for i, c := range cellOf {
		heads[i] = best[c]
	}
	return heads
}

// Interest returns the workload's interest predicate.
func (g *Generator) Interest() dissem.Interest {
	if g.interest == nil {
		return dissem.Everyone
	}
	return func(node packet.NodeID, d packet.DataID) bool {
		return g.interest[d][node]
	}
}

// Items returns the number of data items the workload originates.
func (g *Generator) Items() int { return len(g.events) }

// Horizon returns the time of the last origination.
func (g *Generator) Horizon() time.Duration { return g.horizon }

// ExpectedDeliveries returns how many (node, data) deliveries a lossless
// run would produce.
func (g *Generator) ExpectedDeliveries() int {
	if g.interest == nil {
		return len(g.events) * (g.n - 1)
	}
	total := 0
	for _, set := range g.interest {
		total += len(set)
	}
	return total
}

// Skipped returns how many originations were abandoned because the origin
// node stayed failed through all retries.
func (g *Generator) Skipped() int { return g.skipped }

// Schedule registers every origination with the scheduler, driving the
// given protocol. An origination that fails because the origin is down is
// retried a bounded number of times (transient failures repair in ~10 ms).
func (g *Generator) Schedule(sched *sim.Scheduler, p dissem.Protocol) {
	if sched == nil || p == nil {
		panic("workload: Schedule with nil scheduler or protocol")
	}
	o := &originator{g: g, sched: sched, p: p}
	o.fn = o.originate
	for i, ev := range g.events {
		sched.AtArg(ev.at, o.fn, uint64(i))
	}
}

// originator drives one Schedule call's originations. Its handler is bound
// once, and each event's argument packs the retry count above the event
// index (retries<<32 | index), so neither the originations nor their
// retries allocate.
type originator struct {
	g     *Generator
	sched *sim.Scheduler
	p     dissem.Protocol
	fn    sim.ArgHandler
}

// originate attempts the origination arg names, re-arming itself after
// retryDelay while the origin is down and retries remain.
func (o *originator) originate(arg uint64) {
	ev := o.g.events[uint32(arg)]
	if err := o.p.Originate(ev.data.Origin, ev.data); err == nil {
		return
	}
	if arg>>32 >= maxOriginateRetries {
		o.g.skipped++
		return
	}
	o.sched.AfterArg(retryDelay, o.fn, arg+1<<32)
}
