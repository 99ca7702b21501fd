// Package metrics collects the two quantities the paper evaluates — energy
// and end-to-end delay — plus protocol event counters used by tests and the
// experiment harness.
//
// Energy is attributed per node and per cause (data-plane transmit, receive,
// and control-plane/routing), because §5.1.3 requires charging SPMS for the
// Bellman-Ford traffic that mobility triggers.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/packet"
	"repro/internal/radio"
)

// EnergyBreakdown is a node's cumulative energy by cause, in microjoules.
type EnergyBreakdown struct {
	Tx   radio.Energy // data-plane transmissions (ADV/REQ/DATA)
	Rx   radio.Energy // receptions
	Ctrl radio.Energy // routing-protocol traffic (DBF rounds)
}

// Total returns the node's total energy.
func (b EnergyBreakdown) Total() radio.Energy { return b.Tx + b.Rx + b.Ctrl }

// EnergyAccount tracks per-node energy for a simulation run.
type EnergyAccount struct {
	perNode []EnergyBreakdown
}

// NewEnergyAccount creates an account for n nodes.
func NewEnergyAccount(n int) *EnergyAccount {
	if n < 0 {
		n = 0
	}
	return &EnergyAccount{perNode: make([]EnergyBreakdown, n)}
}

// N returns the number of nodes tracked.
func (a *EnergyAccount) N() int { return len(a.perNode) }

// check panics unless id is a tracked node and e is non-negative. It makes
// one test and calls nothing, so it inlines into AddTx and AddRx, and they
// into the network's per-transmission and per-reception paths: a call to
// a message-building helper alone would cost 57 of the inliner's 80-node
// budget. The message is rendered only if the panic is printed.
func (a *EnergyAccount) check(id packet.NodeID, e radio.Energy) {
	if uint(id) >= uint(len(a.perNode)) || e < 0 {
		panic(badCharge{id: id, e: e, n: len(a.perNode)})
	}
}

// badCharge is check's panic value: a charge to a node outside [0, n) or
// of negative energy.
type badCharge struct {
	id packet.NodeID
	e  radio.Energy
	n  int
}

// Error renders the panic message.
func (b badCharge) Error() string {
	if b.id < 0 || int(b.id) >= b.n {
		return fmt.Sprintf("metrics: node id %d out of range [0,%d)", b.id, b.n)
	}
	return fmt.Sprintf("metrics: negative energy %v for node %d", b.e, b.id)
}

// AddTx charges a data-plane transmission to a node.
func (a *EnergyAccount) AddTx(id packet.NodeID, e radio.Energy) {
	a.check(id, e)
	a.perNode[id].Tx += e
}

// AddRx charges a reception to a node.
func (a *EnergyAccount) AddRx(id packet.NodeID, e radio.Energy) {
	a.check(id, e)
	a.perNode[id].Rx += e
}

// AddCtrl charges routing-control energy to a node.
func (a *EnergyAccount) AddCtrl(id packet.NodeID, e radio.Energy) {
	a.check(id, e)
	a.perNode[id].Ctrl += e
}

// Node returns a node's breakdown.
func (a *EnergyAccount) Node(id packet.NodeID) EnergyBreakdown {
	a.check(id, 0)
	return a.perNode[id]
}

// Total sums every node's total energy.
func (a *EnergyAccount) Total() radio.Energy {
	var t radio.Energy
	for _, b := range a.perNode {
		t += b.Total()
	}
	return t
}

// TotalBreakdown sums the per-cause totals across nodes.
func (a *EnergyAccount) TotalBreakdown() EnergyBreakdown {
	var out EnergyBreakdown
	for _, b := range a.perNode {
		out.Tx += b.Tx
		out.Rx += b.Rx
		out.Ctrl += b.Ctrl
	}
	return out
}

// DelayStats accumulates end-to-end delay samples. The paper measures delay
// "from the time the ADV packet is sent out by the source to the time that
// the data packet is received at the destination" and reports the average
// across all packets.
type DelayStats struct {
	samples []time.Duration
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	dirty   bool // a Record since Percentile last sorted samples
}

// NewDelayStats returns an empty sample set.
func NewDelayStats() *DelayStats { return &DelayStats{} }

// Record adds one delivery delay sample. Negative samples panic: a negative
// end-to-end delay is always an accounting bug.
func (d *DelayStats) Record(delay time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("metrics: negative delay %v", delay))
	}
	if len(d.samples) == 0 || delay < d.min {
		d.min = delay
	}
	if len(d.samples) == 0 || delay > d.max {
		d.max = delay
	}
	d.samples = append(d.samples, delay)
	d.sum += delay
	d.dirty = true
}

// Count returns the number of samples.
func (d *DelayStats) Count() int { return len(d.samples) }

// Mean returns the average delay, or 0 with no samples.
func (d *DelayStats) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / time.Duration(len(d.samples))
}

// Min returns the smallest sample, or 0 with no samples.
func (d *DelayStats) Min() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	return d.min
}

// Max returns the largest sample, or 0 with no samples.
func (d *DelayStats) Max() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	return d.max
}

// Percentile returns the p-th percentile (0 < p ≤ 100) by nearest-rank,
// or 0 with no samples. Nothing reads the samples in insertion order, so
// it sorts them in place, once per Record burst: repeated queries between
// recordings sort at most once and copy nothing.
func (d *DelayStats) Percentile(p float64) time.Duration {
	if len(d.samples) == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	if d.dirty {
		slices.Sort(d.samples)
		d.dirty = false
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.samples))))
	if rank < 1 {
		rank = 1
	}
	return d.samples[rank-1]
}

// Counters tallies protocol events. Tests assert on these to verify the
// state machines take the intended paths (e.g. failover counts under
// injected failures).
type Counters struct {
	// Sent counts transmissions by kind, indexed directly (c.Sent[packet.ADV]).
	// A flat array rather than a map: CountSend sits on the per-transmission
	// hot path, and the array increment is a single indexed store with no
	// hashing and no allocation.
	Sent       [packet.NumKinds]uint64
	Delivered  uint64 // DATA packets delivered to a requester
	Duplicates uint64 // data received that the node already had
	Timeouts   uint64 // τADV or τDAT expirations
	Failovers  uint64 // requests redirected to SCONE / direct PRONE
	Drops      uint64 // packets lost to dead or out-of-range nodes
}

// NewCounters returns zeroed counters.
func NewCounters() *Counters {
	return &Counters{}
}

// CountSend records one transmission of the given kind.
func (c *Counters) CountSend(k packet.Kind) { c.Sent[k]++ }

// TotalSent sums transmissions across kinds.
func (c *Counters) TotalSent() uint64 {
	var t uint64
	for _, v := range c.Sent {
		t += v
	}
	return t
}
