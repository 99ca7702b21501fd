// Package dissem holds the scaffolding shared by the dissemination
// protocols (SPIN, SPMS, flooding): the interest predicate that models
// which nodes want which data, and the Ledger that records originations and
// deliveries to compute the paper's end-to-end delay metric ("from the time
// the ADV packet is sent out by the source to the time that the data packet
// is received at the destination").
package dissem

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
)

// Interest reports whether a node wants a given data item. All-to-all
// communication is Everyone; cluster-based hierarchical communication uses
// a predicate built by the workload package.
type Interest func(node packet.NodeID, d packet.DataID) bool

// Everyone is the all-to-all interest predicate: every node wants every
// data item it did not originate.
func Everyone(node packet.NodeID, d packet.DataID) bool { return node != d.Origin }

// Protocol is the surface the workload drives: injecting newly sensed data
// at its origin node.
type Protocol interface {
	// Originate introduces a new data item at node src, which begins
	// advertising it. src must equal d.Origin.
	Originate(src packet.NodeID, d packet.DataID) error
}

// Ledger tracks data lifecycles across the network for one simulation run.
// It is shared by all node instances of a protocol system.
//
// Items are numbered densely in origination order (Index); protocols use
// that index to keep their per-item node state in flat slices instead of
// per-node maps — a delivery-path membership test is run for every DATA
// packet, and at campaign scale (10⁶ distinct deliveries per run) map
// probing dominates the profile. For the same reason the delivered set is
// one node-id bitset per item rather than a map of 24-byte composite keys:
// smaller by two orders of magnitude and a single indexed load to test.
//
// Index runs once per handler call, so it resolves a DataID through an
// open-addressing table on DataID.Key() rather than a Go map: power-of-two
// size, Fibonacci hashing, linear probing, at most half full. The table
// grows with the number of originated items, never with node ids.
type Ledger struct {
	table     []itemSlot      // open-addressing table; see itemSlot
	shift     uint            // 64 − log2(len(table)): the hash keeps the top bits
	born      []time.Duration // per item index: origination time
	delivered [][]uint64      // per item index: bitset over node ids
	count     int             // distinct (node, item) deliveries
	reserved  int             // items the run may originate (Reserve)
	delays    *metrics.DelayStats
}

// itemSlot is one table slot: a DataID.Key() and its item index plus one,
// so the zero slot is empty.
type itemSlot struct {
	key uint64
	idx int32
}

// fibonacci is 2⁶⁴/φ, the multiplier of Fibonacci hashing: it spreads the
// packed (origin, seq) keys over the top bits of the product.
const fibonacci = 0x9e3779b97f4a7c15

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{delays: metrics.NewDelayStats()}
}

// home returns key's first probe position.
func (l *Ledger) home(key uint64) int { return int((key * fibonacci) >> l.shift) }

// Originate records that d was advertised by its origin at time now.
// Re-originating the same DataID is an error: metadata names must be unique.
func (l *Ledger) Originate(d packet.DataID, now time.Duration) error {
	if l.Index(d) >= 0 {
		return fmt.Errorf("dissem: data %v originated twice", d)
	}
	if 2*(len(l.born)+1) > len(l.table) {
		l.grow()
	}
	l.insert(itemSlot{key: d.Key(), idx: int32(len(l.born)) + 1})
	l.born = append(l.born, now)
	l.delivered = append(l.delivered, nil)
	return nil
}

// grow doubles the table (16 slots at first) and reinserts every item.
func (l *Ledger) grow() {
	old := l.table
	l.table = make([]itemSlot, max(2*len(old), 16))
	l.shift = uint(64 - bits.TrailingZeros(uint(len(l.table))))
	for _, s := range old {
		if s.idx != 0 {
			l.insert(s)
		}
	}
}

// insert places s in the first empty slot from its home position on.
func (l *Ledger) insert(s itemSlot) {
	mask := len(l.table) - 1
	i := l.home(s.key)
	for l.table[i].idx != 0 {
		i = (i + 1) & mask
	}
	l.table[i] = s
}

// Index returns d's dense registration index (assigned in origination
// order, starting at 0), or -1 when d was never originated. Protocols key
// their per-item state slices on it.
func (l *Ledger) Index(d packet.DataID) int {
	if len(l.table) == 0 {
		return -1
	}
	key, mask := d.Key(), len(l.table)-1
	for i := l.home(key); ; i = (i + 1) & mask {
		// An empty slot (idx 0) ends the probe with -1.
		if s := l.table[i]; s.idx == 0 || s.key == key {
			return int(s.idx) - 1
		}
	}
}

// BornAt returns when d was originated.
func (l *Ledger) BornAt(d packet.DataID) (time.Duration, bool) {
	it := l.Index(d)
	if it < 0 {
		return 0, false
	}
	return l.born[it], true
}

// Originated returns how many data items have been introduced.
func (l *Ledger) Originated() int { return len(l.born) }

// RecordDelivery marks d as delivered to node at time now, recording the
// end-to-end delay sample. It reports false (and records nothing) for a
// duplicate delivery or for data that was never originated.
func (l *Ledger) RecordDelivery(node packet.NodeID, d packet.DataID, now time.Duration) bool {
	it := l.Index(d)
	if it < 0 {
		return false
	}
	bs := l.delivered[it]
	w, bit := int(node)>>6, uint64(1)<<(uint(node)&63)
	if w >= len(bs) {
		nbs := make([]uint64, w+1)
		copy(nbs, bs)
		bs = nbs
		l.delivered[it] = bs
	}
	if bs[w]&bit != 0 {
		return false
	}
	bs[w] |= bit
	l.count++
	l.delays.Record(now - l.born[it])
	return true
}

// WasDelivered reports whether node already received d.
func (l *Ledger) WasDelivered(node packet.NodeID, d packet.DataID) bool {
	it := l.Index(d)
	if it < 0 {
		return false
	}
	bs := l.delivered[it]
	w := int(node) >> 6
	return w < len(bs) && bs[w]&(1<<(uint(node)&63)) != 0
}

// Deliveries returns the number of distinct (node, data) deliveries.
func (l *Ledger) Deliveries() int { return l.count }

// Reserve records, before traffic starts, how many items the run may
// originate, so GrowItems sizes per-item state once, at that count, on a
// node's first touch rather than doubling towards it. It allocates
// nothing itself.
func (l *Ledger) Reserve(items int) { l.reserved = items }

// GrowItems extends a per-item protocol state slice to cover item index it:
// at least to the ledger's current item count (every valid index is below
// it) or its reserved count (Reserve), whichever is larger, doubling so
// repeated growth over a run's originations stays amortized. The one growth
// policy shared by every protocol keeping ledger-indexed state.
func GrowItems[T any](s []T, it int, l *Ledger) []T {
	if it < len(s) {
		return s
	}
	ns := make([]T, max(it+1, l.Originated(), l.reserved, 2*len(s)))
	copy(ns, s)
	return ns
}

// Delays exposes the delay statistics.
func (l *Ledger) Delays() *metrics.DelayStats { return l.delays }
