package dissem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/packet"
)

func TestEveryoneExcludesOrigin(t *testing.T) {
	d := packet.DataID{Origin: 3, Seq: 0}
	if Everyone(3, d) {
		t.Fatal("origin must not be interested in its own data")
	}
	if !Everyone(0, d) || !Everyone(7, d) {
		t.Fatal("all other nodes must be interested")
	}
}

func TestLedgerOriginate(t *testing.T) {
	l := NewLedger()
	d := packet.DataID{Origin: 1, Seq: 0}
	if err := l.Originate(d, 5*time.Millisecond); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	if err := l.Originate(d, 6*time.Millisecond); err == nil {
		t.Fatal("duplicate origination accepted")
	}
	at, ok := l.BornAt(d)
	if !ok || at != 5*time.Millisecond {
		t.Fatalf("BornAt=(%v,%v)", at, ok)
	}
	if l.Originated() != 1 {
		t.Fatalf("Originated=%d, want 1", l.Originated())
	}
	if _, ok := l.BornAt(packet.DataID{Origin: 9, Seq: 9}); ok {
		t.Fatal("BornAt for unknown data")
	}
}

func TestLedgerDeliveryRecordsDelay(t *testing.T) {
	l := NewLedger()
	d := packet.DataID{Origin: 1, Seq: 0}
	if err := l.Originate(d, 2*time.Millisecond); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	if !l.RecordDelivery(5, d, 12*time.Millisecond) {
		t.Fatal("first delivery rejected")
	}
	if l.Deliveries() != 1 {
		t.Fatalf("Deliveries=%d, want 1", l.Deliveries())
	}
	if got := l.Delays().Mean(); got != 10*time.Millisecond {
		t.Fatalf("delay=%v, want 10ms", got)
	}
	if !l.WasDelivered(5, d) {
		t.Fatal("WasDelivered=false after delivery")
	}
	if l.WasDelivered(6, d) {
		t.Fatal("WasDelivered=true for wrong node")
	}
}

func TestLedgerDuplicateDeliveryIgnored(t *testing.T) {
	l := NewLedger()
	d := packet.DataID{Origin: 1, Seq: 0}
	if err := l.Originate(d, 0); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	if !l.RecordDelivery(5, d, time.Millisecond) {
		t.Fatal("first delivery rejected")
	}
	if l.RecordDelivery(5, d, 2*time.Millisecond) {
		t.Fatal("duplicate delivery accepted")
	}
	if l.Deliveries() != 1 || l.Delays().Count() != 1 {
		t.Fatal("duplicate polluted stats")
	}
	// Same data to a different node is a new delivery.
	if !l.RecordDelivery(6, d, 2*time.Millisecond) {
		t.Fatal("delivery to second node rejected")
	}
}

func TestLedgerUnknownDataDelivery(t *testing.T) {
	l := NewLedger()
	if l.RecordDelivery(1, packet.DataID{Origin: 2, Seq: 0}, time.Millisecond) {
		t.Fatal("delivery of unoriginated data accepted")
	}
}

func TestLedgerMultipleItems(t *testing.T) {
	l := NewLedger()
	for seq := 0; seq < 5; seq++ {
		d := packet.DataID{Origin: 0, Seq: seq}
		if err := l.Originate(d, time.Duration(seq)*time.Millisecond); err != nil {
			t.Fatalf("Originate: %v", err)
		}
		l.RecordDelivery(1, d, time.Duration(seq+2)*time.Millisecond)
	}
	if l.Deliveries() != 5 {
		t.Fatalf("Deliveries=%d, want 5", l.Deliveries())
	}
	if got := l.Delays().Mean(); got != 2*time.Millisecond {
		t.Fatalf("mean delay=%v, want 2ms", got)
	}
}

// TestLedgerItemTable covers the item table's lookups on a fixed set of
// ids: dense indices in origination order, never-originated ids (including
// ones that share an origin or a seq with an originated id), negative
// origins and seqs, and the duplicate-Originate error text.
func TestLedgerItemTable(t *testing.T) {
	l := NewLedger()
	originated := []packet.DataID{
		{Origin: 0, Seq: 0},
		{Origin: 0, Seq: 1},
		{Origin: 1, Seq: 0},
		{Origin: -1, Seq: 0},
		{Origin: 0, Seq: -1},
		{Origin: -7, Seq: -3},
		{Origin: 99999, Seq: 12},
	}
	for i, d := range originated {
		if err := l.Originate(d, time.Duration(i)*time.Millisecond); err != nil {
			t.Fatalf("Originate(%v): %v", d, err)
		}
	}
	for _, tc := range []struct {
		d    packet.DataID
		want int
	}{
		{packet.DataID{Origin: 0, Seq: 0}, 0},
		{packet.DataID{Origin: 0, Seq: 1}, 1},
		{packet.DataID{Origin: 1, Seq: 0}, 2},
		{packet.DataID{Origin: -1, Seq: 0}, 3},
		{packet.DataID{Origin: 0, Seq: -1}, 4},
		{packet.DataID{Origin: -7, Seq: -3}, 5},
		{packet.DataID{Origin: 99999, Seq: 12}, 6},
		{packet.DataID{Origin: 1, Seq: 1}, -1},
		{packet.DataID{Origin: 0, Seq: 2}, -1},
		{packet.DataID{Origin: -1, Seq: -1}, -1},
		{packet.DataID{Origin: 99999, Seq: 0}, -1},
		{packet.DataID{Origin: 2, Seq: 0}, -1},
	} {
		if got := l.Index(tc.d); got != tc.want {
			t.Errorf("Index(%v) = %d, want %d", tc.d, got, tc.want)
		}
		at, ok := l.BornAt(tc.d)
		if wantAt := time.Duration(tc.want) * time.Millisecond; ok != (tc.want >= 0) || (ok && at != wantAt) {
			t.Errorf("BornAt(%v) = (%v, %v), want (%v, %v)", tc.d, at, ok, wantAt, tc.want >= 0)
		}
		if tc.want < 0 && l.RecordDelivery(3, tc.d, time.Second) {
			t.Errorf("RecordDelivery(%v) accepted a never-originated id", tc.d)
		}
	}
	if l.Originated() != len(originated) {
		t.Fatalf("Originated = %d, want %d", l.Originated(), len(originated))
	}
	d := packet.DataID{Origin: -7, Seq: -3}
	err := l.Originate(d, time.Second)
	if err == nil || err.Error() != "dissem: data d-7.-3 originated twice" {
		t.Fatalf("duplicate Originate: %v, want %q", err, "dissem: data d-7.-3 originated twice")
	}
	if l.Originated() != len(originated) || l.Index(d) != 5 {
		t.Fatal("a rejected Originate changed the ledger")
	}
	if !l.RecordDelivery(200, d, 10*time.Millisecond) || l.RecordDelivery(200, d, time.Second) {
		t.Fatal("RecordDelivery: want true for the first delivery, false for the duplicate")
	}
	if !l.WasDelivered(200, d) || l.WasDelivered(201, d) || l.WasDelivered(200, originated[0]) {
		t.Fatal("WasDelivered disagrees with the one recorded delivery")
	}
	if got := l.Delays().Mean(); got != 5*time.Millisecond {
		t.Fatalf("delay = %v, want 5ms (born at 5ms)", got)
	}
}

// TestLedgerMatchesMapReference drives the ledger and a map-based reference
// with the same random operations over more than 10⁴ distinct ids — enough
// to grow the item table through eleven doublings — and requires every answer
// to agree. Ids mix negative and positive origins and seqs, and lookups
// mostly name ids that were never originated.
func TestLedgerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomID := func() packet.DataID {
		return packet.DataID{
			Origin: packet.NodeID(rng.Intn(4001) - 2000),
			Seq:    rng.Intn(41) - 20,
		}
	}
	type pair struct {
		node packet.NodeID
		it   int
	}
	var (
		l         = NewLedger()
		index     = make(map[packet.DataID]int)
		ids       []packet.DataID // by item index
		born      []time.Duration
		delivered = make(map[pair]bool)
		now       time.Duration
	)
	for len(born) < 12000 {
		now += time.Microsecond
		d := randomID()
		switch op := rng.Intn(4); {
		case op < 2:
			err := l.Originate(d, now)
			if _, dup := index[d]; dup {
				if err == nil || err.Error() != fmt.Sprintf("dissem: data %v originated twice", d) {
					t.Fatalf("duplicate Originate(%v): err = %v", d, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Originate(%v): %v", d, err)
			}
			index[d] = len(born)
			ids = append(ids, d)
			born = append(born, now)
		case op == 2:
			node := packet.NodeID(rng.Intn(300))
			it, ok := index[d]
			want := ok && !delivered[pair{node, it}]
			if got := l.RecordDelivery(node, d, now); got != want {
				t.Fatalf("RecordDelivery(%d, %v) = %v, want %v", node, d, got, want)
			}
			if want {
				delivered[pair{node, it}] = true
			}
		default:
			node := packet.NodeID(rng.Intn(300))
			it, ok := index[d]
			if !ok {
				it = -1
			}
			if got := l.Index(d); got != it {
				t.Fatalf("Index(%v) = %d, want %d", d, got, it)
			}
			at, gotOK := l.BornAt(d)
			if gotOK != ok || (ok && at != born[it]) {
				t.Fatalf("BornAt(%v) = (%v, %v), want (%v, %v)", d, at, gotOK, born[max(it, 0)], ok)
			}
			if got, want := l.WasDelivered(node, d), ok && delivered[pair{node, it}]; got != want {
				t.Fatalf("WasDelivered(%d, %v) = %v, want %v", node, d, got, want)
			}
		}
		if l.Originated() != len(born) {
			t.Fatalf("Originated = %d, want %d", l.Originated(), len(born))
		}
	}
	// A final sweep: every originated id resolves to its own index.
	for it, d := range ids {
		if got := l.Index(d); got != it {
			t.Fatalf("Index(%v) = %d, want %d", d, got, it)
		}
	}
	if l.Deliveries() != len(delivered) {
		t.Fatalf("Deliveries = %d, want %d", l.Deliveries(), len(delivered))
	}
}

// TestLedgerProbeWrapsAround originates three ids whose probe starts at the
// last slot of the first (16-slot) table: the second and third wrap to the
// front, and every lookup — including one for a never-originated id with
// the same start — follows them there.
func TestLedgerProbeWrapsAround(t *testing.T) {
	l := NewLedger()
	l.grow() // the table the first Originate would make
	last := len(l.table) - 1
	var ids []packet.DataID
	for seq := 0; len(ids) < 4; seq++ {
		if d := (packet.DataID{Origin: 5, Seq: seq}); l.home(d.Key()) == last {
			ids = append(ids, d)
		}
	}
	for _, d := range ids[:3] {
		if err := l.Originate(d, 0); err != nil {
			t.Fatalf("Originate(%v): %v", d, err)
		}
	}
	if len(l.table) != last+1 || l.table[0].idx == 0 || l.table[1].idx == 0 {
		t.Fatalf("table of %d slots, slots 0 and 1 hold %d and %d; want 16 slots, both occupied",
			len(l.table), l.table[0].idx, l.table[1].idx)
	}
	for i, d := range ids[:3] {
		if got := l.Index(d); got != i {
			t.Fatalf("Index(%v) = %d, want %d", d, got, i)
		}
	}
	if got := l.Index(ids[3]); got != -1 {
		t.Fatalf("Index(%v) = %d for a never-originated id, want -1", ids[3], got)
	}
}

// TestGrowItemsSizesFromReserve pins the growth policy: without a
// reservation a slice grows to cover the originated items, doubling; with
// one (Ledger.Reserve) it is allocated once, at the reserved size, on its
// first touch.
func TestGrowItemsSizesFromReserve(t *testing.T) {
	l := NewLedger()
	for seq := 0; seq < 3; seq++ {
		if err := l.Originate(packet.DataID{Origin: 1, Seq: seq}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := GrowItems([]bool(nil), 0, l)
	if len(s) != 3 {
		t.Fatalf("unreserved first touch: len %d, want the 3 originated items", len(s))
	}
	if s = GrowItems(s, 3, l); len(s) != 6 {
		t.Fatalf("unreserved growth past the originated items: len %d, want 6 (doubled)", len(s))
	}
	l.Reserve(100)
	if r := GrowItems([]bool(nil), 0, l); len(r) != 100 {
		t.Fatalf("reserved first touch: len %d, want 100", len(r))
	}
	if r := GrowItems(s, 5, l); len(r) != len(s) || &r[0] != &s[0] {
		t.Fatal("a slice that already covers the item was reallocated")
	}
}
