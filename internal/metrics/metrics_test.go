package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/radio"
)

func TestEnergyAccountBasics(t *testing.T) {
	a := NewEnergyAccount(3)
	if a.N() != 3 {
		t.Fatalf("N=%d, want 3", a.N())
	}
	a.AddTx(0, 5)
	a.AddRx(0, 2)
	a.AddCtrl(0, 1)
	a.AddTx(2, 10)
	if got := a.Node(0); got.Tx != 5 || got.Rx != 2 || got.Ctrl != 1 {
		t.Fatalf("node 0 breakdown = %+v", got)
	}
	if got := a.Node(0).Total(); got != 8 {
		t.Fatalf("node 0 total = %v, want 8", got)
	}
	if got := a.Node(1).Total(); got != 0 {
		t.Fatalf("untouched node total = %v, want 0", got)
	}
	if got := a.Total(); got != 18 {
		t.Fatalf("Total=%v, want 18", got)
	}
	tb := a.TotalBreakdown()
	if tb.Tx != 15 || tb.Rx != 2 || tb.Ctrl != 1 {
		t.Fatalf("TotalBreakdown=%+v", tb)
	}
}

func TestEnergyAccountPanics(t *testing.T) {
	a := NewEnergyAccount(2)
	cases := map[string]struct {
		fn   func()
		want string
	}{
		"out of range":    {func() { a.AddTx(5, 1) }, "metrics: node id 5 out of range [0,2)"},
		"negative id":     {func() { a.AddRx(-1, 1) }, "metrics: node id -1 out of range [0,2)"},
		"negative energy": {func() { a.AddCtrl(0, -0.5) }, "metrics: negative energy -0.5 for node 0"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic")
				}
				if got := fmt.Sprint(r); got != c.want {
					t.Fatalf("panic %q, want %q", got, c.want)
				}
			}()
			c.fn()
		})
	}
}

func TestEnergyAccountNegativeSize(t *testing.T) {
	a := NewEnergyAccount(-5)
	if a.N() != 0 {
		t.Fatalf("N=%d, want 0", a.N())
	}
}

func TestEnergyAccountMonotonicProperty(t *testing.T) {
	prop := func(adds []uint8) bool {
		a := NewEnergyAccount(1)
		var prev radio.Energy
		for _, v := range adds {
			a.AddTx(0, radio.Energy(v))
			if a.Total() < prev {
				return false
			}
			prev = a.Total()
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDelayStatsEmpty(t *testing.T) {
	d := NewDelayStats()
	if d.Count() != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty stats should be all zero")
	}
}

func TestDelayStatsAggregates(t *testing.T) {
	d := NewDelayStats()
	for _, ms := range []int{5, 1, 9, 3} {
		d.Record(time.Duration(ms) * time.Millisecond)
	}
	if d.Count() != 4 {
		t.Fatalf("Count=%d, want 4", d.Count())
	}
	if d.Mean() != 4500*time.Microsecond {
		t.Fatalf("Mean=%v, want 4.5ms", d.Mean())
	}
	if d.Min() != time.Millisecond || d.Max() != 9*time.Millisecond {
		t.Fatalf("Min/Max=%v/%v", d.Min(), d.Max())
	}
}

func TestDelayStatsPercentile(t *testing.T) {
	d := NewDelayStats()
	for i := 1; i <= 100; i++ {
		d.Record(time.Duration(i) * time.Millisecond)
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{150, 100 * time.Millisecond}, // clamps
		{1, time.Millisecond},
	}
	for _, tt := range tests {
		if got := d.Percentile(tt.p); got != tt.want {
			t.Fatalf("P%v=%v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestDelayStatsNegativePanics(t *testing.T) {
	d := NewDelayStats()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	d.Record(-time.Millisecond)
}

func TestDelayStatsMeanBoundedProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDelayStats()
		for _, v := range raw {
			d.Record(time.Duration(v) * time.Microsecond)
		}
		return d.Min() <= d.Mean() && d.Mean() <= d.Max()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.CountSend(packet.ADV)
	c.CountSend(packet.ADV)
	c.CountSend(packet.DATA)
	if c.Sent[packet.ADV] != 2 || c.Sent[packet.DATA] != 1 {
		t.Fatalf("Sent=%v", c.Sent)
	}
	if c.TotalSent() != 3 {
		t.Fatalf("TotalSent=%d, want 3", c.TotalSent())
	}
	c.Delivered++
	c.Failovers++
	if c.Delivered != 1 || c.Failovers != 1 {
		t.Fatal("manual counters broken")
	}
}

// naivePercentile is the reference implementation: sort a fresh copy on
// every call. Percentile, which sorts the samples in place once per Record
// burst, must agree with it across interleaved Record/query sequences.
func naivePercentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestDelayStatsPercentileCacheInvalidation(t *testing.T) {
	d := NewDelayStats()
	rng := rand.New(rand.NewSource(42))
	var raw []time.Duration
	ps := []float64{1, 25, 50, 90, 95, 99, 100}
	// Interleave recording bursts with repeated queries: every query after
	// a Record must see the new sample, and repeated queries without an
	// intervening Record must keep agreeing (the already-sorted path).
	for burst := 0; burst < 20; burst++ {
		for i := 0; i < 1+rng.Intn(50); i++ {
			v := time.Duration(rng.Intn(1_000_000)) * time.Microsecond
			d.Record(v)
			raw = append(raw, v)
		}
		for _, p := range ps {
			want := naivePercentile(raw, p)
			if got := d.Percentile(p); got != want {
				t.Fatalf("burst %d: Percentile(%v) = %v, want %v (n=%d)", burst, p, got, want, len(raw))
			}
			if got := d.Percentile(p); got != want {
				t.Fatalf("burst %d: re-query Percentile(%v) = %v, want %v", burst, p, got, want)
			}
		}
	}
}

// TestDelayStatsPercentileSortsOnce pins the optimization itself: repeated
// percentile queries without intervening records must not re-sort, and
// sorting in place allocates nothing.
func TestDelayStatsPercentileSortsOnce(t *testing.T) {
	d := NewDelayStats()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		d.Record(time.Duration(rng.Intn(1_000_000)) * time.Microsecond)
	}
	d.Percentile(50) // sort
	allocs := testing.AllocsPerRun(100, func() {
		d.Percentile(95)
		d.Percentile(99)
		d.Percentile(50)
	})
	if allocs != 0 {
		t.Fatalf("Percentile allocated %.1f times per run, want 0", allocs)
	}
}
