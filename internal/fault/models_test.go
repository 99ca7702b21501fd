// models_test.go covers the failure-model registry: wire-form codecs,
// model-specific config validation, the crash and burst processes, and the
// distribution-level assertions on the transient injector (empirical
// downtime fraction against the MTTR/(MTTR+λ) steady state).
package fault

import (
	"encoding/json"
	"sort"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestModelStringAndParse(t *testing.T) {
	for _, m := range []Model{Transient, Crash, Burst} {
		var got Model
		if err := got.UnmarshalText([]byte(m.String())); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("UnmarshalText(%q) = %v, want %v", m.String(), got, m)
		}
	}
	var m Model
	if err := m.UnmarshalText([]byte("meteor")); err == nil {
		t.Fatal("unknown model accepted")
	}
	if Model(0) != Transient {
		t.Fatal("zero value must be Transient (the paper's model)")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	for _, m := range []Model{Transient, Crash, Burst} {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal %v: %v", m, err)
		}
		var back Model
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != m {
			t.Fatalf("round trip %v -> %s -> %v", m, data, back)
		}
	}
	if _, err := json.Marshal(Model(42)); err == nil {
		t.Fatal("unknown model marshaled")
	}
	var m Model
	if err := json.Unmarshal([]byte(`"CRASH"`), &m); err != nil || m != Crash {
		t.Fatalf("case-insensitive name: m=%v err=%v", m, err)
	}
	if err := json.Unmarshal([]byte(`2`), &m); err != nil || m != Burst {
		t.Fatalf("numeric form: m=%v err=%v", m, err)
	}
}

func TestModelConfigValidate(t *testing.T) {
	base := DefaultConfig()
	crash := base
	crash.Model = Crash
	burst := base
	burst.Model = Burst
	burst.BurstRadius = 20
	burstNoRadius := base
	burstNoRadius.Model = Burst
	strayRadius := base
	strayRadius.BurstRadius = 10
	negRadius := base
	negRadius.BurstRadius = -1
	unknown := base
	unknown.Model = Model(9)

	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"crash with table-1 timing", crash, false},
		{"burst with radius", burst, false},
		{"burst without radius", burstNoRadius, true},
		// Ignored, like any unselected model's parameters: this is what
		// keeps failureModel × burstRadius cross-sweeps expandable.
		{"radius on non-burst model", strayRadius, false},
		{"negative radius", negRadius, true},
		{"unknown model", unknown, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

// timedTarget records exact down intervals against the scheduler clock so
// tests can measure the empirical downtime fraction, not just the
// injector's own bookkeeping.
type timedTarget struct {
	sched    *sim.Scheduler
	alive    []bool
	downAt   []time.Duration
	downTime []time.Duration
	fails    int
	recovers int
}

func newTimedTarget(n int, sched *sim.Scheduler) *timedTarget {
	tt := &timedTarget{
		sched:    sched,
		alive:    make([]bool, n),
		downAt:   make([]time.Duration, n),
		downTime: make([]time.Duration, n),
	}
	for i := range tt.alive {
		tt.alive[i] = true
	}
	return tt
}

func (t *timedTarget) N() int                      { return len(t.alive) }
func (t *timedTarget) Alive(id packet.NodeID) bool { return t.alive[id] }
func (t *timedTarget) Fail(id packet.NodeID) {
	t.alive[id] = false
	t.downAt[id] = t.sched.Now()
	t.fails++
}
func (t *timedTarget) Recover(id packet.NodeID) {
	t.alive[id] = true
	t.downTime[id] += t.sched.Now() - t.downAt[id]
	t.recovers++
}

// observedDownFraction sums measured downtime (closing any still-open
// interval at the horizon) over total node-time.
func (t *timedTarget) observedDownFraction(horizon time.Duration) float64 {
	total := time.Duration(0)
	for i := range t.alive {
		total += t.downTime[i]
		if !t.alive[i] {
			total += horizon - t.downAt[i]
		}
	}
	return float64(total) / float64(horizon*time.Duration(len(t.alive)))
}

// TestTransientDowntimeFraction is the distribution-level check on the
// paper's model: over a long run the measured per-node unavailability must
// approach MTTR/(MTTR+λ) — with Table 1's numbers 10/(10+50) = 1/6 — as
// the alternating-renewal steady state demands.
func TestTransientDowntimeFraction(t *testing.T) {
	sched := sim.NewScheduler()
	target := newTimedTarget(20, sched)
	in, err := NewInjector(DefaultConfig(), sched, sim.NewRNG(33), target)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := in.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	const horizon = 30 * time.Second
	if err := sched.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := float64(10) / 60 // MTTR/(MTTR+λ)
	got := target.observedDownFraction(horizon)
	// 20 nodes × 30 s ≈ 10k cycles: the sample fraction should sit within
	// a few percent (relative) of the steady state.
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("observed downtime fraction %v, want %v ±10%%", got, want)
	}
}

// TestCrashNodesNeverRecover locks the crash-stop contract: every node
// fails exactly once, no recovery is ever scheduled, and by a horizon much
// longer than the mean time-to-failure the whole population is down.
func TestCrashNodesNeverRecover(t *testing.T) {
	sched := sim.NewScheduler()
	target := newTimedTarget(30, sched)
	cfg := DefaultConfig()
	cfg.Model = Crash
	in, err := NewInjector(cfg, sched, sim.NewRNG(44), target)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := in.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// 5 s >> the 50 ms mean time-to-failure: P(any survivor) ≈ 30·e^-100.
	if err := sched.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if target.recovers != 0 || in.Stats().Repairs != 0 {
		t.Fatalf("crash model recovered nodes: target %d, stats %d", target.recovers, in.Stats().Repairs)
	}
	for i, alive := range target.alive {
		if alive {
			t.Fatalf("node %d still alive after 100 mean lifetimes", i)
		}
	}
	if target.fails != 30 || in.Stats().Injected != 30 {
		t.Fatalf("fails=%d injected=%d, want exactly one crash per node (30)", target.fails, in.Stats().Injected)
	}
}

// lineLocator positions node i at (i·spacing, 0) on an unbounded-width
// field — burst ball membership is then trivially computable.
type lineLocator struct {
	n       int
	spacing float64
}

func (l lineLocator) Pos(id packet.NodeID) geom.Point {
	return geom.Point{X: float64(id) * l.spacing, Y: 0}
}
func (l lineLocator) Bounds() geom.Rect {
	return geom.Rect{Max: geom.Point{X: float64(l.n-1) * l.spacing, Y: 0}}
}

// TestBurstFailsExactlyTheBall fires real burst events and asserts, via
// the OnBurst hook, that each event fails exactly the set of alive,
// unprotected nodes within BurstRadius of the epicenter — no more, no
// less — and that every victim later recovers.
func TestBurstFailsExactlyTheBall(t *testing.T) {
	const n = 101
	loc := lineLocator{n: n, spacing: 1}
	sched := sim.NewScheduler()
	target := newTimedTarget(n, sched)
	cfg := DefaultConfig()
	cfg.Model = Burst
	cfg.BurstRadius = 7.5
	in, err := NewInjector(cfg, sched, sim.NewRNG(55), target)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	in.Protect(50)
	in.SetLocator(loc)
	events := 0
	in.OnBurst = func(epi geom.Point, failed []packet.NodeID) {
		events++
		want := map[packet.NodeID]bool{}
		for i := 0; i < n; i++ {
			id := packet.NodeID(i)
			if id == 50 || !target.alive[id] && !contains(failed, id) {
				// Protected nodes never fail; nodes already down from a
				// previous burst cannot fail again.
				continue
			}
			if loc.Pos(id).Dist2(epi) <= cfg.BurstRadius*cfg.BurstRadius {
				want[id] = true
			}
		}
		got := map[packet.NodeID]bool{}
		for _, id := range failed {
			got[id] = true
		}
		wantIDs := make([]packet.NodeID, 0, len(want))
		for id := range want {
			wantIDs = append(wantIDs, id)
		}
		sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
		for _, id := range wantIDs {
			if !got[id] {
				t.Fatalf("burst at %v missed node %d (dist %v <= r %v)", epi, id, loc.Pos(id).Dist(epi), cfg.BurstRadius)
			}
		}
		for _, id := range failed {
			if id == 50 {
				t.Fatalf("burst failed the protected node")
			}
			if loc.Pos(id).Dist2(epi) > cfg.BurstRadius*cfg.BurstRadius {
				t.Fatalf("burst at %v failed node %d outside the ball (dist %v > r %v)", epi, id, loc.Pos(id).Dist(epi), cfg.BurstRadius)
			}
		}
	}
	if err := in.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sched.Run(3 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if events == 0 || in.Stats().Bursts != events {
		t.Fatalf("observed %d events, stats say %d", events, in.Stats().Bursts)
	}
	if in.Stats().Injected == 0 {
		t.Fatal("no burst ever failed a node")
	}
	// All repairs are shorter than the trailing inter-burst gap on
	// average; at the horizon the ledger must balance.
	if in.Stats().Repairs < in.Stats().Injected-n {
		t.Fatalf("repairs %d lag injected %d by more than one in-flight burst", in.Stats().Repairs, in.Stats().Injected)
	}
}

func contains(ids []packet.NodeID, id packet.NodeID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestBurstNeedsLocator: Start must refuse a burst injector that has no
// position source instead of panicking mid-simulation.
func TestBurstNeedsLocator(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = Burst
	cfg.BurstRadius = 10
	in, err := NewInjector(cfg, sim.NewScheduler(), sim.NewRNG(1), newTimedTarget(5, sim.NewScheduler()))
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := in.Start(); err == nil {
		t.Fatal("burst Start without locator accepted")
	}
}

// TestBurstDeterminism: same seed, same burst history.
func TestBurstDeterminism(t *testing.T) {
	run := func() Stats {
		sched := sim.NewScheduler()
		target := newTimedTarget(50, sched)
		cfg := DefaultConfig()
		cfg.Model = Burst
		cfg.BurstRadius = 10
		in, err := NewInjector(cfg, sched, sim.NewRNG(77), target)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		in.SetLocator(lineLocator{n: 50, spacing: 2})
		if err := in.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if err := sched.Run(2 * time.Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return in.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different stats: %+v vs %+v", a, b)
	}
}
