package sim

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerDispatchOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.AtArg(30*time.Millisecond, func(uint64) { got = append(got, 3) }, 0)
	s.AtArg(10*time.Millisecond, func(uint64) { got = append(got, 1) }, 0)
	s.AtArg(20*time.Millisecond, func(uint64) { got = append(got, 2) }, 0)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AtArg(5*time.Millisecond, func(uint64) { got = append(got, i) }, 0)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-instant events fired out of scheduling order: %v", got)
	}
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler()
	var at time.Duration
	s.AtArg(7*time.Millisecond, func(uint64) { at = s.Now() }, 0)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if at != 7*time.Millisecond {
		t.Fatalf("handler observed Now()=%v, want 7ms", at)
	}
	if s.Now() != 7*time.Millisecond {
		t.Fatalf("final Now()=%v, want 7ms", s.Now())
	}
}

func TestSchedulerAfterIsRelative(t *testing.T) {
	s := NewScheduler()
	var second time.Duration
	s.AtArg(4*time.Millisecond, func(uint64) {
		s.AfterArg(6*time.Millisecond, func(uint64) { second = s.Now() }, 0)
	}, 0)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if second != 10*time.Millisecond {
		t.Fatalf("chained event fired at %v, want 10ms", second)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.AtArg(10*time.Millisecond, func(uint64) {}, 0)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.AtArg(5*time.Millisecond, func(uint64) {}, 0)
}

func TestSchedulerNilHandlerPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	s.AtArg(time.Millisecond, nil, 0)
}

func TestTimerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	timer := s.AtArg(time.Millisecond, func(uint64) { fired = true }, 0)
	if !timer.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !timer.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if timer.Active() {
		t.Fatal("canceled timer should not be active")
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestTimerCancelAfterFireIsNoop(t *testing.T) {
	s := NewScheduler()
	timer := s.AtArg(time.Millisecond, func(uint64) {}, 0)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if timer.Active() {
		t.Fatal("fired timer should not be active")
	}
	if timer.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var timer Timer
	if timer.Active() {
		t.Fatal("zero timer should be inactive")
	}
	if timer.Cancel() {
		t.Fatal("zero timer Cancel should report false")
	}
	if timer.At() != 0 {
		t.Fatal("zero timer At should be 0")
	}
	// Copies of a timer handle are interchangeable with the original.
	s := NewScheduler()
	orig := s.AtArg(time.Millisecond, func(uint64) {}, 0)
	copied := orig
	if !copied.Cancel() {
		t.Fatal("copied handle should cancel the original's event")
	}
	if orig.Active() || orig.Cancel() {
		t.Fatal("original handle should observe the copy's cancel")
	}
}

func TestRunStopsAtBoundary(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	for _, at := range []time.Duration{1, 2, 3, 4, 5} {
		at := at * time.Millisecond
		s.AtArg(at, func(uint64) { fired = append(fired, at) }, 0)
	}
	if err := s.Run(3 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events by 3ms, want 3 (events at boundary must fire)", len(fired))
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now()=%v after Run(3ms)", s.Now())
	}
	if err := s.Run(10 * time.Millisecond); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunIntoPastFails(t *testing.T) {
	s := NewScheduler()
	s.AtArg(5*time.Millisecond, func(uint64) {}, 0)
	if err := s.Run(5 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(time.Millisecond); err == nil {
		t.Fatal("Run into the past should fail")
	}
}

func TestStopInterruptsRun(t *testing.T) {
	s := NewScheduler()
	count := 0
	var reschedule ArgHandler
	reschedule = func(uint64) {
		count++
		if count == 5 {
			s.Stop()
		}
		s.AfterArg(time.Millisecond, reschedule, 0)
	}
	s.AfterArg(time.Millisecond, reschedule, 0)
	err := s.RunUntilIdle(0)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("RunUntilIdle err=%v, want ErrStopped", err)
	}
	if count != 5 {
		t.Fatalf("dispatched %d events before stop, want 5", count)
	}
	// The scheduler is reusable after a stop.
	if err := s.Run(s.Now() + 2*time.Millisecond); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
}

func TestRunUntilIdleGuard(t *testing.T) {
	s := NewScheduler()
	var loop ArgHandler
	loop = func(uint64) { s.AfterArg(time.Microsecond, loop, 0) }
	s.AfterArg(time.Microsecond, loop, 0)
	if err := s.RunUntilIdle(100); err == nil {
		t.Fatal("runaway loop should trip the maxEvents guard")
	}
}

func TestLenCountsPending(t *testing.T) {
	s := NewScheduler()
	a := s.AtArg(time.Millisecond, func(uint64) {}, 0)
	s.AtArg(2*time.Millisecond, func(uint64) {}, 0)
	if got := s.Len(); got != 2 {
		t.Fatalf("Len()=%d, want 2", got)
	}
	a.Cancel()
	if got := s.Len(); got != 1 {
		t.Fatalf("Len()=%d after cancel, want 1", got)
	}
}

func TestDispatchedCounter(t *testing.T) {
	s := NewScheduler()
	for i := 1; i <= 4; i++ {
		s.AtArg(time.Duration(i)*time.Millisecond, func(uint64) {}, 0)
	}
	canceled := s.AtArg(5*time.Millisecond, func(uint64) {}, 0)
	canceled.Cancel()
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if s.Dispatched() != 4 {
		t.Fatalf("Dispatched()=%d, want 4 (canceled events do not count)", s.Dispatched())
	}
}

// TestSchedulerOrderProperty drives the scheduler with random interleavings
// of AtArg, AtFIFO, Cancel and partial Runs and compares it with a reference
// model: every event fires exactly once unless a Cancel removed it first,
// the dispatch order is the (at, seq) order of all events that fire, Cancel
// succeeds exactly on pending heap events, and Len and PeakHeapDepth count
// heap and FIFO events alike.
func TestSchedulerOrderProperty(t *testing.T) {
	for trial := int64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewSource(trial))
		ops := make([]uint32, rng.Intn(400))
		for i := range ops {
			ops[i] = rng.Uint32()
		}
		checkAgainstReference(t, trial, NewScheduler(), ops)
	}
}

// checkAgainstReference runs one op sequence on s, a scheduler nothing has
// been scheduled on: the low two bits of an op pick AtArg, AtFIFO, Cancel
// or Run, the rest its time offset or target.
func checkAgainstReference(t *testing.T, trial int64, s *Scheduler, ops []uint32) {
	t.Helper()
	type ref struct {
		at      time.Duration
		timer   Timer
		fifo    bool
		fired   bool
		removed bool // canceled before firing
	}
	var (
		evs    []*ref // by scheduling order, which is seq order
		got    []int
		fifoAt time.Duration
		peak   int
	)
	record := ArgHandler(func(arg uint64) {
		if n := len(got); n > 0 && s.Now() < evs[got[n-1]].at {
			t.Fatalf("trial %d: clock went back to %v", trial, s.Now())
		}
		evs[arg].fired = true
		got = append(got, int(arg))
	})
	for i, op := range ops {
		v := time.Duration(op >> 2)
		switch op & 3 {
		case 0:
			e := &ref{at: s.Now() + v%64*time.Microsecond}
			evs = append(evs, e)
			e.timer = s.AtArg(e.at, record, uint64(len(evs)-1))
		case 1:
			fifoAt = max(fifoAt, s.Now()) + v%8*time.Microsecond
			evs = append(evs, &ref{at: fifoAt, fifo: true})
			s.AtFIFO(fifoAt, record, uint64(len(evs)-1))
		case 2:
			if len(evs) == 0 {
				continue
			}
			e := evs[int(v)%len(evs)]
			want := !e.fifo && !e.fired && !e.removed
			if e.timer.Cancel() != want {
				t.Fatalf("trial %d op %d: Cancel = %v, want %v", trial, i, !want, want)
			}
			e.removed = e.removed || want
		case 3:
			if err := s.Run(s.Now() + v%32*time.Microsecond); err != nil {
				t.Fatalf("trial %d op %d: Run: %v", trial, i, err)
			}
		}
		pending := 0
		for _, e := range evs {
			if !e.fired && !e.removed {
				pending++
			}
		}
		if s.Len() != pending {
			t.Fatalf("trial %d op %d: Len = %d, want %d", trial, i, s.Len(), pending)
		}
		peak = max(peak, pending)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("trial %d: RunUntilIdle: %v", trial, err)
	}
	var want []int
	for id, e := range evs {
		if !e.removed {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return evs[want[i]].at < evs[want[j]].at })
	if !slices.Equal(got, want) {
		t.Fatalf("trial %d: dispatch order %v, want %v", trial, got, want)
	}
	if s.Len() != 0 || s.PeakHeapDepth() != peak {
		t.Fatalf("trial %d: Len %d, PeakHeapDepth %d; want 0, %d", trial, s.Len(), s.PeakHeapDepth(), peak)
	}
}

// TestHeapOrderAtDepth drives the heap far deeper than the property test:
// 6 000 pending events, about half of them on four shared instants, so
// full groups of four children often tie on time and siftDown's
// tournament must break the tie by seq. A random quarter is then
// canceled, nearly all from the heap's interior. The dispatch order must
// equal a stable sort of the surviving events by time, which keeps them
// in scheduling (seq) order within an instant.
func TestHeapOrderAtDepth(t *testing.T) {
	const n = 6000
	rng := rand.New(rand.NewSource(24))
	shared := []time.Duration{300, 301, 5000, 9999}
	s := NewScheduler()
	var got []int
	record := ArgHandler(func(arg uint64) { got = append(got, int(arg)) })
	ats := make([]time.Duration, n)
	timers := make([]Timer, n)
	for i := range ats {
		ats[i] = time.Duration(rng.Intn(10_000))
		if rng.Intn(2) == 0 {
			ats[i] = shared[rng.Intn(len(shared))]
		}
		timers[i] = s.AtArg(ats[i], record, uint64(i))
	}
	canceled := make([]bool, n)
	for _, i := range rng.Perm(n)[:n/4] {
		if !timers[i].Cancel() {
			t.Fatalf("event %d: Cancel of a pending event failed", i)
		}
		canceled[i] = true
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	var want []int
	for i, c := range canceled {
		if !c {
			want = append(want, i)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return ats[want[a]] < ats[want[b]] })
	if s.PeakHeapDepth() != n || len(got) != len(want) {
		t.Fatalf("peak %d, dispatched %d; want %d, %d", s.PeakHeapDepth(), len(got), n, len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("dispatch %d is event %d at %v, want event %d at %v",
				k, got[k], ats[got[k]], want[k], ats[want[k]])
		}
	}
}

// TestSchedulerCancelIsEager checks that Cancel removes the event from the
// pending set immediately and that the heap stays consistent under random
// interleaved schedules and cancels.
func TestSchedulerCancelIsEager(t *testing.T) {
	prop := func(offsets []uint16, cancelMask []bool) bool {
		if len(offsets) > 256 {
			offsets = offsets[:256]
		}
		s := NewScheduler()
		timers := make([]Timer, len(offsets))
		for i, off := range offsets {
			timers[i] = s.AtArg(time.Duration(off)*time.Microsecond, func(uint64) {}, 0)
		}
		want := len(offsets)
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				if !timers[i].Cancel() {
					return false
				}
				want--
				if s.Len() != want {
					return false // cancel must shrink Len immediately
				}
			}
		}
		fired := 0
		prev := time.Duration(-1)
		for {
			at, ok := s.peek()
			if !ok {
				break
			}
			if at < prev {
				return false // heap order violated after removals
			}
			prev = at
			if !s.step() {
				return false
			}
			fired++
		}
		return fired == want && s.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerSteadyStateAllocFree asserts the schedule→dispatch hot path
// performs no heap allocation once the arena is warm — the regression guard
// behind the kernel's pooled-arena design (CI runs it explicitly). Each case
// is one way production code schedules: a pre-bound handler with a constant
// or a varying uint64 argument (timers, transmissions), AtFIFO (delivery
// batches), and heap and FIFO events due at one instant.
func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(s *Scheduler, h ArgHandler, i int)
	}{
		{"constant arg", func(s *Scheduler, h ArgHandler, i int) {
			s.AfterArg(time.Microsecond, h, 0)
		}},
		{"varying arg", func(s *Scheduler, h ArgHandler, i int) {
			s.AfterArg(time.Microsecond, h, uint64(i))
		}},
		{"AtFIFO", func(s *Scheduler, h ArgHandler, i int) {
			s.AtFIFO(s.Now()+time.Microsecond, h, uint64(i))
		}},
		{"heap and FIFO mixed at one instant", func(s *Scheduler, h ArgHandler, i int) {
			if i%2 == 0 {
				s.AfterArg(time.Microsecond, h, uint64(i))
			} else {
				s.AtFIFO(s.Now()+time.Microsecond, h, uint64(i))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			var sink uint64
			h := ArgHandler(func(arg uint64) { sink += arg })
			cycle := func(n int) {
				for i := 0; i < n; i++ {
					tc.schedule(s, h, i)
				}
				if err := s.RunUntilIdle(0); err != nil {
					t.Error(err)
				}
			}
			// Warm the arena, free list, heap and FIFO slices past the
			// working set.
			cycle(1024)
			if allocs := testing.AllocsPerRun(100, func() { cycle(512) }); allocs != 0 {
				t.Fatalf("steady-state schedule→dispatch cycle allocated %.1f times, want 0", allocs)
			}
			_ = sink
		})
	}
}

// TestTimerStaleAfterSlotReuse checks that a fired timer's handle stays
// inert even after its arena slot is recycled for a new event.
func TestTimerStaleAfterSlotReuse(t *testing.T) {
	s := NewScheduler()
	old := s.AtArg(time.Millisecond, func(uint64) {}, 0)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	// The freed slot is reused by the next schedule.
	fresh := s.AtArg(2*time.Millisecond, func(uint64) {}, 0)
	if old.Active() {
		t.Fatal("stale handle reports active after slot reuse")
	}
	if old.Cancel() {
		t.Fatal("stale handle canceled the slot's new occupant")
	}
	if !fresh.Active() {
		t.Fatal("fresh timer should be active")
	}
	if old.At() != time.Millisecond {
		t.Fatalf("stale handle At()=%v, want its original 1ms", old.At())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
	if got := g.Uniform(5, 2); got != 5 {
		t.Fatalf("degenerate Uniform returned %v, want lo", got)
	}
}

func TestRNGUniformDurationBounds(t *testing.T) {
	g := NewRNG(2)
	lo, hi := 5*time.Millisecond, 15*time.Millisecond
	for i := 0; i < 10000; i++ {
		v := g.UniformDuration(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("UniformDuration out of range: %v", v)
		}
	}
	if got := g.UniformDuration(hi, lo); got != hi {
		t.Fatalf("degenerate UniformDuration returned %v, want lo arg", got)
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := g.Exp(50)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 48 || mean > 52 {
		t.Fatalf("Exp(50) sample mean %v, want ≈50", mean)
	}
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Fatal("non-positive mean should return 0")
	}
}

func TestRNGExpDurationMean(t *testing.T) {
	g := NewRNG(4)
	const n = 100000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += g.ExpDuration(10 * time.Millisecond)
	}
	mean := sum / n
	if mean < 9500*time.Microsecond || mean > 10500*time.Microsecond {
		t.Fatalf("ExpDuration(10ms) sample mean %v, want ≈10ms", mean)
	}
	if g.ExpDuration(0) != 0 {
		t.Fatal("zero mean should return 0")
	}
}

func TestRNGBoolProbability(t *testing.T) {
	g := NewRNG(5)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.05) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.045 || p > 0.055 {
		t.Fatalf("Bool(0.05) hit rate %v, want ≈0.05", p)
	}
	if g.Bool(0) || g.Bool(-1) {
		t.Fatal("Bool(<=0) must be false")
	}
	if !g.Bool(1) || !g.Bool(2) {
		t.Fatal("Bool(>=1) must be true")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent1 := NewRNG(7)
	fork1 := parent1.Fork()
	seq1 := []float64{fork1.Float64(), fork1.Float64(), fork1.Float64()}

	parent2 := NewRNG(7)
	fork2 := parent2.Fork()
	// Draw extra values from parent2 after forking; the fork stream must not
	// be perturbed.
	parent2.Float64()
	parent2.Float64()
	seq2 := []float64{fork2.Float64(), fork2.Float64(), fork2.Float64()}

	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatal("fork stream depends on parent draws after forking")
		}
	}
}

func TestRNGPerm(t *testing.T) {
	g := NewRNG(8)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

// TestSchedulerKernelStats covers the observability accessors: peak heap
// depth tracks the maximum simultaneously pending events and the arena
// high-water mark never shrinks below it.
func TestSchedulerKernelStats(t *testing.T) {
	s := NewScheduler()
	if s.PeakHeapDepth() != 0 || s.ArenaSize() != 0 {
		t.Fatalf("fresh scheduler: peak=%d arena=%d, want 0,0", s.PeakHeapDepth(), s.ArenaSize())
	}
	// Schedule 10 events at distinct times before running: all ten are
	// pending at once, so the peak must be exactly 10.
	for i := 1; i <= 10; i++ {
		s.AtArg(time.Duration(i)*time.Millisecond, func(uint64) {}, 0)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if got := s.PeakHeapDepth(); got != 10 {
		t.Fatalf("PeakHeapDepth = %d, want 10", got)
	}
	if got := s.ArenaSize(); got < 10 {
		t.Fatalf("ArenaSize = %d, want >= 10 (arena never shrinks)", got)
	}

	// A chain of one-at-a-time events must not raise the peak: the heap
	// never holds more than one pending event.
	s2 := NewScheduler()
	var hops int
	var hop ArgHandler
	hop = func(uint64) {
		hops++
		if hops < 100 {
			s2.AfterArg(time.Millisecond, hop, 0)
		}
	}
	s2.AfterArg(time.Millisecond, hop, 0)
	if err := s2.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if got := s2.PeakHeapDepth(); got != 1 {
		t.Fatalf("chained PeakHeapDepth = %d, want 1", got)
	}
	if got := s2.Dispatched(); got != 100 {
		t.Fatalf("Dispatched = %d, want 100", got)
	}
}
