package sim

// Tests for the scheduler's recycled arrays (Release, NewScheduler): a
// scheduler on arrays whose previous owner left events pending behaves
// exactly like one on fresh arrays, the released scheduler can never reach
// the arrays again, and the spare set pins nothing of the finished run.

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// drainSpares empties the recycler now and again when the test ends, so
// the test sees only the arrays it released itself and leaves none to the
// tests after it, which bound capacities they grow from empty.
func drainSpares(t *testing.T) {
	t.Helper()
	drain := func() {
		for {
			if _, ok := spares.Get(); !ok {
				return
			}
		}
	}
	drain()
	t.Cleanup(drain)
}

// TestRecycledSchedulerMatchesReference runs TestSchedulerOrderProperty's
// reference model on schedulers built on recycled arrays. Each previous
// owner stops with heap and FIFO events pending and part of its FIFO
// consumed; the next scheduler must still match the model in dispatch
// order, Cancel results and Len after every operation, and no event of the
// previous owner may fire.
func TestRecycledSchedulerMatchesReference(t *testing.T) {
	drainSpares(t)
	for trial := int64(0); trial < 300; trial++ {
		rng := rand.New(rand.NewSource(trial))
		prev := NewScheduler()
		released := false
		stale := ArgHandler(func(uint64) {
			if released {
				t.Fatalf("trial %d: an event of the released scheduler fired", trial)
			}
		})
		for i := 0; i < 1+rng.Intn(200); i++ {
			prev.AtArg(time.Duration(rng.Intn(1000))*time.Microsecond, stale, 0)
			prev.AtFIFO(time.Duration(i)*time.Microsecond, stale, 0)
		}
		if err := prev.Run(time.Duration(rng.Intn(100)) * time.Microsecond); err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		if prev.Len() == 0 {
			t.Fatalf("trial %d: the previous owner left no event pending", trial)
		}
		prev.Release()
		released = true

		s := NewScheduler()
		if cap(s.arena) == 0 || s.Len() != 0 || s.ArenaSize() != 0 {
			t.Fatalf("trial %d: new scheduler has arena cap %d, Len %d, ArenaSize %d; want the released arrays at length 0",
				trial, cap(s.arena), s.Len(), s.ArenaSize())
		}
		ops := make([]uint32, rng.Intn(400))
		for i := range ops {
			ops[i] = rng.Uint32()
		}
		checkAgainstReference(t, trial, s, ops)
	}
}

// TestReleasedTimersAreInert hands a released scheduler's arrays to a new
// scheduler that fills the same slots under the same seqs. The released
// scheduler's Timers must neither report nor cancel those events.
func TestReleasedTimersAreInert(t *testing.T) {
	drainSpares(t)
	const n = 64
	old := NewScheduler()
	stale := ArgHandler(func(uint64) { t.Fatal("an event of the released scheduler fired") })
	timers := make([]Timer, n)
	for i := range timers {
		timers[i] = old.AtArg(time.Duration(i), stale, 0)
	}
	old.Release()

	s := NewScheduler()
	if cap(s.arena) < n {
		t.Fatalf("new scheduler's arena capacity %d, want the released arena (≥ %d)", cap(s.arena), n)
	}
	var got []int
	record := ArgHandler(func(arg uint64) { got = append(got, int(arg)) })
	for i := 0; i < n; i++ {
		s.AtArg(time.Duration(i), record, uint64(i))
	}
	for i, tm := range timers {
		if tm.Active() || tm.Cancel() {
			t.Fatalf("timer %d of the released scheduler still acts on the arrays", i)
		}
	}
	if old.Len() != 0 || old.ArenaSize() != 0 {
		t.Fatalf("released scheduler: Len %d, ArenaSize %d; want 0, 0", old.Len(), old.ArenaSize())
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("dispatched %d of %d events", len(got), n)
	}
	for i, arg := range got {
		if arg != i {
			t.Fatalf("dispatch %d ran event %d, want %d", i, arg, i)
		}
	}
}

// TestReleaseKeepsNoHandler checks that the spare set pins nothing of the
// finished run: every arena slot, up to the capacity a later run may
// reach, holds no handler, whether its event fired or was still pending.
func TestReleaseKeepsNoHandler(t *testing.T) {
	drainSpares(t)
	s := NewScheduler()
	fn := ArgHandler(func(uint64) {})
	for i := 0; i < 100; i++ {
		s.AtArg(time.Duration(i), fn, uint64(i))
		s.AtFIFO(time.Duration(i), fn, uint64(i))
	}
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	s.Release()
	a, ok := spares.Get()
	if !ok {
		t.Fatal("Release put no spare set")
	}
	if len(a.arena)+len(a.free)+len(a.heap)+len(a.fifo) != 0 {
		t.Fatalf("spare lengths arena %d, free %d, heap %d, FIFO %d; want 0",
			len(a.arena), len(a.free), len(a.heap), len(a.fifo))
	}
	for i, ev := range a.arena[:cap(a.arena)] {
		if ev.fn != nil {
			t.Fatalf("spare arena slot %d still holds a handler", i)
		}
	}
}

// TestRecyclerHoldsOneSetPerConcurrentRun runs schedulers on four
// goroutines at once, each taking and releasing arrays in a loop: the
// recycler ends with at most one set per goroutine. Under -race it also
// checks that the handover between goroutines is synchronized.
func TestRecyclerHoldsOneSetPerConcurrentRun(t *testing.T) {
	drainSpares(t)
	const workers = 4
	fn := ArgHandler(func(uint64) {})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := NewScheduler()
				for j := 0; j < 32; j++ {
					s.AtArg(time.Duration(j), fn, 0)
				}
				if err := s.Run(16); err != nil {
					t.Error(err)
					return
				}
				s.Release()
			}
		}()
	}
	wg.Wait()
	spares.mu.Lock()
	n := len(spares.sets)
	spares.mu.Unlock()
	if n == 0 || n > workers {
		t.Fatalf("recycler holds %d sets after %d concurrent runners, want 1..%d", n, workers, workers)
	}
}
