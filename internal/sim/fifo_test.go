package sim

// Tests for the FIFO beside the heap (AtFIFO): its events interleave with
// heap events in exact (at, seq) order, obey Run's boundary, Stop and the
// RunUntilIdle guard, reject what would break the order, and count in the
// kernel stats exactly as heap events do. TestSchedulerOrderProperty mixes
// them with AtArg, Cancel and partial Runs against a reference model.

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestAtFIFOSameInstantKeepsSchedulingOrder(t *testing.T) {
	// Heap and FIFO events due at one instant fire in the order they were
	// scheduled, whichever structure holds the first of them.
	for _, tc := range []struct {
		name string
		fifo []bool // per event, in scheduling order: AtFIFO or AtArg
	}{
		{"heap first", []bool{false, true, false, true, true, false}},
		{"FIFO first", []bool{true, false, true, false, false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			r := &orderRecorder{}
			for i, fifo := range tc.fifo {
				if fifo {
					s.AtFIFO(time.Millisecond, r.record, uint64(i))
				} else {
					s.AtArg(time.Millisecond, r.record, uint64(i))
				}
			}
			if err := s.RunUntilIdle(0); err != nil {
				t.Fatalf("RunUntilIdle: %v", err)
			}
			if len(r.order) != len(tc.fifo) {
				t.Fatalf("dispatched %v, want %d events", r.order, len(tc.fifo))
			}
			for i, v := range r.order {
				if v != i {
					t.Fatalf("dispatch order %v, want scheduling order", r.order)
				}
			}
		})
	}
}

func TestAtFIFORunBoundary(t *testing.T) {
	// Run(until) fires a FIFO event due exactly at until and stops before a
	// later one, leaving it pending.
	s := NewScheduler()
	r := &orderRecorder{}
	s.AtFIFO(3*time.Millisecond, r.record, 0)
	s.AtFIFO(4*time.Millisecond, r.record, 1)
	if err := s.Run(3 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(r.order) != 1 || r.order[0] != 0 {
		t.Fatalf("Run(3ms) dispatched %v, want [0]", r.order)
	}
	if s.Now() != 3*time.Millisecond || s.Len() != 1 {
		t.Fatalf("after Run(3ms): Now %v, Len %d; want 3ms, 1", s.Now(), s.Len())
	}
	if err := s.Run(10 * time.Millisecond); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if len(r.order) != 2 || s.Len() != 0 {
		t.Fatalf("after Run(10ms): dispatched %v, Len %d", r.order, s.Len())
	}
}

func TestAtFIFOStopAndGuard(t *testing.T) {
	// Stop called from a FIFO handler ends the run after that handler, and
	// a self-perpetuating FIFO chain trips the RunUntilIdle guard: both
	// count FIFO events like heap events.
	s := NewScheduler()
	count := 0
	var chain ArgHandler
	chain = func(uint64) {
		count++
		if count == 5 {
			s.Stop()
		}
		s.AtFIFO(s.Now()+time.Microsecond, chain, 0)
	}
	s.AtFIFO(time.Microsecond, chain, 0)
	if err := s.RunUntilIdle(0); !errors.Is(err, ErrStopped) {
		t.Fatalf("RunUntilIdle err=%v, want ErrStopped", err)
	}
	if count != 5 || s.Dispatched() != 5 {
		t.Fatalf("handler ran %d times, Dispatched %d; want 5, 5", count, s.Dispatched())
	}
	err := s.RunUntilIdle(100)
	if err == nil || !strings.Contains(err.Error(), "exceeded 100 events") {
		t.Fatalf("runaway FIFO chain: err=%v, want the maxEvents guard", err)
	}
	if s.Dispatched() != 105 {
		t.Fatalf("Dispatched = %d, want 105", s.Dispatched())
	}
}

func TestAtFIFOPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
		call func(s *Scheduler)
	}{
		{"decreasing time", "before the previous FIFO event", func(s *Scheduler) {
			s.AtFIFO(2*time.Millisecond, func(uint64) {}, 0)
			s.AtFIFO(time.Millisecond, func(uint64) {}, 0)
		}},
		{"nil handler", "nil handler", func(s *Scheduler) {
			s.AtFIFO(time.Millisecond, nil, 0)
		}},
		{"past time", "before now", func(s *Scheduler) {
			s.AtArg(5*time.Millisecond, func(uint64) {}, 0)
			if err := s.RunUntilIdle(0); err != nil {
				t.Fatal(err)
			}
			s.AtFIFO(time.Millisecond, func(uint64) {}, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v, want it to mention %q", r, tc.want)
				}
			}()
			tc.call(NewScheduler())
		})
	}
}

func TestAtFIFOKernelStats(t *testing.T) {
	// The same schedule through AtArg, through AtFIFO and half through
	// each gives the same Len, PeakHeapDepth and ArenaSize at every step:
	// the FIFO changes where an event waits, not what is pending.
	type stats struct{ len, peak, arena int }
	trace := func(fifo func(i int) bool) []stats {
		s := NewScheduler()
		var out []stats
		snap := func() {
			out = append(out, stats{s.Len(), s.PeakHeapDepth(), s.ArenaSize()})
		}
		h := ArgHandler(func(uint64) {})
		schedule := func(i int, at time.Duration) {
			if fifo(i) {
				s.AtFIFO(at, h, 0)
			} else {
				s.AtArg(at, h, 0)
			}
			snap()
		}
		for i := 0; i < 8; i++ {
			schedule(i, time.Duration(i)*time.Millisecond)
		}
		for _, until := range []time.Duration{2, 5} {
			if err := s.Run(until * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			snap()
		}
		for i := 8; i < 12; i++ {
			schedule(i, 7*time.Millisecond)
		}
		if err := s.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		snap()
		return out
	}
	heap := trace(func(int) bool { return false })
	for _, tc := range []struct {
		name string
		fifo func(int) bool
	}{
		{"FIFO", func(int) bool { return true }},
		{"mixed", func(i int) bool { return i%2 == 1 }},
	} {
		got := trace(tc.fifo)
		for i := range heap {
			if got[i] != heap[i] {
				t.Fatalf("%s: step %d: len/peak/arena %v, heap-only %v", tc.name, i, got[i], heap[i])
			}
		}
	}
	if last := heap[len(heap)-1]; last.len != 0 || last.peak != 8 || last.arena != 8 {
		t.Fatalf("heap-only end state %+v, want len 0, peak 8, arena 8", last)
	}
}

func TestAtFIFOReclaimsConsumedPrefix(t *testing.T) {
	// A FIFO that never drains — every handler schedules its successor,
	// four stay pending — still keeps its backing bounded: the consumed
	// prefix is slid down once it outgrows the pending entries.
	s := NewScheduler()
	var next ArgHandler
	next = func(uint64) {
		if s.Dispatched() < 10000 {
			s.AtFIFO(s.Now()+time.Microsecond, next, 0)
		}
	}
	for i := 0; i < 4; i++ {
		s.AtFIFO(0, next, 0)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if s.Dispatched() < 10000 || cap(s.fifo) > 16 {
		t.Fatalf("dispatched %d, FIFO capacity %d; want ≥ 10000 and ≤ 16", s.Dispatched(), cap(s.fifo))
	}
}
