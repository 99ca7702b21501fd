package sim

// Tests for the argument-carrying event path (AtArg/AfterArg), the
// kernel's one way to schedule: ordering across handlers, argument
// fidelity and Timer cancellation. The allocation-free guarantee that
// motivates the mechanism is TestSchedulerSteadyStateAllocFree's.

import (
	"testing"
	"time"
)

func TestAtArgDispatchesWithArgument(t *testing.T) {
	s := NewScheduler()
	var got []uint64
	h := func(arg uint64) { got = append(got, arg) }
	s.AtArg(2*time.Millisecond, h, 42)
	s.AtArg(time.Millisecond, h, 7)
	s.AfterArg(3*time.Millisecond, h, 99)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	want := []uint64{7, 42, 99}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
}

// orderRecorder is a handler owner whose method value is bound once, the
// way production callers schedule.
type orderRecorder struct{ order []int }

func (r *orderRecorder) record(arg uint64) { r.order = append(r.order, int(arg)) }

func TestAtArgFIFOWithClosureEvents(t *testing.T) {
	// Events at the same instant dispatch in scheduling order whatever
	// their handler: a bound method value and func-literal closures share
	// the one (at, seq) total order.
	s := NewScheduler()
	r := &orderRecorder{}
	method := ArgHandler(r.record)
	s.AtArg(time.Millisecond, func(uint64) { r.order = append(r.order, 0) }, 0)
	s.AtArg(time.Millisecond, method, 1)
	s.AtArg(time.Millisecond, func(uint64) { r.order = append(r.order, 2) }, 0)
	s.AtArg(time.Millisecond, method, 3)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(r.order) != 4 {
		t.Fatalf("dispatched %v, want 4 events", r.order)
	}
	for i, v := range r.order {
		if v != i {
			t.Fatalf("mixed dispatch order %v, want ascending", r.order)
		}
	}
}

func TestAtArgTimerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.AtArg(time.Millisecond, func(uint64) { fired = true }, 5)
	if !tm.Active() {
		t.Fatal("pending arg timer not active")
	}
	if !tm.Cancel() {
		t.Fatal("Cancel on pending arg timer returned false")
	}
	if tm.Active() {
		t.Fatal("stopped arg timer still active")
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if fired {
		t.Fatal("cancelled arg event fired")
	}
}

func TestAtArgSlotReuseClearsHandler(t *testing.T) {
	// A recycled slot dispatches its new occupant's handler and argument —
	// not the stale ones of the event that fired from it.
	s := NewScheduler()
	var firstArgs, secondArgs []uint64
	s.AtArg(time.Millisecond, func(arg uint64) { firstArgs = append(firstArgs, arg) }, 1)
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	s.AfterArg(time.Millisecond, func(arg uint64) { secondArgs = append(secondArgs, arg) }, 2)
	if s.ArenaSize() != 1 {
		t.Fatalf("ArenaSize = %d, want 1 (the slot is reused)", s.ArenaSize())
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if len(firstArgs) != 1 || firstArgs[0] != 1 || len(secondArgs) != 1 || secondArgs[0] != 2 {
		t.Fatalf("first handler got %v, second %v; want [1] and [2]", firstArgs, secondArgs)
	}
}
