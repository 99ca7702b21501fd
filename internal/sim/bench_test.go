package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduler measures the steady-state schedule→dispatch hot path.
// The arena kernel recycles event slots through a free list, so allocs/op
// must stay at zero once warm — asserted in the body, so a one-iteration
// run still checks it; the seed container/heap kernel paid 2 allocs/op
// (the boxed *event plus heap.Interface growth) at ~705 ns/op.
func BenchmarkScheduler(b *testing.B) {
	s := NewScheduler()
	fn := ArgHandler(func(uint64) {})
	// Warm the arena so growth is not billed to the measured loop.
	for i := 0; i < 2048; i++ {
		s.AfterArg(time.Microsecond, fn, uint64(i))
	}
	if err := s.RunUntilIdle(0); err != nil {
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1024; i++ {
			s.AfterArg(time.Microsecond, fn, uint64(i))
		}
		if err := s.RunUntilIdle(0); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("steady-state schedule→dispatch allocated %.1f times per 1024 events, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(time.Microsecond, fn, uint64(i))
		if i%1024 == 1023 {
			if err := s.RunUntilIdle(0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.RunUntilIdle(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerCancel measures the schedule→cancel path: eager
// sift-out plus slot recycling, also allocation-free in steady state
// (asserted in the body once the free list is warm).
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	fn := ArgHandler(func(uint64) {})
	cancel := func(i int) {
		t := s.AfterArg(time.Duration(i%64)*time.Microsecond+time.Microsecond, fn, uint64(i))
		if !t.Cancel() {
			b.Fatal("cancel failed")
		}
	}
	cancel(0) // grow the arena, free list and heap to their one-event working set
	if allocs := testing.AllocsPerRun(100, func() { cancel(1) }); allocs != 0 {
		b.Fatalf("steady-state schedule→cancel allocated %.1f times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cancel(i)
	}
	if s.Len() != 0 {
		b.Fatalf("Len()=%d after canceling everything", s.Len())
	}
}
