// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for every experiment in this repository: nodes
// are passive state machines whose handlers run only when the scheduler
// dispatches an event. Virtual time is a time.Duration measured from the
// start of the simulation. Two events scheduled for the same instant fire in
// the order they were scheduled, which — combined with a seeded RNG — makes
// every run bit-for-bit reproducible.
//
// Internally every pending event lives in a pooled event arena and is
// ordered by one of two structures: a 4-ary min-heap of arena indices, or a
// FIFO for the one caller whose times never decrease (AtFIFO), whose events
// are already in dispatch order. Scheduling reuses arena slots through a
// free list, so the steady-state hot path (schedule → dispatch → recycle)
// performs no heap allocation. A Scheduler is single-threaded by design
// (see DESIGN.md §5.1); parallelism lives above the kernel, one Scheduler
// per goroutine.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrStopped is returned by Run variants when the simulation was stopped
// explicitly via Stop before the run condition was met.
var ErrStopped = errors.New("sim: stopped")

// ArgHandler is a scheduled callback. It runs with the clock set to the
// event's timestamp and receives the argument it was scheduled with
// (AtArg/AfterArg). Carrying the argument through the event arena lets
// every caller schedule a method value bound once at construction plus an
// index into its own state, instead of allocating a closure per event:
// that is the kernel's one scheduling path, and it keeps the schedule →
// dispatch → recycle cycle allocation-free.
type ArgHandler func(arg uint64)

// event is one 40-byte arena slot. seq breaks ties between events at the
// same virtual instant so dispatch order is deterministic; it is also the
// event's identity — unique over the scheduler's whole lifetime — so a
// Timer holding the seq it was issued under can never alias the slot's
// next occupant, even after arbitrarily many reuses. pos is the slot's
// current position in the heap, -1 while free or queued in the FIFO (FIFO
// events have no Timer, so nothing reads it there).
type event struct {
	at  time.Duration
	seq uint64
	fn  ArgHandler
	arg uint64
	pos int32
}

// Timer is a handle to a scheduled event. The zero value is an inert timer:
// Cancel and Active are safe to call and do nothing. Timers are small value
// handles (they do not pin the event's memory) and may be copied freely.
type Timer struct {
	s   *Scheduler
	idx int32
	seq uint64
	at  time.Duration
}

// live reports whether the handle still names a pending event: the slot is
// occupied and holds the exact event this handle was issued for. A handle
// whose scheduler has been released (Release) finds no slot, since its
// pending events were dropped with the arrays.
func (t Timer) live() bool {
	if t.s == nil || int(t.idx) >= len(t.s.arena) {
		return false
	}
	ev := &t.s.arena[t.idx]
	return ev.pos >= 0 && ev.seq == t.seq
}

// Cancel prevents the timer's handler from running and removes the event
// from the pending set immediately. Canceling an already fired or already
// canceled timer is a no-op. It reports whether the call actually canceled
// a pending event.
func (t Timer) Cancel() bool {
	if !t.live() {
		return false
	}
	t.s.heapRemove(t.s.arena[t.idx].pos)
	t.s.release(t.idx)
	return true
}

// Active reports whether the timer is still pending: scheduled, not yet
// fired, and not canceled.
func (t Timer) Active() bool { return t.live() }

// At returns the virtual time the timer is (or was) scheduled to fire.
func (t Timer) At() time.Duration { return t.at }

// heapEntry is one pending-heap (or FIFO) element. It carries the full sort
// key (at, seq) inline next to the arena index, so sift comparisons read
// the contiguous heap slice instead of dereferencing scattered arena slots —
// the approach of cache-friendly priority queues. The order is identical
// to comparing through the arena, so dispatch order (and therefore all
// simulation output) is unchanged.
type heapEntry struct {
	at  time.Duration
	seq uint64
	idx int32
}

// Scheduler owns the virtual clock and the pending event set. The zero value
// is ready to use. Scheduler is not safe for concurrent use: the simulation
// model is single-threaded by design (see DESIGN.md §5.1).
type Scheduler struct {
	now     time.Duration
	seq     uint64
	arena   []event     // pooled event storage; slots are recycled via free
	free    []int32     // free-list of arena slots
	heap    []heapEntry // 4-ary min-heap ordered by (at, seq)
	stopped bool

	// fifo[fifoHead:] holds the pending AtFIFO events in scheduling order,
	// which is (at, seq) order because their times never decrease. The
	// consumed prefix is reset when the FIFO drains and slid down once it
	// outgrows the pending entries.
	fifo     []heapEntry
	fifoHead int

	// dispatched counts events that have fired, for observability and as a
	// runaway guard in tests.
	dispatched uint64
	// maxHeap is the largest pending-set size seen, heap and FIFO together,
	// for observability (obs.RunStats.PeakHeapDepth). One compare per
	// schedule; never read on the hot path.
	maxHeap int
}

// arrays is the set of backing arrays a scheduler recycles across runs.
type arrays struct {
	arena []event
	free  []int32
	heap  []heapEntry
	fifo  []heapEntry
}

// spares holds the arrays of released schedulers (Release).
var spares Recycler[arrays]

// NewScheduler returns an empty scheduler with the clock at zero. It takes
// the backing arrays of a released scheduler when one is spare, at length
// zero, so a process that runs trial after trial grows its event arena,
// heap and FIFO once rather than once per run.
func NewScheduler() *Scheduler {
	s := &Scheduler{}
	if a, ok := spares.Get(); ok {
		s.arena, s.free, s.heap, s.fifo = a.arena, a.free, a.heap, a.fifo
	}
	return s
}

// Release ends the scheduler's run and hands its backing arrays to the next
// NewScheduler. The events still pending are dropped: their slots are
// cleared, so the spare arrays pin no handler of this run. The scheduler
// keeps its clock and counters but no arrays: its Timers become inert, and
// scheduling on it again allocates afresh, never into arrays another
// scheduler now owns. Call it once the run's results have been read.
func (s *Scheduler) Release() {
	clear(s.arena)
	spares.Put(arrays{arena: s.arena[:0], free: s.free[:0], heap: s.heap[:0], fifo: s.fifo[:0]})
	s.arena, s.free, s.heap, s.fifo, s.fifoHead = nil, nil, nil, nil, 0
}

// Recycler is a mutex-guarded LIFO stack of spare backing-array sets,
// shared by every run in the process. A run takes a set when it starts and
// gives it back when it ends, so the stack never holds more sets than runs
// were ever in flight at once. Unlike a sync.Pool it keeps its sets across
// garbage collections and hands a set back whichever goroutine, and
// processor, asks.
type Recycler[T any] struct {
	mu   sync.Mutex
	sets []T
}

// Put pushes a spare set.
func (r *Recycler[T]) Put(set T) {
	r.mu.Lock()
	r.sets = append(r.sets, set)
	r.mu.Unlock()
}

// Get pops the most recently put set; ok is false when none is spare.
func (r *Recycler[T]) Get() (set T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.sets)
	if n == 0 {
		return set, false
	}
	set = r.sets[n-1]
	clear(r.sets[n-1:]) // the stack must not pin a set it handed out
	r.sets = r.sets[:n-1]
	return set, true
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events, heap and FIFO together, in
// O(1). Canceled events are removed from the heap eagerly, so the lengths
// are the live count.
func (s *Scheduler) Len() int { return len(s.heap) + len(s.fifo) - s.fifoHead }

// Dispatched returns the total number of events that have fired.
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// PeakHeapDepth returns the largest number of simultaneously pending
// events over the scheduler's lifetime, FIFO events included.
func (s *Scheduler) PeakHeapDepth() int { return s.maxHeap }

// ArenaSize returns the number of event arena slots ever allocated — the
// pool's high-water mark, since slots are recycled and the arena only
// grows when every slot is in use.
func (s *Scheduler) ArenaSize() int { return len(s.arena) }

// alloc takes a slot from the free list, growing the arena only when the
// pool is exhausted.
func (s *Scheduler) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.arena = append(s.arena, event{pos: -1})
	return int32(len(s.arena) - 1)
}

// release recycles a slot: clearing pos invalidates outstanding Timers
// (their seq check closes the reuse race), and dropping fn releases the
// handler to the GC.
func (s *Scheduler) release(idx int32) {
	ev := &s.arena[idx]
	ev.fn = nil
	ev.arg = 0
	ev.pos = -1
	s.free = append(s.free, idx)
}

// entryLess orders heap entries by (at, seq); seq is unique, so the order
// is total and dispatch is deterministic.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a byte
// zero-extension, not a branch.
func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// lessIdx is entryLess(*x, *y) as 0 or 1, computed from SETcc results so
// that no comparison becomes a conditional jump.
func lessIdx(x, y *heapEntry) int {
	return b2i(x.at < y.at) | b2i(x.at == y.at)&b2i(x.seq < y.seq)
}

// pick returns a when c is 0 and b when c is 1, without a branch.
func pick(a, b, c int) int { return a ^ (a^b)&-c }

// notePeak raises the pending-set peak after a schedule.
func (s *Scheduler) notePeak() {
	if n := s.Len(); n > s.maxHeap {
		s.maxHeap = n
	}
}

// heapPush appends the slot and sifts it up.
func (s *Scheduler) heapPush(idx int32) {
	ev := &s.arena[idx]
	ev.pos = int32(len(s.heap))
	s.heap = append(s.heap, heapEntry{at: ev.at, seq: ev.seq, idx: idx})
	s.notePeak()
	s.siftUp(len(s.heap) - 1)
}

// heapRemove deletes the entry at heap position i (eager cancel and pop
// share this): the last entry fills the hole and is sifted to its place.
func (s *Scheduler) heapRemove(i int32) {
	last := len(s.heap) - 1
	moved := s.heap[last]
	s.heap = s.heap[:last]
	if int(i) == last {
		return
	}
	s.heap[i] = moved
	s.arena[moved.idx].pos = i
	s.siftDown(int(i))
	s.siftUp(int(i))
}

// siftUp restores heap order from position i toward the root.
func (s *Scheduler) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(e, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.arena[s.heap[i].idx].pos = int32(i)
		i = parent
	}
	s.heap[i] = e
	s.arena[e.idx].pos = int32(i)
}

// siftDown restores heap order from position i toward the leaves. Which
// of four children is smallest is data-dependent and unpredictable, so a
// full group is settled by a three-comparison tournament computed as 0/1
// integers (lessIdx, pick): the selection compiles to SETcc and masks with
// no conditional jump to mispredict. (at, seq) is a total order, so the
// tournament finds the same child as a scan would; the partial last group
// keeps the scan. The &3 masks let the compiler drop the bounds checks.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	e := h[i]
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		if first+4 <= n {
			c := (*[4]heapEntry)(h[first : first+4])
			a := lessIdx(&c[1], &c[0])
			b := 2 + lessIdx(&c[3], &c[2])
			min += pick(a, b, lessIdx(&c[b&3], &c[a&3]))
		} else {
			for c := first + 1; c < n; c++ {
				if entryLess(h[c], h[min]) {
					min = c
				}
			}
		}
		if !entryLess(h[min], e) {
			break
		}
		h[i] = h[min]
		s.arena[h[i].idx].pos = int32(i)
		i = min
	}
	h[i] = e
	s.arena[e.idx].pos = int32(i)
}

// newEvent checks a schedule request and stores it in a fresh arena slot
// under the next seq. Scheduling in the past (before Now) panics: it is
// always a model bug, and silently clamping would mask causality
// violations.
func (s *Scheduler) newEvent(op string, at time.Duration, fn ArgHandler, arg uint64) int32 {
	if fn == nil {
		panic("sim: Scheduler." + op + ": nil handler")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: Scheduler.%s: scheduling at %v before now %v", op, at, s.now))
	}
	idx := s.alloc()
	ev := &s.arena[idx]
	ev.at = at
	ev.seq = s.seq
	ev.fn = fn
	ev.arg = arg
	s.seq++
	return idx
}

// AtArg schedules fn(arg) to run at the absolute virtual time at. fn is
// typically a method value created once and reused, and arg an index into
// caller-owned pooled state, so scheduling materializes no closure.
func (s *Scheduler) AtArg(at time.Duration, fn ArgHandler, arg uint64) Timer {
	idx := s.newEvent("AtArg", at, fn, arg)
	s.heapPush(idx)
	return Timer{s: s, idx: idx, seq: s.arena[idx].seq, at: at}
}

// AtFIFO schedules fn(arg) at the absolute virtual time at, for a caller
// whose times never decrease: the event is appended to the FIFO instead of
// sifted into the heap. Appending keeps the FIFO in (at, seq) order, and
// dispatch takes the earlier of the FIFO head and the heap root, so the
// dispatch order is exactly the one AtArg would give. The event takes an
// arena slot and counts in Len and PeakHeapDepth like a heap event, but it
// returns no Timer and cannot be canceled. All AtFIFO callers of one
// scheduler share the FIFO, so their times together must never decrease:
// a time before the previous AtFIFO event's panics, as do a nil handler
// and a time before Now.
func (s *Scheduler) AtFIFO(at time.Duration, fn ArgHandler, arg uint64) {
	if n := len(s.fifo); n > 0 && at < s.fifo[n-1].at {
		panic(fmt.Sprintf("sim: Scheduler.AtFIFO: time %v before the previous FIFO event's %v",
			at, s.fifo[n-1].at))
	}
	idx := s.newEvent("AtFIFO", at, fn, arg)
	s.fifo = append(s.fifo, heapEntry{at: at, seq: s.arena[idx].seq, idx: idx})
	s.notePeak()
}

// AfterArg schedules fn(arg) to run d after the current virtual time. A
// negative d panics, matching AtArg's past-scheduling rule.
func (s *Scheduler) AfterArg(d time.Duration, fn ArgHandler, arg uint64) Timer {
	return s.AtArg(s.now+d, fn, arg)
}

// Stop makes the current or next Run call return ErrStopped after the
// in-flight handler (if any) completes.
func (s *Scheduler) Stop() { s.stopped = true }

// step pops and dispatches the earliest pending event: the FIFO head or the
// heap root, whichever is first by (at, seq). It reports whether an event
// fired. The slot is recycled before the handler runs, so a handler that
// schedules may reuse it; the Timer seq check keeps old handles inert.
func (s *Scheduler) step() bool {
	var idx int32
	switch {
	case s.fifoHead < len(s.fifo) && (len(s.heap) == 0 || entryLess(s.fifo[s.fifoHead], s.heap[0])):
		idx = s.fifo[s.fifoHead].idx
		s.fifoHead++
		if s.fifoHead == len(s.fifo) {
			s.fifo = s.fifo[:0]
			s.fifoHead = 0
		} else if 2*s.fifoHead >= len(s.fifo) {
			n := copy(s.fifo, s.fifo[s.fifoHead:])
			s.fifo = s.fifo[:n]
			s.fifoHead = 0
		}
	case len(s.heap) > 0:
		idx = s.heap[0].idx
		s.heapRemove(0)
	default:
		return false
	}
	ev := &s.arena[idx]
	at, fn, arg := ev.at, ev.fn, ev.arg
	s.release(idx)
	s.now = at
	s.dispatched++
	fn(arg)
	return true
}

// Run dispatches events until the queue is empty or the clock would pass
// until. Events scheduled exactly at until do fire. On normal completion the
// clock is advanced to until if the queue drained early, so repeated Run
// calls see monotonic time. Returns ErrStopped if Stop was called.
func (s *Scheduler) Run(until time.Duration) error {
	if until < s.now {
		return fmt.Errorf("sim: Run until %v is before now %v", until, s.now)
	}
	for {
		if s.stopped {
			s.stopped = false
			return ErrStopped
		}
		next, ok := s.peek()
		if !ok || next > until {
			s.now = until
			return nil
		}
		s.step()
	}
}

// RunUntilIdle dispatches events until no pending events remain. Returns
// ErrStopped if Stop was called. The maxEvents guard converts an accidental
// self-perpetuating event loop into a diagnosable error instead of a hang.
func (s *Scheduler) RunUntilIdle(maxEvents uint64) error {
	start := s.dispatched
	for {
		if s.stopped {
			s.stopped = false
			return ErrStopped
		}
		if maxEvents > 0 && s.dispatched-start >= maxEvents {
			return fmt.Errorf("sim: RunUntilIdle exceeded %d events at t=%v", maxEvents, s.now)
		}
		if !s.step() {
			return nil
		}
	}
}

// peek returns the timestamp of the earliest pending event, heap or FIFO.
// Cancellation is eager, so the heap root is always live.
func (s *Scheduler) peek() (time.Duration, bool) {
	if s.fifoHead < len(s.fifo) {
		at := s.fifo[s.fifoHead].at
		if len(s.heap) > 0 && s.heap[0].at < at {
			at = s.heap[0].at
		}
		return at, true
	}
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}
