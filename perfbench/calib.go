package main

import (
	"sort"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: the
// same code runs up to twice as slow while the machine's other tenants
// are busy, in spells that last from seconds to longer than a run. A
// hostClock measures that speed over a run with a calibration kernel, a
// fixed piece of work that lives here and shares no code with the
// repository, timed in slices between the workload's units of work. The
// end-to-end times are reported in reference-host seconds: each measured
// time scaled by the kernel's reference slice time over the median slice
// around it. A change to the repository moves the measured time and not
// the slices; a change in the host's speed moves both, as far as the
// kernel does the same kind of work as the workload. There are two
// kernels: an event loop for the workloads bound by the core's speed, and
// a neighbour-list build for the one bound by allocation and memory.

// kernel is a calibration kernel. run does one slice of work from the
// same initial state every time and returns a checksum of its result.
type kernel interface {
	run() uint64
	// ref is one slice's time on the reference host; it sets the scale of
	// the reported times and nothing else.
	ref() time.Duration
}

// calShare is the kernel's share of a run's time: a sample runs slices
// for 1/calShare of the time since the previous sample.
const calShare = 20

// eventKernel is a hold-model discrete-event loop, the same kind of work
// as the simulator's: a binary heap of timestamped events, each of which
// reads and updates the state of a random node and schedules one
// follow-up event at a random neighbour. Its memory, about 240 KB, fits a
// core's L2 cache with room to spare: a kernel of 3 MB, just over it, ran
// at a speed that differed from process to process with where its pages
// fell in the cache, and tracked the workloads worse than none at all.
// It allocates nothing after it is built, so the heap the workload leaves
// behind does not change it.
const (
	calNodes  = 1 << 12
	calDegree = 8
	calHeap   = 1 << 12 // pending events
	calOps    = 1 << 14 // events per slice
	calMsgs   = 32
)

type calEvent struct {
	at   uint64
	node int32
	msg  int32
}

type eventKernel struct {
	nbr    []int32 // calNodes × calDegree neighbour table
	seen   []uint32
	energy []float64
	heap   []calEvent
}

func newEventKernel() kernel {
	k := &eventKernel{
		nbr:    make([]int32, calNodes*calDegree),
		seen:   make([]uint32, calNodes),
		energy: make([]float64, calNodes),
		heap:   make([]calEvent, 0, calHeap),
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for i := range k.nbr {
		rng = xorshift(rng)
		k.nbr[i] = int32(rng % calNodes)
	}
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func (*eventKernel) ref() time.Duration { return 2 * time.Millisecond }

func (k *eventKernel) run() uint64 {
	clear(k.seen)
	for i := range k.energy {
		k.energy[i] = 1
	}
	k.heap = k.heap[:0]
	rng := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < calHeap; i++ {
		rng = xorshift(rng)
		k.push(calEvent{at: rng % 4096, node: int32(rng >> 32 % calNodes), msg: int32(i % calMsgs)})
	}
	var dups uint64
	for op := 0; op < calOps; op++ {
		e := k.pop()
		bit := uint32(1) << e.msg
		if k.seen[e.node]&bit != 0 {
			dups++
		} else {
			k.seen[e.node] |= bit
			k.energy[e.node] -= 1e-6 * float64(e.msg+1)
		}
		rng = xorshift(rng)
		next := k.nbr[int(e.node)*calDegree+int(rng%calDegree)]
		k.push(calEvent{at: e.at + 1 + rng>>40%1024, node: next, msg: e.msg})
	}
	sum := dups
	for _, e := range k.energy {
		sum = sum*31 + uint64(e*1e6)
	}
	return sum
}

func (k *eventKernel) push(e calEvent) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= e.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.heap = h
}

func (k *eventKernel) pop() calEvent {
	h := k.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if last.at <= h[c].at {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	k.heap = h
	return top
}

// fieldKernel builds a neighbour list for each of 32 768 uniformly placed
// points through a grid of cells, allocating every list, as a field
// builds its neighbour caches: the work that bounds scale-1e5, whose
// speed follows this kernel's more closely than the event kernel's.
const (
	fieldPoints = 1 << 15
	fieldCells  = 128 // per side; about 2 points per cell, radius 1 cell
)

type fieldKernel struct {
	x, y      []float64
	cellStart []int32 // points of cell c: order[cellStart[c]:cellStart[c+1]]
	order     []int32
	lists     [][]int32
}

func newFieldKernel() kernel {
	k := &fieldKernel{
		x: make([]float64, fieldPoints), y: make([]float64, fieldPoints),
		cellStart: make([]int32, fieldCells*fieldCells+1),
		order:     make([]int32, fieldPoints),
		lists:     make([][]int32, fieldPoints),
	}
	rng := uint64(0x853c49e6748fea9b)
	for i := range k.x {
		rng = xorshift(rng)
		k.x[i] = float64(rng>>11) / (1 << 53) * fieldCells
		rng = xorshift(rng)
		k.y[i] = float64(rng>>11) / (1 << 53) * fieldCells
	}
	return k
}

func (*fieldKernel) ref() time.Duration { return 15 * time.Millisecond }

func (k *fieldKernel) cell(i int) int { return int(k.y[i])*fieldCells + int(k.x[i]) }

func (k *fieldKernel) run() uint64 {
	clear(k.cellStart)
	for i := range k.x {
		k.cellStart[k.cell(i)+1]++
	}
	for c := 1; c < len(k.cellStart); c++ {
		k.cellStart[c] += k.cellStart[c-1]
	}
	fill := append([]int32(nil), k.cellStart[:len(k.cellStart)-1]...)
	for i := range k.x {
		c := k.cell(i)
		k.order[fill[c]] = int32(i)
		fill[c]++
	}
	var sum uint64
	for i := range k.x {
		cx, cy := int(k.x[i]), int(k.y[i])
		var nb []int32
		for y := max(cy-1, 0); y <= min(cy+1, fieldCells-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, fieldCells-1); x++ {
				c := y*fieldCells + x
				for _, j := range k.order[k.cellStart[c]:k.cellStart[c+1]] {
					dx, dy := k.x[j]-k.x[i], k.y[j]-k.y[i]
					if int(j) != i && dx*dx+dy*dy <= 1 {
						nb = append(nb, j)
					}
				}
			}
		}
		k.lists[i] = nb
		sum += uint64(len(nb))
	}
	clear(k.lists)
	return sum
}

// hostClock samples the host's speed over one run. A nil *hostClock
// samples nothing and reports a factor of 1.
type hostClock struct {
	k      kernel
	slices []time.Duration
	ends   []int     // sample i's slices end at ends[i]
	last   time.Time // end of the previous sample
	sum    uint64    // keeps the kernel's result live
}

// newHostClock runs k once to fault its memory in.
func newHostClock(k kernel) *hostClock {
	h := &hostClock{k: k}
	h.sum = h.k.run()
	h.last = time.Now()
	return h
}

// sample runs kernel slices for 1/calShare of the time since the previous
// sample, and at least one, and returns how long it took. The first slice
// is not timed: it brings the kernel's memory back into the caches the
// workload evicted it from, so a slice's time does not depend on what the
// workload touched before it.
func (h *hostClock) sample() time.Duration {
	if h == nil {
		return 0
	}
	start := time.Now()
	budget := start.Sub(h.last) / calShare
	h.sum += h.k.run()
	for {
		t := time.Now()
		h.sum += h.k.run()
		h.slices = append(h.slices, time.Since(t))
		if time.Since(start) >= budget {
			break
		}
	}
	h.ends = append(h.ends, len(h.slices))
	h.last = time.Now()
	return h.last.Sub(start)
}

// mark is the number of samples taken so far. Work that starts at mark a
// and ends at mark b ran after sample a−1 and before sample b.
func (h *hostClock) mark() int {
	if h == nil {
		return 0
	}
	return len(h.ends)
}

// factor converts times measured on the work between marks span[0] and
// span[1] to reference-host seconds: the kernel's reference slice time
// over the median of the slices of the sample just before the work, of
// those inside it, and of the sample just after it.
func (h *hostClock) factor(span [2]int) float64 {
	if h == nil {
		return 1
	}
	lo, hi := 0, len(h.slices)
	if a := span[0]; a >= 2 {
		lo = h.ends[a-2]
	}
	if b := span[1]; b < len(h.ends) {
		hi = h.ends[b]
	}
	if hi <= lo {
		return 1
	}
	s := append([]time.Duration(nil), h.slices[lo:hi]...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(h.k.ref()) / float64(s[(len(s)-1)/2]+s[len(s)/2]) * 2
}
