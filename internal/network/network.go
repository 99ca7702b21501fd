// Package network is the shared transmission substrate the protocols run
// on. It binds the event kernel, the field geometry, the MAC contention
// model, and the radio energy model into broadcast/unicast primitives with
// the paper's semantics:
//
//   - A transmission takes a slotted random backoff (Table 1: 20 slots ×
//     0.1 ms), the §4 deterministic G·n² contention term for the n nodes
//     its radio reaches (G = 0.01 ms, mac.AnalyticConfig, in every
//     simulated run), and the per-byte transmission time. This is what
//     produces the paper's central delay effect — SPIN's maximum-power
//     traffic contends with ~n1 nodes per frame while SPMS's low-power
//     hops contend with only ~ns.
//   - With CarrierSense on, carrier sense also serializes the shared
//     channel: a transmission at level l occupies the air for every node
//     inside the transmitter's level-l radius until the frame ends; a node
//     whose channel is busy defers its own transmission until the
//     reservation clears.
//   - A failed node cannot transmit; a transmission whose sender fails
//     before completion is cancelled; a failed receiver drops the packet
//     ("during the time of repair, any received message is dropped and any
//     scheduled packet transfer is cancelled", §5.1.2).
//   - Transmit energy is charged to the sender, receive energy to each
//     alive node the frame actually reaches.
package network

import (
	"fmt"
	"time"

	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Receiver is the protocol side of a network: one per network, attached
// with Bind. HandleBatch runs once per delivery batch, with the scheduler
// clock at the transmission's completion plus the processing delay
// (SetProcessingDelay). to holds the receivers the transmission reached
// that are still alive, in delivery order (topo.Field.ReachedBy order for a
// broadcast), and is never empty. to aliases the network's receiver FIFO:
// it is valid only during the call, and the handlers may only Send, which
// never appends to that FIFO. p travels by value: a pointer would escape
// through the interface and cost an allocation per batch.
type Receiver interface {
	HandleBatch(p packet.Packet, to []packet.NodeID)
}

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	TraceTx TraceKind = iota + 1
	TraceDeliver
	TraceDrop
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceTx:
		return "tx"
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one observable network action, for scripted protocol tests.
type TraceEvent struct {
	Kind   TraceKind
	Packet packet.Packet
	Node   packet.NodeID // delivering/dropping node (TraceDeliver/TraceDrop), sender for TraceTx
	Reason string        // drop reason, empty otherwise
}

// Config parameterizes a Network.
type Config struct {
	Sizes packet.Sizes
	MAC   mac.Config
	// CarrierSense enables shared-channel serialization on top of the
	// per-transmission access delay. It is off by default: under the
	// paper's Table 1 traffic (Poisson 1/ms per node, 40-byte DATA,
	// all-to-all interest) a serializing channel saturates unconditionally
	// — each item carries ~2·(n-1) ms of airtime — so the paper's reported
	// millisecond-scale delays imply its simulator modeled contention as a
	// per-transmission delay, not an occupancy. The mechanism is kept for
	// the carrier-sense ablation (testdata/golden/campaigns/
	// ablation-carrier-sense.json).
	CarrierSense bool
}

// DefaultProc is Table 1's per-packet processing time, the delay the
// protocol constructors pass to SetProcessingDelay.
const DefaultProc = 20 * time.Microsecond

// DefaultConfig returns Table 1 packet sizes and the §4 G·n² contention
// MAC, the configuration every figure reproduction uses.
func DefaultConfig() Config {
	return Config{Sizes: packet.DefaultSizes(), MAC: mac.AnalyticConfig()}
}

// Network is the radio medium plus node liveness. It implements
// fault.Target so the injector can drive it.
type Network struct {
	sched *sim.Scheduler
	field *topo.Field
	csma  *mac.CSMA
	rng   *sim.RNG
	sizes packet.Sizes
	alive []bool
	recv  Receiver

	// busyUntil[i] is the virtual time node i's channel clears: the end of
	// the latest transmission whose radio range covers node i. Nodes defer
	// their own transmissions past this point (carrier sense). It is
	// allocated only with carrier sense on, and read only then.
	busyUntil    []time.Duration
	carrierSense bool

	// flights is the in-flight transmission arena: the packet on the air
	// from Send until its batch has been handled. Events carry a slot's
	// index; slots are recycled through freeFlights, so the steady-state
	// cycle Send → complete → batch-dispatch allocates nothing once the
	// arena has grown to the working set. completeFn and deliverFn are the
	// pre-bound event handlers (method values created once so AtArg
	// scheduling never allocates).
	flights     []packet.Packet
	freeFlights []uint64
	completeFn  sim.ArgHandler
	deliverFn   sim.ArgHandler

	// rxq is the receiver FIFO shared by every transmission: onComplete
	// appends the receivers it reached alive, then packet.None, and each
	// delivery batch consumes one such run from rxHead. Batch events wait
	// in the scheduler's FIFO and fire in the order they were scheduled
	// (see SetProcessingDelay), so the runs are consumed in the order they
	// were appended.
	rxq    []packet.NodeID
	rxHead int

	// proc is the receivers' processing delay (SetProcessingDelay): the
	// gap between a transmission's completion and its batched handler
	// event.
	proc time.Duration

	energy *metrics.EnergyAccount
	count  *metrics.Counters
	trace  func(TraceEvent)
}

// New builds a network over the given field. All dependencies are required.
func New(sched *sim.Scheduler, field *topo.Field, rng *sim.RNG, cfg Config) (*Network, error) {
	if sched == nil || field == nil || rng == nil {
		return nil, fmt.Errorf("network: nil dependency (sched=%v field=%v rng=%v)",
			sched != nil, field != nil, rng != nil)
	}
	if err := cfg.Sizes.Validate(); err != nil {
		return nil, err
	}
	csma, err := mac.NewCSMA(cfg.MAC)
	if err != nil {
		return nil, err
	}
	n := field.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	nw := &Network{
		sched:        sched,
		field:        field,
		csma:         csma,
		rng:          rng,
		sizes:        cfg.Sizes,
		alive:        alive,
		carrierSense: cfg.CarrierSense,
		energy:       metrics.NewEnergyAccount(n),
		count:        metrics.NewCounters(),
	}
	if cfg.CarrierSense {
		nw.busyUntil = make([]time.Duration, n)
	}
	// A released network's arrays come back at length zero (Release).
	if a, ok := spares.Get(); ok {
		nw.flights, nw.freeFlights, nw.rxq = a.flights, a.freeFlights, a.rxq
	}
	// Method values allocate at each evaluation; binding them once here
	// keeps the per-transmission scheduling path allocation-free.
	nw.completeFn = nw.onComplete
	nw.deliverFn = nw.onDeliverBatch
	return nw, nil
}

// flightArrays is the set of backing arrays a network recycles across runs:
// the flight arena, its free list and the receiver FIFO.
type flightArrays struct {
	flights     []packet.Packet
	freeFlights []uint64
	rxq         []packet.NodeID
}

// spares holds the arrays of released networks.
var spares sim.Recycler[flightArrays]

// Release ends the network's run and hands its flight arena, free-flight
// list and receiver FIFO to the next New, as sim.Scheduler.Release does
// for the event arrays. The packets still in flight are dropped: their
// slots are cleared, so the spare arrays pin nothing of this run. The
// network keeps its counters and energy account but no arrays, so a Send
// on it allocates afresh, never into arrays another network now owns.
// Call it once the run's results have been read.
func (nw *Network) Release() {
	clear(nw.flights)
	spares.Put(flightArrays{flights: nw.flights[:0], freeFlights: nw.freeFlights[:0], rxq: nw.rxq[:0]})
	nw.flights, nw.freeFlights, nw.rxq, nw.rxHead = nil, nil, nil, 0
}

// SetProcessingDelay sets the receivers' processing delay, zero until set.
// Every receiver of a completed transmission pays energy, tracing, and
// liveness checks individually at delivery time T, but the protocol
// handles them together in a single event at T+proc — its own event even
// when proc is zero — with a second liveness check, since a node can fail
// between delivery and processing. One pooled event per transmission
// instead of one allocated closure per receiver preserves event order
// exactly: per-receiver events would be scheduled back-to-back with
// consecutive sequence numbers, so nothing could interleave between them
// anyway.
//
// proc is fixed before traffic starts: it panics once a transmission has
// been scheduled. Completions fire in time order and each schedules its
// batch at completion+proc, so with one proc the batch times never
// decrease: the batches go to the scheduler's FIFO (sim.Scheduler.AtFIFO)
// instead of its heap, and fire in the order they were scheduled — the
// order the receiver FIFO relies on.
//
// Protocol constructors call this with their processing delay.
func (nw *Network) SetProcessingDelay(proc time.Duration) {
	if proc < 0 {
		panic(fmt.Sprintf("network: negative processing delay %v", proc))
	}
	if len(nw.flights) > 0 {
		panic("network: SetProcessingDelay after the first transmission")
	}
	nw.proc = proc
}

// allocFlight takes a pooled arena slot for a departing packet. The returned
// index — not a pointer — is what events carry: the arena's backing array
// may move when it grows mid-handler.
func (nw *Network) allocFlight(p *packet.Packet) uint64 {
	if n := len(nw.freeFlights); n > 0 {
		idx := nw.freeFlights[n-1]
		nw.freeFlights = nw.freeFlights[:n-1]
		nw.flights[idx] = *p
		return idx
	}
	nw.flights = append(nw.flights, *p)
	return uint64(len(nw.flights) - 1)
}

// freeFlight returns a slot to the pool, dropping the packet's references.
func (nw *Network) freeFlight(idx uint64) {
	nw.flights[idx] = packet.Packet{}
	nw.freeFlights = append(nw.freeFlights, idx)
}

// Bind attaches the receiver that handles every delivery batch. Protocol
// constructors call it once, before traffic flows.
func (nw *Network) Bind(r Receiver) {
	if r == nil {
		panic("network: Bind with nil receiver")
	}
	nw.recv = r
}

// Scheduler returns the underlying event kernel (protocols schedule their
// timers on it).
func (nw *Network) Scheduler() *sim.Scheduler { return nw.sched }

// Field returns the topology.
func (nw *Network) Field() *topo.Field { return nw.field }

// Sizes returns the configured packet sizes.
func (nw *Network) Sizes() packet.Sizes { return nw.sizes }

// Energy returns the energy account.
func (nw *Network) Energy() *metrics.EnergyAccount { return nw.energy }

// Counters returns the protocol event counters.
func (nw *Network) Counters() *metrics.Counters { return nw.count }

// RNG returns the network's random stream (protocols share it for backoff
// draws so a single seed reproduces a run).
func (nw *Network) RNG() *sim.RNG { return nw.rng }

// SetTrace installs a trace callback; pass nil to disable. The callback
// runs inside the event loop and must not Send. TraceTx and TraceDrop can
// fire inside a delivery batch, whose receivers were checked for liveness
// before it ran, so a callback may Fail or Recover a node only on
// TraceDeliver.
func (nw *Network) SetTrace(fn func(TraceEvent)) { nw.trace = fn }

// emit traces one action on p. The TraceEvent, with its copy of the
// packet, is built only when a trace is installed.
func (nw *Network) emit(kind TraceKind, p *packet.Packet, node packet.NodeID, reason string) {
	if nw.trace != nil {
		nw.trace(TraceEvent{Kind: kind, Packet: *p, Node: node, Reason: reason})
	}
}

// N implements fault.Target.
func (nw *Network) N() int { return len(nw.alive) }

// Alive implements fault.Target.
func (nw *Network) Alive(id packet.NodeID) bool {
	nw.check(id)
	return nw.alive[id]
}

// Fail implements fault.Target.
func (nw *Network) Fail(id packet.NodeID) {
	nw.check(id)
	nw.alive[id] = false
}

// Recover implements fault.Target.
func (nw *Network) Recover(id packet.NodeID) {
	nw.check(id)
	nw.alive[id] = true
}

// Send transmits p from p.Src to p.Dst as a unicast at p.Level, or as a
// zone broadcast when p.Dst == packet.Broadcast. p.Bytes is filled from the
// configured sizes if zero. Silently drops (with a counter) when the sender
// is down.
func (nw *Network) Send(p packet.Packet) {
	nw.check(p.Src)
	if p.Bytes == 0 {
		p.Bytes = nw.sizes.Of(p.Kind)
	}
	if !nw.alive[p.Src] {
		nw.count.Drops++
		nw.emit(TraceDrop, &p, p.Src, "sender down")
		return
	}
	model := nw.field.Model()
	contenders := nw.field.Contenders(p.Src, p.Level)
	slot := 0
	if n := nw.csma.NumSlots(); n > 0 {
		slot = nw.rng.Intn(n)
	}
	access := nw.csma.AccessDelay(contenders, slot)

	// Carrier sense: wait for the channel around the transmitter to clear,
	// then back off, then transmit. The frame reserves the air for every
	// node inside the transmit radius until it ends — exactly the sender
	// plus its cached level neighbors, so the reservation loop is
	// O(neighbors) rather than a distance scan over all N nodes.
	now := nw.sched.Now()
	start := now
	if nw.carrierSense && nw.busyUntil[p.Src] > now {
		start = nw.busyUntil[p.Src]
	}
	start += access
	end := start + model.TxTime(p.Bytes)
	if nw.carrierSense {
		if nw.busyUntil[p.Src] < end {
			nw.busyUntil[p.Src] = end
		}
		for _, i := range nw.field.ReachedBy(p.Src, p.Level) {
			if nw.busyUntil[i] < end {
				nw.busyUntil[i] = end
			}
		}
	}

	nw.count.CountSend(p.Kind)
	nw.emit(TraceTx, &p, p.Src, "")

	nw.sched.AtArg(end, nw.completeFn, nw.allocFlight(&p))
}

// onComplete finishes the transmission in arena slot arg: verifies the
// sender survived the airtime, charges energies, and delivers to the
// recipient set, which the receiver then handles in one batched event at
// +proc, queued on the scheduler's FIFO. The packet is read in place: nothing
// here can grow the arena.
func (nw *Network) onComplete(arg uint64) {
	p := &nw.flights[arg]
	if !nw.alive[p.Src] {
		// Sender failed mid-transmission: the frame never finished.
		nw.count.Drops++
		nw.emit(TraceDrop, p, p.Src, "sender failed mid-tx")
		nw.freeFlight(arg)
		return
	}
	model := nw.field.Model()
	nw.energy.AddTx(p.Src, model.TxEnergy(p.Bytes, p.Level))
	rx := model.RxEnergy(p.Bytes)

	start := len(nw.rxq)
	if p.Dst == packet.Broadcast {
		for _, dst := range nw.field.ReachedBy(p.Src, p.Level) {
			nw.deliver(p, dst, rx)
		}
	} else {
		nw.check(p.Dst)
		if !nw.field.InRange(p.Src, p.Dst, p.Level) {
			// Receiver moved out of range during the exchange.
			nw.count.Drops++
			nw.emit(TraceDrop, p, p.Dst, "out of range")
			nw.freeFlight(arg)
			return
		}
		nw.deliver(p, p.Dst, rx)
	}
	if len(nw.rxq) > start {
		nw.rxq = append(nw.rxq, packet.None)
		nw.sched.AtFIFO(nw.sched.Now()+nw.proc, nw.deliverFn, arg)
		return
	}
	nw.freeFlight(arg)
}

// deliver records the delivery of p to dst at the current (completion)
// time: liveness check, receive energy rx, trace. dst is queued on the
// receiver FIFO for the batch.
func (nw *Network) deliver(p *packet.Packet, dst packet.NodeID, rx radio.Energy) {
	if !nw.alive[dst] {
		nw.count.Drops++
		nw.emit(TraceDrop, p, dst, "receiver down")
		return
	}
	nw.energy.AddRx(dst, rx)
	nw.emit(TraceDeliver, p, dst, "")
	nw.rxq = append(nw.rxq, dst)
}

// onDeliverBatch hands flight arg's batch to the receiver: the run at the
// head of the receiver FIFO, with the receivers that failed between
// delivery and processing dropped. The run is compacted in place, so the
// receiver reads a prefix of it. Liveness changes only inside scheduled
// events — the fault injector's fail, repair and recover events, tests'
// AtArg closures — and in delivery traces (SetTrace), never inside a
// batch, so filtering the run before the call gives the same result as
// re-checking each receiver just before its handler. Handlers may Send,
// which can move the flight arena, so the packet is copied out once; they
// never complete a transmission, so the FIFO does not move under the
// batch.
func (nw *Network) onDeliverBatch(arg uint64) {
	if nw.recv == nil {
		panic("network: no receiver bound")
	}
	p := nw.flights[arg]
	start := nw.rxHead
	k := start
	for {
		dst := nw.rxq[nw.rxHead]
		nw.rxHead++
		if dst == packet.None {
			break
		}
		if nw.alive[dst] {
			nw.rxq[k] = dst
			k++
		}
	}
	if k > start {
		nw.recv.HandleBatch(p, nw.rxq[start:k:k])
	}
	nw.freeFlight(arg)
	// Reclaim the consumed prefix: reset when drained, else slide the
	// pending runs down once the prefix outgrows them, so the copy is
	// amortized over the entries consumed.
	if nw.rxHead == len(nw.rxq) {
		nw.rxq = nw.rxq[:0]
		nw.rxHead = 0
	} else if 2*nw.rxHead >= len(nw.rxq) {
		n := copy(nw.rxq, nw.rxq[nw.rxHead:])
		nw.rxq = nw.rxq[:n]
		nw.rxHead = 0
	}
}

func (nw *Network) check(id packet.NodeID) {
	if id < 0 || int(id) >= len(nw.alive) {
		panic(fmt.Sprintf("network: node id %d out of range [0,%d)", id, len(nw.alive)))
	}
}
