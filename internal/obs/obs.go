// Package obs is the run-wide observability layer: phase timing and
// kernel statistics for a single simulation run (RunStats, RunObserver),
// bounded time-series sampling of live metrics (Timeline), streaming
// structured trace export (TraceSink), and live campaign telemetry
// (CampaignProgress, StartDebugServer).
//
// Two contracts govern everything here:
//
//   - Zero-value disabled. Every hook is nil-checked: a nil *RunObserver,
//     *TraceSink, *Timeline, or *CampaignProgress no-ops on every method,
//     allocation-free, so instrumented call sites need no conditionals and
//     the hot paths stay exactly as fast as before the layer existed
//     (guarded by TestZeroValueObservabilityAllocFree and the CI
//     allocation-guard steps).
//
//   - Identity preserved. Observability never changes what a run computes:
//     RunStats lives outside experiment.Result, the timeline ticker only
//     reads collectors, and trace export mirrors events the single-threaded
//     event loop already emits in dispatch order — so golden output is
//     untouched and trace bytes are identical at any -sim-workers count
//     (see DESIGN.md §11).
package obs

import "time"

// Phase names one wall-clock span of a simulation run.
type Phase int

// Run phases. Topology covers field construction (neighbor caches build
// lazily on first query, or inside Routes when a route computation warms
// them); Model covers the network, workload and protocol construction and
// the arming of faults, mobility and traffic that follows, less any route
// computation nested in that stretch; Routes covers DBF route
// computation; Events is the event-loop dispatch itself. MobilityRoutes
// marks the route recomputes that mobility runs inside the event loop:
// they count under both Routes and MobilityRoutes, so Topology + Model +
// (Routes − MobilityRoutes) + Events partitions the run within Wall.
const (
	PhaseTopology Phase = iota
	PhaseModel
	PhaseRoutes
	PhaseMobilityRoutes
	PhaseEvents
	numPhases
)

// RunStats is the execution profile of one run: where the wall-clock time
// went plus event-kernel internals. It is deliberately not part of
// experiment.Result — it describes how fast the run computed, never what
// it computed — so result identity (golden corpus, campaign sinks) is
// untouched by collecting it.
type RunStats struct {
	TopologyBuild  time.Duration `json:"topologyBuildNs"`           // field construction
	ModelBuild     time.Duration `json:"modelBuildNs,omitempty"`    // network, workload, protocol construction
	RouteCompute   time.Duration `json:"routeComputeNs"`            // DBF computes, initial + mobility re-runs
	MobilityRoutes time.Duration `json:"mobilityRouteNs,omitempty"` // the mobility re-runs alone, inside EventLoop
	EventLoop      time.Duration `json:"eventLoopNs"`               // scheduler dispatch
	Wall           time.Duration `json:"wallNs"`                    // whole run, BeginRun to EndRun

	EventsDispatched uint64 `json:"eventsDispatched"` // events fired by the kernel
	PeakHeapDepth    int    `json:"peakHeapDepth"`    // max simultaneously pending events
	ArenaHighWater   int    `json:"arenaHighWater"`   // event arena slots ever allocated

	TimelineSamples int    `json:"timelineSamples,omitempty"` // samples held after decimation
	TraceEvents     uint64 `json:"traceEvents,omitempty"`     // trace lines written
}

// RunObserver collects observability for one simulation run. The zero
// value observes nothing; attaching a Timeline or TraceSink opts into
// those streams independently. A nil *RunObserver is fully inert, so the
// experiment harness threads it unconditionally.
//
// A RunObserver is single-run, single-goroutine state: it is driven by
// the run that owns it (the event loop is single-threaded by design) and
// must not be shared across concurrent runs.
type RunObserver struct {
	// Timeline, when non-nil, receives periodic metric snapshots on a
	// sim-time ticker (the experiment harness schedules the ticks).
	Timeline *Timeline
	// Trace, when non-nil, receives every network trace event as one
	// JSONL line.
	Trace *TraceSink

	stats RunStats
	start time.Time
}

// Span is an in-progress phase measurement; End accumulates the elapsed
// wall clock into the observer. The zero Span (from a nil observer) is
// inert.
type Span struct {
	o  *RunObserver
	p  Phase
	t0 time.Time
}

// BeginRun marks the start of the whole-run wall clock.
func (o *RunObserver) BeginRun() {
	if o == nil {
		return
	}
	o.start = time.Now()
}

// EndRun closes the whole-run wall clock.
func (o *RunObserver) EndRun() {
	if o == nil {
		return
	}
	o.stats.Wall = time.Since(o.start)
}

// StartPhase opens a wall-clock span for p. Spans for the same phase
// accumulate: a phase may be paused around a nested one, and
// mobility-driven route recomputes add onto the initial convergence.
func (o *RunObserver) StartPhase(p Phase) Span {
	if o == nil {
		return Span{}
	}
	return Span{o: o, p: p, t0: time.Now()}
}

// End accumulates the span into its observer's stats.
func (s Span) End() {
	if s.o == nil {
		return
	}
	d := time.Since(s.t0)
	switch s.p {
	case PhaseTopology:
		s.o.stats.TopologyBuild += d
	case PhaseModel:
		s.o.stats.ModelBuild += d
	case PhaseRoutes:
		s.o.stats.RouteCompute += d
	case PhaseMobilityRoutes:
		s.o.stats.RouteCompute += d
		s.o.stats.MobilityRoutes += d
	case PhaseEvents:
		s.o.stats.EventLoop += d
	}
}

// RecordKernel stores the event-kernel internals read from the scheduler
// after the run.
func (o *RunObserver) RecordKernel(dispatched uint64, peakHeap, arena int) {
	if o == nil {
		return
	}
	o.stats.EventsDispatched = dispatched
	o.stats.PeakHeapDepth = peakHeap
	o.stats.ArenaHighWater = arena
}

// Stats returns the collected profile, folding in the attached sinks'
// own counters.
func (o *RunObserver) Stats() RunStats {
	if o == nil {
		return RunStats{}
	}
	st := o.stats
	if o.Timeline != nil {
		st.TimelineSamples = len(o.Timeline.Samples())
	}
	if o.Trace != nil {
		st.TraceEvents = o.Trace.Events()
	}
	return st
}
