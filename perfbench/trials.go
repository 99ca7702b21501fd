package main

import (
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// trialRunner is the campaign's per-trial executor (RunOptions.Run, or
// service.Config.Run inside the daemon). Every trial runs serially
// (SimWorkers 1) with an obs.RunObserver that carries no timeline and no
// trace: a handful of clock reads per trial, which yield setup_s. When
// traced it also records the trial's span and its phases as children.
type trialRunner struct {
	tr     *tracer
	parent int // span the trials nest under; -1 for none
	// initialRoute is the routing probe's time for one initial DBF on the
	// scenario's field. A trial with mobility computes routes once before
	// its event loop and then once per mobility event inside it; the
	// observer sums both, so the probe splits the two (DESIGN.md §11).
	initialRoute time.Duration
	noClock      bool // run without the observer
	// clock, when set, samples the host's speed before every trial but
	// the first, which the run loop samples before; calib is the time
	// those samples took.
	clock *hostClock
	calib time.Duration

	mu   sync.Mutex
	recs []trialRec
}

// trialRec is one finished trial.
type trialRec struct {
	res   experiment.Result
	stats obs.RunStats
	wall  time.Duration // the whole experiment.RunWith call
	marks [2]int        // host clock marks around it
}

func (t *trialRunner) run(sc experiment.Scenario) (experiment.Result, error) {
	t.mu.Lock()
	seq := len(t.recs)
	if seq > 0 {
		t.calib += t.clock.sample()
	}
	mark := t.clock.mark()
	t.recs = append(t.recs, trialRec{})
	t.mu.Unlock()
	trace := pointTrace(seq)

	var o *obs.RunObserver
	if !t.noClock {
		o = &obs.RunObserver{}
	}
	run := experiment.Recovered(func(sc experiment.Scenario) (experiment.Result, error) {
		return experiment.RunWith(sc, experiment.RunConfig{SimWorkers: 1, Obs: o})
	})
	id := t.tr.begin("experiment.trial", trace, t.parent)
	start := time.Now()
	res, err := run(sc)
	wall := time.Since(start)
	t.tr.end(id)

	st := o.Stats()
	if t.tr != nil && err == nil {
		t.phaseSpans(t.tr.get(id), st, res)
	}
	t.mu.Lock()
	t.recs[seq] = trialRec{res: res, stats: st, wall: wall, marks: [2]int{mark, mark}}
	t.mu.Unlock()
	return res, err
}

// mobilityRoutes is the part of a trial's route-compute time spent in
// mobility recomputes, which run inside the event loop: the observer's
// route time less the probe's initial DBF. It is kept at least the
// overlap the observer's own phases imply (their sum less the run's
// wall), so the phases laid out without it always fit in the run.
func (t *trialRunner) mobilityRoutes(st obs.RunStats, res experiment.Result) time.Duration {
	if res.MobilityEvents == 0 || res.DBFRounds == 0 {
		return 0
	}
	overlap := max(0, st.TopologyBuild+st.RouteCompute+st.EventLoop-st.Wall)
	return max(overlap, min(st.RouteCompute-t.initialRoute, st.RouteCompute, st.EventLoop))
}

// phaseSpans adds the observer's phases as children of the trial span.
// The observer reports durations, not timestamps, so the spans are laid
// out in the order RunWith runs them: topology first, the initial routes
// next, the event loop last, with the mobility recomputes inside it.
func (t *trialRunner) phaseSpans(trial span, st obs.RunStats, res experiment.Result) {
	start := time.Duration(trial.Start)
	mob := t.mobilityRoutes(st, res)
	t.tr.add("topo.build", trial.Trace, trial.ID, start, start+st.TopologyBuild)
	routeStart := start + st.TopologyBuild
	t.tr.add("routing.compute", trial.Trace, trial.ID, routeStart, routeStart+st.RouteCompute-mob)
	loopEnd := start + st.Wall
	loop := t.tr.add("sim.loop", trial.Trace, trial.ID, loopEnd-st.EventLoop, loopEnd)
	if mob > 0 {
		t.tr.add("routing.mobility", trial.Trace, loop, loopEnd-st.EventLoop, loopEnd-st.EventLoop+mob)
	}
}

// records returns the finished trials in start order.
func (t *trialRunner) records() []trialRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]trialRec(nil), t.recs...)
}

// setupTime sums, over the trials, the time each spent outside its event
// loop: field, neighbour caches, initial DBF, network, protocol and
// workload construction.
func setupTime(recs []trialRec) time.Duration {
	var d time.Duration
	for _, r := range recs {
		d += r.stats.Wall - r.stats.EventLoop
	}
	return d
}
