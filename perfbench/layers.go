package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
)

// perLayer lists the traced run's metrics in print order. README.md maps
// each to the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"topo.build_s", "s"},
	{"topo.warm_s", "s"},
	{"topo.neighbor_entries", "count"},
	{"experiment.trials", "count"},
	{"experiment.trial_s", "s"},
	{"experiment.unattributed_s", "s"},
	{"routing.compute_s", "s"},
	{"routing.computes", "count"},
	{"routing.graph_s", "s"},
	{"routing.dbf_s", "s"},
	{"routing.dbf_rounds", "count"},
	{"routing.dbf_broadcasts", "count"},
	{"sim.loop_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns/event"},
	{"sim.peak_heap", "count"},
	{"sim.arena_slots", "count"},
	{"metrics.sent", "count"},
	{"metrics.drops", "count"},
	{"metrics.duplicates", "count"},
	{"metrics.timeouts", "count"},
	{"metrics.failovers", "count"},
	{"dissem.deliveries", "count"},
	{"dissem.useful_ratio", "ratio"},
	{"fault.injected", "count"},
	{"runtime.allocs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs_per_event", "allocs/event"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.heap_end_mb", "MB"},
	{"campaign.expand_s", "s"},
	{"campaign.sink_s", "s"},
	{"campaign.sink_bytes", "bytes"},
	{"campaign.self_s", "s"},
	{"checkpoint.hash_s", "s"},
	{"checkpoint.cache_get_s", "s"},
	{"checkpoint.cache_put_s", "s"},
	{"checkpoint.journal_append_s", "s"},
	{"checkpoint.manifest_s", "s"},
	{"checkpoint.records", "count"},
	{"checkpoint.cache_hits", "count"},
	{"checkpoint.cache_misses", "count"},
	{"checkpoint.fsyncs", "count.computed"},
	{"service.submit_s", "s"},
	{"service.first_record_s", "s"},
	{"service.stream_s", "s"},
	{"service.unattributed_s", "s"},
	{"service.jobs", "count"},
	{"service.records", "count"},
	{"service.stream_bytes", "bytes"},
	{"service.http_errors", "count"},
	{"obs.overhead_s", "s"},
	{"obs.phase_clock_s", "s"},
}

// layers holds the traced run's per-layer values; a metric a workload
// does not exercise stays 0.
type layers struct{ values map[string]float64 }

func (l *layers) set(name string, v float64) {
	if l.values == nil {
		l.values = make(map[string]float64)
	}
	l.values[name] = v
}

// fromSpans fills the metrics that are self times of the traced spans.
func (l *layers) fromSpans(tr *tracer) {
	self, dur := tr.selfByName(), tr.durByName()
	s := func(d time.Duration) float64 { return d.Seconds() }
	l.set("topo.build_s", s(self["topo.build"]))
	l.set("topo.warm_s", s(dur["probe.topo.warm"]))
	l.set("experiment.trial_s", s(dur["experiment.trial"]))
	l.set("experiment.unattributed_s", s(self["experiment.trial"]))
	l.set("routing.compute_s", s(self["routing.compute"]+self["routing.mobility"]))
	l.set("routing.graph_s", s(dur["probe.routing.graph"]))
	l.set("routing.dbf_s", s(dur["probe.routing.dbf"]))
	l.set("sim.loop_s", s(self["sim.loop"]))
	l.set("campaign.expand_s", s(self["campaign.expand"]))
	l.set("campaign.sink_s", s(self["campaign.sink"]))
	l.set("campaign.self_s", s(self["campaign.run"]))
	for _, p := range []string{"hash", "cache_get", "cache_put", "journal_append", "manifest"} {
		l.set("checkpoint."+p+"_s", s(dur["probe.checkpoint."+p]))
	}
	l.set("service.submit_s", s(self["service.submit"]))
	l.set("service.first_record_s", s(self["service.first_record"]))
	l.set("service.stream_s", s(self["service.stream"]))
	l.set("service.unattributed_s", s(self["service.job"]))
}

// fromRep fills what every workload reports from its traced repetition:
// the span self times, the trials' counts, the campaign's sink bytes,
// and the checkpoint probes over the repetition's finished points, run
// in dir. It returns the events the trials dispatched.
func (l *layers) fromRep(tr *tracer, dir string, r rep) (uint64, error) {
	if r.results == nil {
		return 0, fmt.Errorf("traced repetition failed: %v", r.problems)
	}
	scenarios := make([]experiment.Scenario, len(r.points))
	for i, p := range r.points {
		scenarios[i] = p.Scenario
	}
	if err := probeCheckpoint(tr, dir, scenarios, r.results); err != nil {
		return 0, err
	}
	l.fromSpans(tr)
	l.set("campaign.sink_bytes", float64(r.sinkBytes))
	l.set("checkpoint.records", float64(len(scenarios)))
	return l.fromTrials(r.trials), nil
}

// fromTrials fills the counts the trials' results and observers report.
func (l *layers) fromTrials(recs []trialRec) (events uint64) {
	var computes, rounds, broadcasts, peak, arena, injected int
	var sent, drops, dups, timeouts, failovers uint64
	deliveries := 0
	for _, t := range recs {
		r, st := t.res, t.stats
		if r.DBFRounds > 0 {
			computes += 1 + r.MobilityEvents
		}
		rounds += r.DBFRounds
		broadcasts += r.DBFBroadcasts
		events += st.EventsDispatched
		peak = max(peak, st.PeakHeapDepth)
		arena = max(arena, st.ArenaHighWater)
		sent += r.SentADV + r.SentREQ + r.SentDATA
		drops += r.Drops
		dups += r.Duplicates
		timeouts += r.Timeouts
		failovers += r.Failovers
		deliveries += r.Deliveries
		injected += r.FailuresInjected
	}
	l.set("experiment.trials", float64(len(recs)))
	l.set("routing.computes", float64(computes))
	l.set("routing.dbf_rounds", float64(rounds))
	l.set("routing.dbf_broadcasts", float64(broadcasts))
	l.set("sim.events", float64(events))
	if events > 0 {
		l.set("sim.ns_per_event", l.values["sim.loop_s"]*1e9/float64(events))
	}
	l.set("sim.peak_heap", float64(peak))
	l.set("sim.arena_slots", float64(arena))
	l.set("metrics.sent", float64(sent))
	l.set("metrics.drops", float64(drops))
	l.set("metrics.duplicates", float64(dups))
	l.set("metrics.timeouts", float64(timeouts))
	l.set("metrics.failovers", float64(failovers))
	l.set("dissem.deliveries", float64(deliveries))
	if deliveries > 0 {
		l.set("dissem.useful_ratio", float64(deliveries)/(float64(deliveries)+float64(dups)))
	}
	l.set("fault.injected", float64(injected))
	return events
}

// fromRuntime fills the Go runtime's counters over the measured section;
// events is what the section dispatched.
func (l *layers) fromRuntime(m memSnapshot, heapEnd uint64, events uint64) {
	l.set("runtime.allocs", float64(m.allocs))
	l.set("runtime.alloc_mb", float64(m.allocBytes)/(1<<20))
	if events > 0 {
		l.set("runtime.allocs_per_event", float64(m.allocs)/float64(events))
	}
	l.set("runtime.gc_cycles", float64(m.gcCycles))
	l.set("runtime.gc_pause_s", float64(m.gcPauseNs)/1e9)
	l.set("runtime.heap_end_mb", float64(heapEnd)/(1<<20))
}

// probeAll runs the probes that precede the traced repetition, on the
// workload's first point: the warm probe, and the routing probe when the
// workload has an SPMS point. It returns the initial DBF time the traced
// trials split mobility recomputes with.
func (l *layers) probeAll(tr *tracer, points []campaign.Point) (time.Duration, error) {
	entries, err := probeTopo(tr, points[0].Scenario)
	if err != nil {
		return 0, err
	}
	l.set("topo.neighbor_entries", float64(entries))
	for _, p := range points {
		if p.Scenario.Protocol == experiment.SPMS {
			return probeRouting(tr, p.Scenario)
		}
	}
	return 0, nil
}

// memSnapshot is the slice of runtime.MemStats the traced run reports.
type memSnapshot struct {
	allocs, allocBytes, gcPauseNs uint64
	gcCycles                      uint32
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{allocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs, gcCycles: ms.NumGC}
}

func (m memSnapshot) sub(o memSnapshot) memSnapshot {
	return memSnapshot{allocs: m.allocs - o.allocs, allocBytes: m.allocBytes - o.allocBytes,
		gcPauseNs: m.gcPauseNs - o.gcPauseNs, gcCycles: m.gcCycles - o.gcCycles}
}

// heapAfterGC is the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// noise records, over a run, the process's CPU time, the host's CPU steal
// and the process's peak resident set.
type noise struct {
	start        time.Time
	cpu0, steal0 float64
}

type noiseRecord struct {
	cpuS, stealJiffies, elapsedS, peakRSSMB float64
}

func startNoise() *noise {
	return &noise{start: time.Now(), cpu0: cpuSeconds(), steal0: stealJiffies()}
}

func (n *noise) stop() noiseRecord {
	return noiseRecord{
		cpuS:         cpuSeconds() - n.cpu0,
		stealJiffies: stealJiffies() - n.steal0,
		elapsedS:     time.Since(n.start).Seconds(),
		peakRSSMB:    float64(rusage().Maxrss) / 1024, // Linux reports KiB
	}
}

// rusage is the process's resource usage. getrusage fails only for an
// invalid "who" or buffer, neither possible here.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealJiffies is the host's total CPU steal from /proc/stat, or -1 where
// the file cannot be read.
func stealJiffies() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) > 8 && f[0] == "cpu" {
			if v, err := strconv.ParseFloat(f[8], 64); err == nil {
				return v
			}
		}
	}
	return -1
}
