package experiment

// The §11 observability suite: attaching a RunObserver — trace export,
// timeline sampling, phase timing — must never change what a run computes
// (the Result is byte-identical with observability on or off), and the
// exported trace must be byte-identical at every SimWorkers count and
// across repeated runs, because the network trace hook fires inside the
// single-threaded event loop in dispatch order.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// obsScenario exercises every trace kind: SPMS with failures (drops,
// failovers) and mobility (route recomputes) over a small all-to-all grid.
func obsScenario() Scenario {
	return Scenario{
		Protocol:         SPMS,
		Workload:         AllToAll,
		Nodes:            49,
		ZoneRadius:       20,
		PacketsPerNode:   2,
		Failures:         true,
		FailureCfg:       fault.DefaultConfig(),
		Mobility:         true,
		MobilityPeriod:   50 * time.Millisecond,
		MobilityFraction: 0.1,
		Seed:             7,
		Drain:            2 * time.Second,
	}
}

// traceRun executes the scenario with a trace sink attached and returns
// the JSONL bytes and the Result.
func traceRun(t *testing.T, sc Scenario, workers int) ([]byte, Result) {
	t.Helper()
	var buf bytes.Buffer
	o := &obs.RunObserver{Trace: obs.NewTraceSink(&buf)}
	res, err := RunWith(sc, RunConfig{SimWorkers: workers, Obs: o})
	if err != nil {
		t.Fatalf("RunWith(workers=%d): %v", workers, err)
	}
	if err := o.Trace.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return buf.Bytes(), res
}

// TestTraceDeterminism is the §11 contract: the exported trace is a pure
// function of the scenario — byte-identical across two runs and at
// SimWorkers 1, 4, and 7.
func TestTraceDeterminism(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	sc := obsScenario()

	base, _ := traceRun(t, sc, 1)
	if len(base) == 0 {
		t.Fatal("trace export produced no events")
	}
	if again, _ := traceRun(t, sc, 1); !bytes.Equal(base, again) {
		t.Fatal("trace diverged across two identical serial runs")
	}
	for _, w := range []int{4, 7} {
		if got, _ := traceRun(t, sc, w); !bytes.Equal(base, got) {
			t.Fatalf("trace at SimWorkers=%d diverged from serial (%d vs %d bytes)", w, len(got), len(base))
		}
	}
}

// TestTraceCoversAllKinds checks the adapter maps every network trace kind
// onto the wire: the failure scenario must produce tx, deliver, and drop
// lines.
func TestTraceCoversAllKinds(t *testing.T) {
	raw, _ := traceRun(t, obsScenario(), 1)
	for _, kind := range []string{`"kind":"tx"`, `"kind":"deliver"`, `"kind":"drop"`} {
		if !bytes.Contains(raw, []byte(kind)) {
			t.Fatalf("trace missing %s events", kind)
		}
	}
	// Every line is valid JSON with a monotonically non-decreasing timestamp
	// (dispatch order).
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	var prev int64 = -1
	for i, line := range lines {
		var ev struct {
			T    int64  `json:"t"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d not valid JSON: %v\n%s", i, err, line)
		}
		if ev.T < prev {
			t.Fatalf("trace line %d out of dispatch order: t=%d after t=%d", i, ev.T, prev)
		}
		prev = ev.T
	}
}

// TestObserverPreservesResult is the identity half of §11: a fully enabled
// observer (trace + timeline + phases) yields the same serialized Result
// as no observer at all.
func TestObserverPreservesResult(t *testing.T) {
	sc := obsScenario()
	plain, err := RunWith(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := obs.NewTimeline(25*time.Millisecond, 64)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o := &obs.RunObserver{Trace: obs.NewTraceSink(&buf), Timeline: tl}
	observed, err := RunWith(sc, RunConfig{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(observed)
	if !bytes.Equal(a, b) {
		t.Fatalf("observer perturbed the Result:\nplain:    %s\nobserved: %s", a, b)
	}

	// An installed-but-empty observer (no sinks) must also preserve identity —
	// the phase-timing-only configuration the harness always allows.
	bare, err := RunWith(sc, RunConfig{Obs: &obs.RunObserver{}})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(bare)
	if !bytes.Equal(a, c) {
		t.Fatalf("bare observer perturbed the Result:\nplain: %s\nbare:  %s", a, c)
	}
}

// TestRunStatsPopulated checks the phase/kernel profile of a real run is
// coherent: events dispatched, a non-trivial peak heap, and non-zero phase
// spans that sum to no more than the wall clock.
func TestRunStatsPopulated(t *testing.T) {
	o := &obs.RunObserver{}
	if _, err := RunWith(obsScenario(), RunConfig{Obs: o}); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.EventsDispatched == 0 {
		t.Fatal("EventsDispatched = 0")
	}
	if st.PeakHeapDepth <= 0 || st.ArenaHighWater < st.PeakHeapDepth {
		t.Fatalf("kernel stats incoherent: peak heap %d, arena %d", st.PeakHeapDepth, st.ArenaHighWater)
	}
	if st.TopologyBuild <= 0 || st.RouteCompute <= 0 || st.EventLoop <= 0 {
		t.Fatalf("phase spans missing: %+v", st)
	}
	if st.Wall < st.EventLoop {
		t.Fatalf("wall %v < event loop %v", st.Wall, st.EventLoop)
	}
}

// TestRunPhasesPartitionWall checks the phases tile the run: topology,
// model construction, the initial routes and the event loop are disjoint
// spans, and the mobility recomputes are a sub-span of both the route
// time and the event loop. Only the span structure is asserted, never a
// wall-clock ratio.
func TestRunPhasesPartitionWall(t *testing.T) {
	spin := obsScenario()
	spin.Protocol = SPIN
	for _, tc := range []struct {
		name     string
		sc       Scenario
		mobility bool
	}{
		{"spin", spin, false},
		{"spms-mobility", obsScenario(), true},
	} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				o := &obs.RunObserver{}
				if _, err := RunWith(tc.sc, RunConfig{SimWorkers: workers, Obs: o}); err != nil {
					t.Fatal(err)
				}
				st := o.Stats()
				if st.ModelBuild <= 0 {
					t.Fatalf("ModelBuild = %v, want > 0: %+v", st.ModelBuild, st)
				}
				if sum := st.TopologyBuild + st.ModelBuild + st.RouteCompute - st.MobilityRoutes + st.EventLoop; sum > st.Wall {
					t.Fatalf("phases sum to %v, more than wall %v: %+v", sum, st.Wall, st)
				}
				if !tc.mobility {
					if st.MobilityRoutes != 0 {
						t.Fatalf("MobilityRoutes = %v on a run without route recomputes", st.MobilityRoutes)
					}
					return
				}
				if st.MobilityRoutes <= 0 || st.MobilityRoutes > min(st.RouteCompute, st.EventLoop) {
					t.Fatalf("MobilityRoutes = %v, want in (0, min(routes %v, loop %v)]",
						st.MobilityRoutes, st.RouteCompute, st.EventLoop)
				}
			})
		}
	}
}

// TestTimelineDuringRun checks the sampling ticker against the run it
// watched: samples are bounded, strictly ordered in sim time, stay within
// the horizon, and the cumulative counters are non-decreasing with the
// final sample consistent with the Result.
func TestTimelineDuringRun(t *testing.T) {
	const maxSamples = 32
	tl, err := obs.NewTimeline(20*time.Millisecond, maxSamples)
	if err != nil {
		t.Fatal(err)
	}
	o := &obs.RunObserver{Timeline: tl}
	res, err := RunWith(obsScenario(), RunConfig{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	samples := tl.Samples()
	if len(samples) == 0 {
		t.Fatal("timeline collected no samples")
	}
	if len(samples) > maxSamples {
		t.Fatalf("timeline over bound: %d > %d", len(samples), maxSamples)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].T <= samples[i-1].T {
			t.Fatalf("sample %d: sim time not increasing (%v after %v)", i, samples[i].T, samples[i-1].T)
		}
		if samples[i].Sent < samples[i-1].Sent || samples[i].TotalEnergy < samples[i-1].TotalEnergy {
			t.Fatalf("sample %d: cumulative counters decreased", i)
		}
	}
	last := samples[len(samples)-1]
	if last.Sent == 0 {
		t.Fatal("final sample saw no traffic")
	}
	if last.TotalEnergy > res.TotalEnergy {
		t.Fatalf("final sample energy %v exceeds run total %v", last.TotalEnergy, res.TotalEnergy)
	}
	if st := o.Stats(); st.TimelineSamples != len(samples) {
		t.Fatalf("Stats().TimelineSamples = %d, want %d", st.TimelineSamples, len(samples))
	}
}
