package experiment

// The §10 determinism suite: a scenario's Result — serialized to JSON — must
// be byte-identical at every SimWorkers value, because the parallel kernels
// (neighbor-cache warmup, DBF rounds, route derivation) only move work
// between goroutines, never change what is computed. GOMAXPROCS is raised so
// the worker pools genuinely fork even on single-core CI machines; the CI
// parallel-kernel job additionally runs this file under -race.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
)

var determinismWorkerCounts = []int{1, 2, 4, 7}

// resultJSON runs sc at the given worker count and returns the serialized
// Result, the byte string the campaign sinks would emit.
func resultJSON(t *testing.T, sc Scenario, workers int) []byte {
	t.Helper()
	res, err := RunWith(sc, RunConfig{SimWorkers: workers})
	if err != nil {
		t.Fatalf("RunWith(workers=%d): %v", workers, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func assertWorkerInvariant(t *testing.T, sc Scenario) {
	t.Helper()
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	base := resultJSON(t, sc, 1)
	for _, w := range determinismWorkerCounts[1:] {
		if got := resultJSON(t, sc, w); string(got) != string(base) {
			t.Fatalf("SimWorkers=%d diverged from serial:\nserial: %s\nworkers: %s", w, base, got)
		}
	}
}

// TestSimWorkersInvariantSPMSMobilityFailures exercises the heaviest
// parallel surface: SPMS recomputes routing (graph build + DBF + route
// derivation, all zone-parallel) after every mobility epoch, with failures
// perturbing liveness between recomputes.
func TestSimWorkersInvariantSPMSMobilityFailures(t *testing.T) {
	assertWorkerInvariant(t, Scenario{
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
	})
}

// TestSimWorkersInvariantSPINClusteredSources covers the 10⁵-node enabler
// configuration at test scale: SPIN, clustered placement and workload, and
// origination restricted to a source subset.
func TestSimWorkersInvariantSPINClusteredSources(t *testing.T) {
	assertWorkerInvariant(t, Scenario{
		Protocol:          SPIN,
		Workload:          Clustered,
		Nodes:             100,
		ZoneRadius:        20,
		Placement:         PlaceClustered,
		PlacementClusters: 4,
		PacketsPerNode:    2,
		Sources:           10,
		Seed:              11,
		Drain:             2 * time.Second,
	})
}

// TestSimWorkersInvariantWaypoint pins the waypoint mobility model too: its
// per-leg RNG draws happen on the event thread, so worker count must not
// reach them.
func TestSimWorkersInvariantWaypoint(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the relocation variant in short mode")
	}
	assertWorkerInvariant(t, Scenario{
		Protocol:         SPMS,
		Workload:         AllToAll,
		Nodes:            49,
		ZoneRadius:       20,
		PacketsPerNode:   1,
		Mobility:         true,
		MobilityModel:    MobWaypoint,
		MobilityPeriod:   100 * time.Millisecond,
		MobilityFraction: 0.1,
		WaypointSpeedMin: 1,
		WaypointSpeedMax: 3,
		Seed:             3,
		Drain:            2 * time.Second,
	})
}

// TestRunIndependentOfPriorRuns is the recycling contract (DESIGN.md
// §5.1): a run's Result and trace do not depend on what ran before it in
// the process, although each run takes the event and flight arrays the
// previous one released. A 25-node SPIN scenario runs three ways: on
// fresh arrays, after a 169-node SPMS run with failures (whose fault
// clocks are still pending at its horizon), and after itself.
func TestRunIndependentOfPriorRuns(t *testing.T) {
	sc := Scenario{
		Protocol:       SPIN,
		Workload:       AllToAll,
		Nodes:          25,
		ZoneRadius:     20,
		PacketsPerNode: 2,
		Failures:       true,
		FailureCfg:     fault.DefaultConfig(),
		Seed:           5,
		Drain:          time.Second,
	}
	holdSpares(t)
	freshTrace, freshRes := traceRun(t, sc, 1)
	fresh, err := json.Marshal(freshRes)
	if err != nil {
		t.Fatal(err)
	}
	for _, before := range []struct {
		name string
		sc   Scenario
	}{
		{"after a 169-node SPMS run", Scenario{
			Protocol: SPMS, Workload: AllToAll, Nodes: 169, ZoneRadius: 20, PacketsPerNode: 1,
			Failures: true, FailureCfg: fault.DefaultConfig(), Seed: 1,
		}},
		{"after itself", sc},
	} {
		if _, err := RunWith(before.sc, RunConfig{}); err != nil {
			t.Fatalf("%s: RunWith: %v", before.name, err)
		}
		trace, res := traceRun(t, sc, 1)
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(trace, freshTrace) || !bytes.Equal(got, fresh) {
			t.Fatalf("%s: trace equal %v, result %s; fresh result %s",
				before.name, bytes.Equal(trace, freshTrace), got, fresh)
		}
	}
}

// holdSpares takes the arrays a released run left in each recycler and
// keeps them until the test ends, so the next run allocates afresh. This
// package's tests run one scenario at a time, so each recycler holds at
// most one set.
func holdSpares(t *testing.T) {
	t.Helper()
	field, err := topo.NewChainField(2, 5, radio.MICA2())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	nw, err := network.New(sched, field, sim.NewRNG(1), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { runtime.KeepAlive(nw) })
}
