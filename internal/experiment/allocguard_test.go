package experiment

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestEventLoopAllocFree is the whole-run allocation guard (run in CI):
// SPMS with failures on the paper's 169-node field makes at most 0.01
// mallocs per dispatched event, setup included. Every event — network
// completions and delivery batches, τADV/τDAT, workload originations,
// fault clocks — schedules a pre-bound handler with an integer argument,
// delivery batches read from one receiver FIFO, and acquisitions come
// from a slab, so what remains is setup and amortized slice growth. A
// per-event allocation anywhere on the loop shows up here as ≥ 1 per
// event of its class.
func TestEventLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sc := Scenario{
		Protocol:       SPMS,
		Workload:       AllToAll,
		Nodes:          169,
		ZoneRadius:     20,
		PacketsPerNode: 2,
		Failures:       true,
		FailureCfg:     fault.DefaultConfig(),
		Seed:           1,
	}
	o := &obs.RunObserver{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunWith(sc, RunConfig{Obs: o}); err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	events := o.Stats().EventsDispatched
	if events == 0 {
		t.Fatal("no events dispatched")
	}
	per := float64(mallocs) / float64(events)
	t.Logf("%d mallocs over %d events: %.4f per event", mallocs, events, per)
	if per > 0.01 {
		t.Fatalf("run made %d mallocs over %d dispatched events (%.4f per event), want at most 0.01",
			mallocs, events, per)
	}
}
