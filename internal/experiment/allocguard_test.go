package experiment

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// allocGuardScenario is SPMS with the paper's transient failures on the
// 169-node grid, two packets per node.
func allocGuardScenario() Scenario {
	return Scenario{
		Protocol:       SPMS,
		Workload:       AllToAll,
		Nodes:          169,
		ZoneRadius:     20,
		PacketsPerNode: 2,
		Failures:       true,
		FailureCfg:     fault.DefaultConfig(),
		Seed:           1,
	}
}

// measuredRun runs sc and returns its kernel stats with the mallocs and
// bytes the run allocated.
func measuredRun(t *testing.T, sc Scenario) (st obs.RunStats, mallocs, bytes uint64) {
	t.Helper()
	o := &obs.RunObserver{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunWith(sc, RunConfig{Obs: o}); err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	runtime.ReadMemStats(&after)
	return o.Stats(), after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestEventLoopAllocFree is the whole-run allocation guard (run in CI):
// SPMS with failures on the paper's 169-node field makes at most 0.01
// mallocs per dispatched event, setup included. Every event — network
// completions and delivery batches, τADV/τDAT, workload originations,
// fault clocks — schedules a pre-bound handler with an integer argument,
// delivery batches read from one receiver FIFO, and acquisitions come
// from a slab, so what remains is setup and the arenas' growth, which a
// run pays only when no earlier run in the process left it their arrays
// (TestWarmRunReusesArenas). A per-event allocation anywhere on the loop
// shows up here as ≥ 1 per event of its class.
func TestEventLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, mallocs, _ := measuredRun(t, allocGuardScenario())
	events := st.EventsDispatched
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

// TestWarmRunReusesArenas is the warm-run allocation guard (run in CI):
// TestEventLoopAllocFree's scenario runs twice in one process, and the
// second run, on the event and flight arrays the first one released
// (sim.Scheduler.Release, network.Network.Release) and with its per-item
// protocol state sized once from the workload (dissem.Ledger.Reserve),
// allocates at most 10 bytes per dispatched event, setup included; growing
// the arenas from empty costs ~30. Both runs dispatch the same events with
// the same pending peak and arena high-water (849 777, 28 234, 28 234).
func TestWarmRunReusesArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sc := allocGuardScenario()
	first, _, firstBytes := measuredRun(t, sc)
	warm, _, warmBytes := measuredRun(t, sc)
	if warm.EventsDispatched != first.EventsDispatched || warm.PeakHeapDepth != first.PeakHeapDepth ||
		warm.ArenaHighWater != first.ArenaHighWater {
		t.Fatalf("kernel counts (events, peak pending, arena): first run %d, %d, %d; second run %d, %d, %d",
			first.EventsDispatched, first.PeakHeapDepth, first.ArenaHighWater,
			warm.EventsDispatched, warm.PeakHeapDepth, warm.ArenaHighWater)
	}
	per := float64(warmBytes) / float64(warm.EventsDispatched)
	t.Logf("first run %.2f MB, second run %.2f MB over %d events (peak pending %d, arena %d): %.1f B per event",
		float64(firstBytes)/(1<<20), float64(warmBytes)/(1<<20), warm.EventsDispatched,
		warm.PeakHeapDepth, warm.ArenaHighWater, per)
	if per > 10 {
		t.Fatalf("second run allocated %d bytes over %d dispatched events (%.1f per event), want at most 10",
			warmBytes, warm.EventsDispatched, per)
	}
}
