package experiment

// The network trace pin: TestTraceDeterminism and CI's trace smoke only
// compare runs of the same binary with each other, so a change that drops,
// adds or reorders trace events on every run alike would pass both. This
// test pins the exported stream itself — its SHA-256 and its event count —
// for each protocol under failures, so any change to the event loop, the
// network's delivery path or a protocol's timers that alters what goes on
// the air fails here with the protocol named. Next to the stream it pins the
// kernel's own counts for the same runs — events dispatched, peak pending
// events and arena high-water — so a change to how the scheduler orders or
// stores events (heap or FIFO) that keeps the stream but not the pending
// set fails here too.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// tracePinScenario is a 49-node all-to-all grid with the paper's transient
// failures, one packet per node.
func tracePinScenario(p Protocol) Scenario {
	return Scenario{
		Protocol:       p,
		Workload:       AllToAll,
		Nodes:          49,
		ZoneRadius:     20,
		PacketsPerNode: 1,
		Failures:       true,
		FailureCfg:     fault.DefaultConfig(),
		Seed:           11,
		Drain:          time.Second,
	}
}

func TestTracePinned(t *testing.T) {
	spmsMobile := obsScenario() // SPMS with failures and mobility
	for _, tc := range []struct {
		name   string
		sc     Scenario
		events uint64
		sha256 string
		// The kernel's counts: events dispatched, peak pending events and
		// arena slots ever allocated.
		dispatched         uint64
		peakPending, arena int
	}{
		{"spms-failures-mobility", spmsMobile, 148678,
			"b21bec9c2bf034d2c3a2eaf9f90307f6c3efb35378135c0d0961e47675f145bd",
			68138, 3301, 3301},
		{"spin-failures", tracePinScenario(SPIN), 38678,
			"a1038f62c42d4e67c7f32768b3a1a28bcff400d28d8590f10c5baca841c2a0f0",
			11829, 1966, 1966},
		{"flooding-failures", tracePinScenario(Flooding), 49067,
			"6e3b5eddf26ab92315027c02e18de83a26468231ccc6c4a94c0365993765c866",
			5384, 1224, 1224},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			o := &obs.RunObserver{Trace: obs.NewTraceSink(&buf)}
			if _, err := RunWith(tc.sc, RunConfig{Obs: o}); err != nil {
				t.Fatalf("RunWith: %v", err)
			}
			if err := o.Trace.Flush(); err != nil {
				t.Fatalf("trace flush: %v", err)
			}
			if !bytes.Contains(buf.Bytes(), []byte(`"kind":"drop"`)) {
				t.Fatal("trace has no drop events: the scenario no longer exercises failures")
			}
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			if n := o.Trace.Events(); n != tc.events || got != tc.sha256 {
				t.Fatalf("trace: %d events, sha256 %s; pinned %d events, sha256 %s",
					n, got, tc.events, tc.sha256)
			}
			st := o.Stats()
			if st.EventsDispatched != tc.dispatched || st.PeakHeapDepth != tc.peakPending ||
				st.ArenaHighWater != tc.arena {
				t.Fatalf("kernel: %d events dispatched, peak pending %d, arena %d; pinned %d, %d, %d",
					st.EventsDispatched, st.PeakHeapDepth, st.ArenaHighWater,
					tc.dispatched, tc.peakPending, tc.arena)
			}
		})
	}
}
