// bench_test.go holds the ablations of the design choices DESIGN.md calls
// out: each benchmark runs SPMS (or SPIN beside it) with one choice
// switched and reports the model's outcome (µJ/packet, ms of delay,
// delivery rate) as custom metrics. They stay here until they become
// committed campaign specs. Timing is perfbench's job (`bash
// perfbench/run.sh`, BENCHMARK.json); TestGoldenFiguresQuick pins the
// figures' output, and the topology, scheduler and routing
// micro-benchmarks sit in their packages.
package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
)

// runScenarios executes scenarios one after another and returns their
// results in order.
func runScenarios(b *testing.B, points ...experiment.Scenario) []experiment.Result {
	b.Helper()
	res := make([]experiment.Result, len(points))
	for i, sc := range points {
		r, err := experiment.RunWith(sc, experiment.RunConfig{})
		if err != nil {
			b.Fatal(err)
		}
		res[i] = r
	}
	return res
}

// ablationScenario is the shared configuration for the design-choice
// ablations: mid-size field, failure injection on, so recovery paths run.
func ablationScenario() experiment.Scenario {
	return experiment.Scenario{
		Protocol:       experiment.SPMS,
		Workload:       experiment.AllToAll,
		Nodes:          49,
		ZoneRadius:     20,
		PacketsPerNode: 2,
		Failures:       true,
		Seed:           1,
		Drain:          2 * time.Second,
	}
}

// BenchmarkAblationRelayADV compares SPMS with and without relay
// re-advertisement (DESIGN.md §5.3): disabling it removes PRONE promotion
// and slows zone crossing.
func BenchmarkAblationRelayADV(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run("relayADV="+name, func(b *testing.B) {
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				sc := ablationScenario()
				cfg := core.DefaultConfig()
				cfg.DisableRelayADV = disabled
				sc.SPMSConfig = cfg
				res = runScenarios(b, sc)[0]
			}
			b.ReportMetric(res.EnergyPerPacket, "uJ_per_pkt")
			b.ReportMetric(float64(res.MeanDelay)/1e6, "ms_delay")
			b.ReportMetric(res.DeliveryRate, "delivery_rate")
		})
	}
}

// BenchmarkAblationRouteAlternatives sweeps the routing-table depth k
// (DESIGN.md §5.2: the paper keeps the shortest and second-shortest path).
// SPMS forwards only along the primary entry, so all three rows report the
// same numbers: the secondary routes are a known fidelity gap, not a knee.
func BenchmarkAblationRouteAlternatives(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run("k="+string(rune('0'+k)), func(b *testing.B) {
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				sc := ablationScenario()
				sc.RouteAlternatives = k
				res = runScenarios(b, sc)[0]
			}
			b.ReportMetric(res.EnergyPerPacket, "uJ_per_pkt")
			b.ReportMetric(res.DeliveryRate, "delivery_rate")
		})
	}
}

// BenchmarkAblationServeFromCache evaluates the paper's future-work idea:
// relays answering REQs from their cache instead of forwarding upstream.
func BenchmarkAblationServeFromCache(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run("cache="+name, func(b *testing.B) {
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				sc := ablationScenario()
				cfg := core.DefaultConfig()
				cfg.ServeFromCache = on
				sc.SPMSConfig = cfg
				res = runScenarios(b, sc)[0]
			}
			b.ReportMetric(res.EnergyPerPacket, "uJ_per_pkt")
			b.ReportMetric(float64(res.MeanDelay)/1e6, "ms_delay")
		})
	}
}

// BenchmarkAblationCarrierSense turns on shared-channel serialization
// (DESIGN.md: the simulation default models contention as per-transmission
// delay; carrier sense shows what saturation does to SPIN-style max-power
// traffic). Uses a deliberately small workload — a serializing channel
// saturates under the paper's full traffic.
func BenchmarkAblationCarrierSense(b *testing.B) {
	for _, cs := range []bool{false, true} {
		name := "off"
		if cs {
			name = "on"
		}
		b.Run("carrier="+name, func(b *testing.B) {
			var spmsDelay, spinDelay float64
			for i := 0; i < b.N; i++ {
				spmsSC := experiment.Scenario{
					Protocol:       experiment.SPMS,
					Workload:       experiment.AllToAll,
					Nodes:          25,
					ZoneRadius:     20,
					PacketsPerNode: 1,
					CarrierSense:   cs,
					Seed:           1,
					Drain:          20 * time.Second,
				}
				spinSC := spmsSC
				spinSC.Protocol = experiment.SPIN
				res := runScenarios(b, spmsSC, spinSC)
				spmsDelay = float64(res[0].MeanDelay) / 1e6
				spinDelay = float64(res[1].MeanDelay) / 1e6
			}
			b.ReportMetric(spmsDelay, "spms_ms")
			b.ReportMetric(spinDelay, "spin_ms")
		})
	}
}
