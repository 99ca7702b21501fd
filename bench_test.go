// bench_test.go regenerates every table and figure of the paper under
// `go test -bench=.`. One benchmark per table/figure, plus ablation benches
// for the design choices DESIGN.md calls out and micro-benchmarks for the
// hot substrates.
//
// Figure benches run internal/figures at the Quick quality (2
// packets/node), through the same campaign.Run path as cmd/figures, so a
// full -bench=. pass completes in minutes; `go run ./cmd/figures`
// regenerates the paper-scale versions. Each bench reports the figure's
// headline numbers as custom metrics (µJ/packet, ms of delay) so the
// benchmark log doubles as a results table.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

// reportLastRow attaches the final sweep point's series values as custom
// benchmark metrics.
func reportLastRow(b *testing.B, t figures.Table, unit string) {
	b.Helper()
	if len(t.Rows) == 0 {
		b.Fatal("empty table")
	}
	last := t.Rows[len(t.Rows)-1]
	for i, col := range t.Columns {
		b.ReportMetric(last.Cells[i], col+"_"+unit)
	}
}

// BenchmarkFig3AnalyticDelayRatio regenerates Figure 3 (analytic SPIN/SPMS
// delay ratio vs radius) and checks the paper's printed 2.7865 spot value.
func BenchmarkFig3AnalyticDelayRatio(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t := figures.Figure3()
		if len(t.Rows) == 0 {
			b.Fatal("empty figure")
		}
		ratio = analysis.PaperParams().DelayRatio(45, 5)
	}
	if ratio < 2.786 || ratio > 2.787 {
		b.Fatalf("spot value %v, want 2.7865", ratio)
	}
	b.ReportMetric(ratio, "spot_ratio")
}

// BenchmarkFig5AnalyticEnergyRatio regenerates Figure 5 (analytic energy
// ratio on the k-relay chain).
func BenchmarkFig5AnalyticEnergyRatio(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		t := figures.Figure5()
		last = t.Rows[len(t.Rows)-1].Cells[0]
	}
	b.ReportMetric(last, "ratio_at_k30")
}

// benchFigure regenerates one figure per iteration through campaign.Run
// (a worker per core, no cache, so every iteration simulates).
func benchFigure(b *testing.B, id, unit string) {
	b.Helper()
	var table figures.Table
	for i := 0; i < b.N; i++ {
		t, err := figures.Figure(id, figures.Quick(), campaign.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		table = t
	}
	reportLastRow(b, table, unit)
}

// BenchmarkSweepWorkers measures the campaign trial pool's scaling on the
// Figure 8 grid: the same scenario batch at pool sizes 1, 2, and one per
// core. The tables are byte-identical across pool sizes (asserted against
// serial), so the only difference is wall clock.
func BenchmarkSweepWorkers(b *testing.B) {
	serial, err := figures.Figure("fig8", figures.Quick(), campaign.RunOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	pools := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, w := range pools {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := figures.Figure("fig8", figures.Quick(), campaign.RunOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if t.Format() != serial.Format() {
					b.Fatal("parallel table diverged from serial")
				}
			}
		})
	}
}

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

// BenchmarkFig6EnergyVsNodes regenerates Figure 6 (energy vs node count).
func BenchmarkFig6EnergyVsNodes(b *testing.B) {
	benchFigure(b, "fig6", "uJ")
}

// BenchmarkFig7EnergyVsRadius regenerates Figure 7 (energy vs radius).
func BenchmarkFig7EnergyVsRadius(b *testing.B) {
	benchFigure(b, "fig7", "uJ")
}

// BenchmarkFig8DelayVsNodes regenerates Figure 8 (delay vs node count).
func BenchmarkFig8DelayVsNodes(b *testing.B) {
	benchFigure(b, "fig8", "ms")
}

// BenchmarkFig9DelayVsRadius regenerates Figure 9 (delay vs radius).
func BenchmarkFig9DelayVsRadius(b *testing.B) {
	benchFigure(b, "fig9", "ms")
}

// BenchmarkFig10FailureDelayVsNodes regenerates Figure 10 (delay vs node
// count under transient failures; SPMS/F-SPMS/SPIN/F-SPIN).
func BenchmarkFig10FailureDelayVsNodes(b *testing.B) {
	benchFigure(b, "fig10", "ms")
}

// BenchmarkFig11FailureDelayVsRadius regenerates Figure 11 (delay vs radius
// under transient failures).
func BenchmarkFig11FailureDelayVsRadius(b *testing.B) {
	benchFigure(b, "fig11", "ms")
}

// BenchmarkFig12MobilityEnergy regenerates Figure 12 (energy vs radius with
// mobile nodes; SPMS pays DBF re-convergence).
func BenchmarkFig12MobilityEnergy(b *testing.B) {
	benchFigure(b, "fig12", "uJ")
}

// BenchmarkFig13ClusterEnergy regenerates Figure 13 (energy vs radius for
// cluster-based hierarchical communication, with and without failures).
func BenchmarkFig13ClusterEnergy(b *testing.B) {
	benchFigure(b, "fig13", "uJ")
}

// BenchmarkMobilityThreshold recomputes the §5.1.3 break-even packet count.
func BenchmarkMobilityThreshold(b *testing.B) {
	var breakEven, dbf float64
	for i := 0; i < b.N; i++ {
		be, d, err := figures.MobilityThreshold(figures.Quick(), campaign.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		breakEven, dbf = be, d
	}
	b.ReportMetric(breakEven, "breakeven_pkts")
	b.ReportMetric(dbf, "dbf_uJ_per_event")
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

// BenchmarkInterZoneQuery measures the §6 extension: a cross-zone
// bordercast pull on a 12-node strip where plain SPMS starves the sink.
func BenchmarkInterZoneQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := radio.ScaledMICA2(12)
		if err != nil {
			b.Fatal(err)
		}
		f, err := topo.NewChainField(12, 5, m)
		if err != nil {
			b.Fatal(err)
		}
		sched := sim.NewScheduler()
		nw, err := network.New(sched, f, sim.NewRNG(1), network.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ledger := dissem.NewLedger()
		sink := packet.NodeID(11)
		interest := func(id packet.NodeID, d packet.DataID) bool { return id == sink }
		tables := routing.ComputeWorkers(routing.BuildGraphWorkers(f, 1), routing.DefaultAlternatives, 1)
		sys, err := core.NewSystem(nw, ledger, interest, tables, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		d := packet.DataID{Origin: 0, Seq: 0}
		if err := sys.Originate(0, d); err != nil {
			b.Fatal(err)
		}
		if err := sched.Run(300 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
		if err := sys.Query(sink, d); err != nil {
			b.Fatal(err)
		}
		if err := sched.Run(3 * time.Second); err != nil {
			b.Fatal(err)
		}
		if !sys.Has(sink, d) {
			b.Fatal("query failed")
		}
	}
}

// BenchmarkSchedulerThroughput measures raw event dispatch.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := sim.NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(time.Microsecond, func(uint64) {}, 0)
		if i%1024 == 1023 {
			if err := s.RunUntilIdle(0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.RunUntilIdle(0); err != nil {
		b.Fatal(err)
	}
}

// benchField builds the benchmark topology: an n-node grid at the paper's
// 5 m spacing with a 20 m zone radius — 169 is the paper's standard field,
// 1024 the stress-campaign grid.
func benchField(b *testing.B, n int) *topo.Field {
	b.Helper()
	m, err := radio.ScaledMICA2(20)
	if err != nil {
		b.Fatal(err)
	}
	f, err := topo.NewGridField(n, 5, m)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// benchSink keeps query results observable so the compiler cannot elide the
// benchmark body.
var benchSink int

// assertQueryAllocFree fails the benchmark if the steady-state query path
// allocates: the spatial-index contract is 0 allocs/op once caches are warm.
func assertQueryAllocFree(b *testing.B, query func()) {
	b.Helper()
	query() // warm every cache the query touches
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		b.Fatalf("steady-state query allocates %v per run, want 0", allocs)
	}
}

// BenchmarkReachedBy measures the broadcast recipient-list query across all
// power levels on a warm cache: O(1) slice handout, asserted 0 allocs/op.
func BenchmarkReachedBy(b *testing.B) {
	for _, n := range []int{169, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := benchField(b, n)
			center := packet.NodeID(f.N() / 2)
			levels := f.Model().MinPower()
			query := func() {
				for l := radio.MaxPower; l <= levels; l++ {
					benchSink += len(f.ReachedBy(center, l))
				}
			}
			assertQueryAllocFree(b, query)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query()
			}
		})
	}
}

// BenchmarkContenders measures the MAC contention-count lookup across all
// power levels on a warm cache: a cached length, asserted 0 allocs/op.
func BenchmarkContenders(b *testing.B) {
	for _, n := range []int{169, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := benchField(b, n)
			center := packet.NodeID(f.N() / 2)
			levels := f.Model().MinPower()
			query := func() {
				for l := radio.MaxPower; l <= levels; l++ {
					benchSink += f.Contenders(center, l)
				}
			}
			assertQueryAllocFree(b, query)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query()
			}
		})
	}
}

// BenchmarkMaxContenders measures the count-only max-contender pass SPIN
// runs once per trial, on uniform fields at the grid's density (the
// scale-1e5 benchmark's field at n=100000). It builds no neighbor cache,
// so every iteration does the whole pass.
func BenchmarkMaxContenders(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m, err := radio.ScaledMICA2(20)
			if err != nil {
				b.Fatal(err)
			}
			side := float64(geom.GridSide(n)-1) * topo.DefaultGridSpacing
			f, err := topo.NewUniformField(n, geom.Rect{Max: geom.Point{X: side, Y: side}}, m, sim.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += f.MaxContenders(radio.MaxPower)
			}
		})
	}
}

// BenchmarkZoneNeighborsRebuild measures the topology cache rebuild after a
// mobility event, comparing incremental invalidation (the production path:
// only the neighborhoods a mover leaves and enters are stamped dirty)
// against forcing the pre-index full-discard behavior (InvalidateAll).
// Each iteration performs one mobility event and then a full-field query
// wave, so deferred lazy rebuilds are paid inside the measurement. Two
// event shapes: a single Move (incrementality's best case — one zone's
// worth of rebuilds vs the whole field) and the paper's 5% relocation wave
// (whose scattered movers dirty most of a dense field either way; the win
// there is the O(neighbors) grid rebuild itself, not the stamping).
func BenchmarkZoneNeighborsRebuild(b *testing.B) {
	queryAll := func(f *topo.Field) {
		for i := 0; i < f.N(); i++ {
			benchSink += len(f.ZoneNeighbors(packet.NodeID(i)))
		}
	}
	for _, n := range []int{169, 1024} {
		events := []struct {
			name string
			do   func(f *topo.Field, rng *sim.RNG)
		}{
			{"move1", func(f *topo.Field, rng *sim.RNG) {
				id := packet.NodeID(rng.Intn(f.N()))
				f.Move(id, geom.Point{
					X: f.Bounds().Width() * rng.Float64(),
					Y: f.Bounds().Height() * rng.Float64(),
				})
			}},
			{"relocate5pct", func(f *topo.Field, rng *sim.RNG) {
				f.RelocateFraction(0.05, rng)
			}},
		}
		for _, ev := range events {
			b.Run(fmt.Sprintf("n=%d/%s/incremental", n, ev.name), func(b *testing.B) {
				f := benchField(b, n)
				rng := sim.NewRNG(1)
				queryAll(f) // start from a fully warm cache
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.do(f, rng)
					queryAll(f)
				}
			})
			b.Run(fmt.Sprintf("n=%d/%s/full", n, ev.name), func(b *testing.B) {
				f := benchField(b, n)
				rng := sim.NewRNG(1)
				queryAll(f)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.do(f, rng)
					f.InvalidateAll()
					queryAll(f)
				}
			})
		}
	}
}
