// metrics.go names Result's numeric metrics in one canonical report
// order — the order campaign CSV columns, aggregate records, and the
// replicated-run summaries all share — and aggregates replicate vectors
// into per-metric statistics.
package experiment

import (
	"time"

	"repro/internal/stats"
)

// resultMetricNames is the canonical metric order with units embedded:
// energies in microjoules, delays in milliseconds. It must stay aligned
// field for field with Result.MetricValues.
var resultMetricNames = []string{
	"totalEnergy_uJ", "energyPerPacket_uJ", "ctrlEnergy_uJ",
	"meanDelay_ms", "p95Delay_ms", "maxDelay_ms",
	"items", "deliveries", "expected", "deliveryRate",
	"timeouts", "failovers", "drops", "duplicates",
	"sentADV", "sentREQ", "sentDATA",
	"dbfRounds", "dbfBroadcasts", "mobilityEvents", "failuresInjected",
}

// ResultMetricNames returns the canonical metric report order. The caller
// may keep the slice; it is a fresh copy.
func ResultMetricNames() []string {
	out := make([]string, len(resultMetricNames))
	copy(out, resultMetricNames)
	return out
}

// MetricValues returns the result's metrics in ResultMetricNames order.
func (r Result) MetricValues() []float64 {
	return []float64{
		r.TotalEnergy, r.EnergyPerPacket, r.CtrlEnergy,
		ms(r.MeanDelay), ms(r.P95Delay), ms(r.MaxDelay),
		float64(r.Items), float64(r.Deliveries), float64(r.Expected), r.DeliveryRate,
		float64(r.Timeouts), float64(r.Failovers), float64(r.Drops), float64(r.Duplicates),
		float64(r.SentADV), float64(r.SentREQ), float64(r.SentDATA),
		float64(r.DBFRounds), float64(r.DBFBroadcasts), float64(r.MobilityEvents), float64(r.FailuresInjected),
	}
}

// AggregateResults summarizes a replicate vector per metric: entry k of
// the returned slice is the stats.Summary of metric k (ResultMetricNames
// order) across the replicates, in replicate order — deterministic for a
// deterministic replicate vector.
func AggregateResults(rs []Result) []stats.Summary {
	rows := make([][]float64, len(rs))
	for i, r := range rs {
		rows[i] = r.MetricValues()
	}
	return stats.DescribeColumns(rows)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
