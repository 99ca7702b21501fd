// expand.go turns a Spec into its deterministic point grid: the cartesian
// product of every non-empty axis, enumerated row-major with the last
// (canonical-order) axis varying fastest. Every point's scenario is fully
// defaulted and validated at expansion time, so a bad spec fails before
// any simulation runs.
package campaign

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
)

// MaxPoints bounds grid expansion: a spec whose axes multiply out beyond
// this is almost certainly a typo, and failing fast beats allocating the
// grid.
const MaxPoints = 1_000_000

// Param is one axis assignment of a point, in display form.
type Param struct {
	Name  string
	Value string
}

// Point is one expanded grid point: its stable index, the axis assignments
// that produced it (canonical order), and the fully-defaulted scenario.
type Point struct {
	Index    int
	Params   []Param
	Scenario experiment.Scenario

	// scenarioJSON is Scenario's wire form, set only on the copy Run hands
	// the sinks when it already encoded the scenario to hash it and the
	// scenario is fully defaulted, so the canonical bytes are exactly
	// Scenario.MarshalJSON's. JSONLSink writes them as the record's
	// scenario; nil means encode Scenario.
	scenarioJSON []byte
}

// ParamsString renders the assignments as "name=value name=value".
func (p Point) ParamsString() string {
	parts := make([]string, len(p.Params))
	for i, pr := range p.Params {
		parts[i] = pr.Name + "=" + pr.Value
	}
	return strings.Join(parts, " ")
}

// Campaign is an expanded spec, ready to run.
type Campaign struct {
	Spec      Spec
	AxisNames []string // non-empty axes, canonical order
	Points    []Point
}

// Replications returns the per-point trial count, at least 1. It is
// uniform across the grid: the spec-level field (or the base scenario's)
// applies to every point at expansion.
func (c *Campaign) Replications() int {
	if len(c.Points) == 0 {
		return 1
	}
	return experiment.Replications(c.Points[0].Scenario)
}

// axisValue is one value of one axis: its display label and the scenario
// mutation it represents.
type axisValue struct {
	label string
	apply func(*experiment.Scenario)
}

// binding is a non-empty axis with its expanded values.
type binding struct {
	name   string
	values []axisValue
}

// rejectZero fails axes over fields where a zero value means "use the
// package default" (Scenario.WithDefaults): the default would silently
// replace the value after the parameter label is minted, so every emitted
// record would attribute its result to a parameter that never ran.
func rejectZero[T comparable](axis string, vs []T) error {
	var zero T
	for _, v := range vs {
		if v == zero {
			return fmt.Errorf("campaign: axis %s: zero means %q in a Scenario and would be replaced by the default; write the intended value explicitly", axis, "use the default")
		}
	}
	return nil
}

// bindings expands the spec's axes into canonical order, resolving the
// seed axis's count form against the base seed.
func (s Spec) bindings() ([]binding, error) {
	zeroChecks := []error{
		rejectZero("placementClusters", s.Axes.PlacementClusters.Values),
		rejectZero("placementSpread", s.Axes.PlacementSpread.Values),
		rejectZero("burstRadius", s.Axes.BurstRadius.Values),
		rejectZero("gridSpacing", s.Axes.GridSpacing.Values),
		rejectZero("packetsPerNode", s.Axes.PacketsPerNode.Values),
		rejectZero("meanArrival", s.Axes.MeanArrival.Values),
		rejectZero("clusterInterestProb", s.Axes.ClusterInterestProb.Values),
		rejectZero("mobilityPeriod", s.Axes.MobilityPeriod.Values),
		rejectZero("mobilityFraction", s.Axes.MobilityFraction.Values),
		rejectZero("routeAlternatives", s.Axes.RouteAlternatives.Values),
		rejectZero("drain", s.Axes.Drain.Values),
	}
	for _, err := range zeroChecks {
		if err != nil {
			return nil, err
		}
	}

	var bs []binding
	add := func(name string, values []axisValue) {
		if len(values) > 0 {
			bs = append(bs, binding{name, values})
		}
	}

	// Protocol.String is the paper's upper-case name; its lower case is
	// the wire name.
	add("protocol", values(s.Axes.Protocol, func(p experiment.Protocol) string { return strings.ToLower(p.String()) }, func(sc *experiment.Scenario, p experiment.Protocol) { sc.Protocol = p }))
	add("workload", values(s.Axes.Workload, experiment.WorkloadKind.String, func(sc *experiment.Scenario, w experiment.WorkloadKind) { sc.Workload = w }))

	// Model axes list the zero-valued default model ("grid", "transient",
	// "relocate") as a legitimate sweep value: unlike the zero-rejected
	// numeric axes, the zero model is never replaced by WithDefaults — it
	// IS the default model — so the emitted label always names what ran.
	add("placement", values(s.Axes.Placement, experiment.PlacementKind.String, func(sc *experiment.Scenario, p experiment.PlacementKind) { sc.Placement = p }))

	add("placementClusters", values(s.Axes.PlacementClusters.Values, strconv.Itoa, func(sc *experiment.Scenario, v int) { sc.PlacementClusters = v }))
	add("placementSpread", values(s.Axes.PlacementSpread.Values, formatFloat, func(sc *experiment.Scenario, v float64) { sc.PlacementSpread = v }))

	add("nodes", values(s.Axes.Nodes.Values, strconv.Itoa, func(sc *experiment.Scenario, v int) { sc.Nodes = v }))
	add("gridSpacing", values(s.Axes.GridSpacing.Values, formatFloat, func(sc *experiment.Scenario, v float64) { sc.GridSpacing = v }))
	add("zoneRadius", values(s.Axes.ZoneRadius.Values, formatFloat, func(sc *experiment.Scenario, v float64) { sc.ZoneRadius = v }))
	add("packetsPerNode", values(s.Axes.PacketsPerNode.Values, strconv.Itoa, func(sc *experiment.Scenario, v int) { sc.PacketsPerNode = v }))
	add("meanArrival", values(s.Axes.MeanArrival.Values, time.Duration.String, func(sc *experiment.Scenario, v time.Duration) { sc.MeanArrival = v }))
	add("clusterInterestProb", values(s.Axes.ClusterInterestProb.Values, formatFloat, func(sc *experiment.Scenario, v float64) { sc.ClusterInterestProb = v }))
	add("failures", values(s.Axes.Failures, strconv.FormatBool, func(sc *experiment.Scenario, v bool) { sc.Failures = v }))
	add("failureModel", values(s.Axes.FailureModel, fault.Model.String, func(sc *experiment.Scenario, m fault.Model) { sc.FailureCfg.Model = m }))
	add("burstRadius", values(s.Axes.BurstRadius.Values, formatFloat, func(sc *experiment.Scenario, v float64) { sc.FailureCfg.BurstRadius = v }))
	add("mobility", values(s.Axes.Mobility, strconv.FormatBool, func(sc *experiment.Scenario, v bool) { sc.Mobility = v }))
	add("mobilityModel", values(s.Axes.MobilityModel, experiment.MobilityKind.String, func(sc *experiment.Scenario, m experiment.MobilityKind) { sc.MobilityModel = m }))
	add("mobilityPeriod", values(s.Axes.MobilityPeriod.Values, time.Duration.String, func(sc *experiment.Scenario, v time.Duration) { sc.MobilityPeriod = v }))
	add("mobilityFraction", values(s.Axes.MobilityFraction.Values, formatFloat, func(sc *experiment.Scenario, v float64) { sc.MobilityFraction = v }))
	add("routeAlternatives", values(s.Axes.RouteAlternatives.Values, strconv.Itoa, func(sc *experiment.Scenario, v int) { sc.RouteAlternatives = v }))
	add("carrierSense", values(s.Axes.CarrierSense, strconv.FormatBool, func(sc *experiment.Scenario, v bool) { sc.CarrierSense = v }))
	add("drain", values(s.Axes.Drain.Values, time.Duration.String, func(sc *experiment.Scenario, v time.Duration) { sc.Drain = v }))

	seeds := s.Axes.Seed.Values
	if s.Axes.Seed.Count > 0 {
		seeds = make([]int64, s.Axes.Seed.Count)
		for i := range seeds {
			seeds[i] = s.Base.Seed + int64(i)
		}
	}
	add("seed", values(seeds, func(v int64) string { return strconv.FormatInt(v, 10) }, func(sc *experiment.Scenario, v int64) { sc.Seed = v }))

	return bs, nil
}

// values binds an axis's values, each labeled by label and applied by set.
func values[T any](vs []T, label func(T) string, set func(*experiment.Scenario, T)) []axisValue {
	out := make([]axisValue, len(vs))
	for i, v := range vs {
		out[i] = axisValue{label(v), func(sc *experiment.Scenario) { set(sc, v) }}
	}
	return out
}

// formatFloat labels a float value in its shortest exact form.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Expand materializes the spec's grid. Every returned point is fully
// defaulted (experiment.Scenario.WithDefaults) and validated.
func Expand(spec Spec) (*Campaign, error) {
	if spec.Replications < 0 {
		return nil, fmt.Errorf("campaign %q: negative replications %d", spec.Name, spec.Replications)
	}
	bs, err := spec.bindings()
	if err != nil {
		return nil, err
	}
	total := 1
	for _, b := range bs {
		total *= len(b.values)
		if total > MaxPoints {
			return nil, fmt.Errorf("campaign %q: grid exceeds %d points", spec.Name, MaxPoints)
		}
	}
	reps := spec.Replications
	if reps == 0 {
		reps = spec.Base.Replications
	}
	if reps > 1 && total > MaxPoints/reps {
		return nil, fmt.Errorf("campaign %q: grid of %d points × %d replications exceeds %d trials",
			spec.Name, total, reps, MaxPoints)
	}

	c := &Campaign{Spec: spec, Points: make([]Point, 0, total)}
	for _, b := range bs {
		c.AxisNames = append(c.AxisNames, b.name)
	}

	idx := make([]int, len(bs))
	for i := 0; i < total; i++ {
		sc := spec.Base
		params := make([]Param, len(bs))
		for j, b := range bs {
			v := b.values[idx[j]]
			v.apply(&sc)
			params[j] = Param{b.name, v.label}
		}
		sc = sc.WithDefaults()
		if spec.Replications != 0 {
			sc.Replications = spec.Replications
		}
		p := Point{Index: i, Params: params, Scenario: sc}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("campaign %q: point %d (%s): %w", spec.Name, i, p.ParamsString(), err)
		}
		c.Points = append(c.Points, p)

		// Odometer step: last axis fastest.
		for j := len(bs) - 1; j >= 0; j-- {
			idx[j]++
			if idx[j] < len(bs[j].values) {
				break
			}
			idx[j] = 0
		}
	}
	return c, nil
}
