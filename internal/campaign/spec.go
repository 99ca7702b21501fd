// Package campaign runs many scenarios; package experiment runs one. A
// campaign spec (a JSON file) names a base experiment.Scenario plus axes
// — lists or ranges per parameter — and the package expands the cartesian
// grid into a deterministic, stably-ordered point set, executes its
// trials (each point's seed-derived replicates) on a bounded worker pool,
// and streams every finished point to pluggable result sinks tagged with
// its full parameter tuple. Campaign.Run is the only way to run more than
// one scenario.
//
// The grid-expansion order contract (DESIGN.md §6): axes are taken in the
// canonical parameter order of the Axes struct below, values in spec order
// (ranges ascending), and the product is enumerated row-major with the
// last axis varying fastest. Expansion is pure, so the same spec always
// yields the same point sequence — the property that makes campaign
// output byte-identical at every worker-pool size.
package campaign

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
)

// Spec is a campaign file: a named base scenario plus the axes to sweep.
type Spec struct {
	Name        string              `json:"name"`
	Description string              `json:"description,omitempty"`
	Base        experiment.Scenario `json:"base"`
	Axes        Axes                `json:"axes"`

	// Replications replicates every grid point over N seed-derived trials
	// (experiment.ReplicateSeed) and switches the sinks to aggregate
	// records (DESIGN.md §6.1). 0 and 1 both mean single trials with the
	// pre-replication record format. Overrides the base scenario's
	// replications field when set.
	Replications int `json:"replications,omitempty"`
}

// Axes lists every sweepable parameter. Field order here IS the canonical
// expansion order; empty axes are skipped. Enum axes are plain JSON lists
// of names; numeric and duration axes accept either a list or a range
// object (see IntAxis).
type Axes struct {
	Protocol            []experiment.Protocol      `json:"protocol,omitempty"`
	Workload            []experiment.WorkloadKind  `json:"workload,omitempty"`
	Placement           []experiment.PlacementKind `json:"placement,omitempty"`
	PlacementClusters   IntAxis                    `json:"placementClusters,omitempty"`
	PlacementSpread     FloatAxis                  `json:"placementSpread,omitempty"`
	Nodes               IntAxis                    `json:"nodes,omitempty"`
	GridSpacing         FloatAxis                  `json:"gridSpacing,omitempty"`
	ZoneRadius          FloatAxis                  `json:"zoneRadius,omitempty"`
	PacketsPerNode      IntAxis                    `json:"packetsPerNode,omitempty"`
	MeanArrival         DurationAxis               `json:"meanArrival,omitempty"`
	ClusterInterestProb FloatAxis                  `json:"clusterInterestProb,omitempty"`
	Failures            []bool                     `json:"failures,omitempty"`
	FailureModel        []fault.Model              `json:"failureModel,omitempty"`
	BurstRadius         FloatAxis                  `json:"burstRadius,omitempty"`
	Mobility            []bool                     `json:"mobility,omitempty"`
	MobilityModel       []experiment.MobilityKind  `json:"mobilityModel,omitempty"`
	MobilityPeriod      DurationAxis               `json:"mobilityPeriod,omitempty"`
	MobilityFraction    FloatAxis                  `json:"mobilityFraction,omitempty"`
	RouteAlternatives   IntAxis                    `json:"routeAlternatives,omitempty"`
	CarrierSense        []bool                     `json:"carrierSense,omitempty"`
	Drain               DurationAxis               `json:"drain,omitempty"`
	Seed                SeedAxis                   `json:"seed,omitempty"`
}

// IntAxis is either an explicit list ([25, 49, 100]) or an inclusive
// ascending range ({"from": 5, "to": 30, "step": 5}; step defaults to 1,
// from and to are required). JSON null leaves the axis empty.
type IntAxis struct{ Values []int }

// UnmarshalJSON accepts the list or range form.
func (a *IntAxis) UnmarshalJSON(data []byte) error {
	return decodeSteps[int](data, "int", 1, &a.Values)
}

// FloatAxis is either an explicit list or an inclusive ascending range
// with required from/to and a required positive step. Range expansion
// computes each value as from + i*step (no accumulation), so the grid is
// reproducible. JSON null leaves the axis empty.
type FloatAxis struct{ Values []float64 }

// UnmarshalJSON accepts the list or range form.
func (a *FloatAxis) UnmarshalJSON(data []byte) error {
	if done, err := decodeList[float64](data, &a.Values); done {
		return err
	}
	var r struct {
		From *float64 `json:"from"`
		To   *float64 `json:"to"`
		Step float64  `json:"step"`
	}
	if err := strictUnmarshal(data, &r); err != nil {
		return fmt.Errorf("campaign: float axis: %w", err)
	}
	if r.From == nil || r.To == nil {
		return fmt.Errorf("campaign: float axis range needs both from and to")
	}
	if r.Step <= 0 {
		return fmt.Errorf("campaign: float axis step %g must be positive", r.Step)
	}
	if *r.To < *r.From {
		return fmt.Errorf("campaign: float axis range [%g, %g] is empty", *r.From, *r.To)
	}
	ratio := (*r.To - *r.From) / r.Step
	if ratio >= MaxPoints {
		return fmt.Errorf("campaign: float axis: range expands to over %d values (max %d)", MaxPoints, MaxPoints)
	}
	// A relative epsilon keeps `to` itself in the grid despite rounding.
	// The representation error of the endpoints scales with their
	// magnitude — ulp(to) can rival the step for large-magnitude ranges —
	// so the tolerance is relative to both the step ratio (division
	// rounding, generous 1e-12 factor) and the endpoints measured in
	// steps (a few ulps: 4e-16 ≈ 2 machine epsilons per endpoint). Both
	// factors sit orders of magnitude above the true rounding error yet
	// orders of magnitude below any genuine sub-step remainder, so `to`
	// survives rounding without ever minting a value beyond it; the cap
	// is a backstop for astronomically ill-conditioned grids.
	tol := 1e-12*ratio + 4e-16*(math.Abs(*r.From)+math.Abs(*r.To))/r.Step
	if tol > 0.25 {
		tol = 0.25
	}
	n := int(ratio + tol)
	for i := 0; i <= n; i++ {
		a.Values = append(a.Values, *r.From+float64(i)*r.Step)
	}
	return nil
}

// DurationAxis is either a list of durations (each a Go duration string
// like "100ms" or integer nanoseconds) or a range object of the same with
// required from/to/step. JSON null leaves the axis empty.
type DurationAxis struct{ Values []time.Duration }

// UnmarshalJSON accepts the list or range form.
func (a *DurationAxis) UnmarshalJSON(data []byte) error {
	return decodeSteps[experiment.FlexDuration](data, "duration", 0, &a.Values)
}

// SeedAxis replicates points across seeds: an explicit list/range like
// IntAxis, or {"count": N} for N consecutive seeds starting at the base
// scenario's seed.
type SeedAxis struct {
	Values []int64
	Count  int
}

// UnmarshalJSON accepts the list, range, or count form.
func (a *SeedAxis) UnmarshalJSON(data []byte) error {
	if done, err := decodeList[int64](data, &a.Values); done {
		return err
	}
	var r struct {
		stepRange[int64]
		Count int `json:"count"`
	}
	if err := strictUnmarshal(data, &r); err != nil {
		return fmt.Errorf("campaign: seed axis: %w", err)
	}
	if r.Count != 0 {
		if r.From != nil || r.To != nil || r.Step != 0 {
			return fmt.Errorf("campaign: seed axis: count excludes from/to/step")
		}
		if r.Count < 0 {
			return fmt.Errorf("campaign: seed axis count %d must be positive", r.Count)
		}
		if r.Count > MaxPoints {
			return fmt.Errorf("campaign: seed axis count %d exceeds %d", r.Count, MaxPoints)
		}
		a.Count = r.Count
		return nil
	}
	if r.From == nil || r.To == nil {
		return fmt.Errorf("campaign: seed axis needs either count or from/to")
	}
	return appendSteps("seed", *r.From, *r.To, cmp.Or(r.Step, 1), &a.Values)
}

// stepRange is the {"from", "to", "step"} form of an integer-valued axis,
// each bound in its wire form W.
type stepRange[W ~int | ~int64] struct {
	From *W `json:"from"`
	To   *W `json:"to"`
	Step W  `json:"step"`
}

// decodeSteps decodes an integer-valued axis into out: JSON null, a list
// of wire values W, or a stepRange of them. A zero step means defStep,
// and a zero defStep makes the step required.
func decodeSteps[W, V ~int | ~int64](data []byte, axis string, defStep W, out *[]V) error {
	if done, err := decodeList[W](data, out); done {
		return err
	}
	var r stepRange[W]
	if err := strictUnmarshal(data, &r); err != nil {
		return fmt.Errorf("campaign: %s axis: %w", axis, err)
	}
	if r.From == nil || r.To == nil {
		return fmt.Errorf("campaign: %s axis range needs both from and to", axis)
	}
	return appendSteps(axis, V(*r.From), V(*r.To), V(cmp.Or(r.Step, defStep)), out)
}

// appendSteps appends from, from+step, … up to to. A range whose
// expansion alone would exceed the grid cap fails here, so a typoed bound
// errors at parse time instead of allocating gigabytes before Expand's
// product check runs.
func appendSteps[V ~int | ~int64](axis string, from, to, step V, out *[]V) error {
	if step <= 0 {
		return fmt.Errorf("campaign: %s axis step %v must be positive", axis, step)
	}
	if to < from {
		return fmt.Errorf("campaign: %s axis range [%v, %v] is empty", axis, from, to)
	}
	// The unsigned division is wrap-correct even when to-from overflows
	// signed arithmetic.
	steps := uint64(to-from) / uint64(step)
	if steps >= MaxPoints {
		return fmt.Errorf("campaign: %s axis: range expands to %d values (max %d)", axis, steps+1, MaxPoints)
	}
	// Count-based iteration: from + i*step never exceeds to, so bounds
	// near the integer limits cannot wrap the loop variable.
	for i := V(0); uint64(i) <= steps; i++ {
		*out = append(*out, from+i*step)
	}
	return nil
}

// decodeList decodes the forms every list-or-range axis shares into out:
// JSON null leaves it empty and a list of wire values W is taken as
// written. It reports whether data had one of these forms.
func decodeList[W, V ~int | ~int64 | ~float64](data []byte, out *[]V) (bool, error) {
	if isJSONNull(data) {
		return true, nil
	}
	if !isJSONArray(data) {
		return false, nil
	}
	var ws []W
	if err := json.Unmarshal(data, &ws); err != nil {
		return true, err
	}
	for _, w := range ws {
		*out = append(*out, V(w))
	}
	return true, nil
}

// isJSONArray reports whether the raw value is a JSON array.
func isJSONArray(data []byte) bool {
	trimmed := bytes.TrimSpace(data)
	return len(trimmed) > 0 && trimmed[0] == '['
}

// isJSONNull reports whether the raw value is JSON null (which leaves an
// axis empty, matching encoding/json's convention for null).
func isJSONNull(data []byte) bool {
	return bytes.Equal(bytes.TrimSpace(data), []byte("null"))
}

// strictUnmarshal decodes rejecting unknown fields, so a typoed axis key
// ("setp") fails instead of silently defaulting.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// ParseSpec decodes a campaign spec, rejecting unknown fields anywhere in
// the document.
func ParseSpec(r io.Reader) (Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: read spec: %w", err)
	}
	var s Spec
	if err := strictUnmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("campaign: spec has no name")
	}
	return s, nil
}

// LoadSpec reads and parses a campaign spec file.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}
