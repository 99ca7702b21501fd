// models_test.go covers the scenario-model registry at the experiment
// layer: zero values select the paper's models, WithDefaults fills the new
// knobs, Validate rejects nonsense, the wire form round-trips and — the
// compatibility contract — a pre-registry scenario serializes without any
// registry field, and Run executes every model combination.
package experiment

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestModelZeroValuesAreThePaperModels(t *testing.T) {
	if PlacementKind(0) != PlaceGrid {
		t.Fatal("zero placement must be grid")
	}
	if MobilityKind(0) != MobRelocate {
		t.Fatal("zero mobility model must be relocate")
	}
	if fault.Model(0) != fault.Transient {
		t.Fatal("zero failure model must be transient")
	}
}

func TestParsePlacementAndMobilityModel(t *testing.T) {
	for _, p := range []PlacementKind{PlaceGrid, PlaceUniform, PlaceChain, PlaceClustered} {
		var got PlacementKind
		if err := got.UnmarshalText([]byte(p.String())); err != nil || got != p {
			t.Fatalf("UnmarshalText(%q) = %v, %v", p.String(), got, err)
		}
	}
	var p PlacementKind
	if err := p.UnmarshalText([]byte("torus")); err == nil {
		t.Fatal("unknown placement accepted")
	}
	for _, m := range []MobilityKind{MobRelocate, MobWaypoint} {
		var got MobilityKind
		if err := got.UnmarshalText([]byte(m.String())); err != nil || got != m {
			t.Fatalf("UnmarshalText(%q) = %v, %v", m.String(), got, err)
		}
	}
	var m MobilityKind
	if err := m.UnmarshalText([]byte("brownian")); err == nil {
		t.Fatal("unknown mobility model accepted")
	}
}

func modelBase() Scenario {
	return Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 25, ZoneRadius: 15, Seed: 3}
}

func TestWithDefaultsFillsModelKnobs(t *testing.T) {
	sc := modelBase()
	sc.Placement = PlaceClustered
	sc.Mobility = true
	sc.MobilityModel = MobWaypoint
	sc.Failures = true
	sc.FailureCfg.Model = fault.Burst
	d := sc.WithDefaults()

	if d.PlacementClusters != DefaultPlacementClusters {
		t.Fatalf("PlacementClusters=%d, want %d", d.PlacementClusters, DefaultPlacementClusters)
	}
	if d.PlacementSpread != 2*d.GridSpacing {
		t.Fatalf("PlacementSpread=%v, want %v", d.PlacementSpread, 2*d.GridSpacing)
	}
	if d.WaypointSpeedMin != DefaultWaypointSpeedMin || d.WaypointSpeedMax != DefaultWaypointSpeedMax {
		t.Fatalf("waypoint speeds [%v, %v], want defaults [%v, %v]",
			d.WaypointSpeedMin, d.WaypointSpeedMax, DefaultWaypointSpeedMin, DefaultWaypointSpeedMax)
	}
	if d.WaypointPauseMax != DefaultWaypointPauseMax {
		t.Fatalf("WaypointPauseMax=%v, want %v", d.WaypointPauseMax, DefaultWaypointPauseMax)
	}
	// Model-only failure config inherits Table 1 timing and the zone
	// radius as burst radius.
	if d.FailureCfg.MeanInterArrival != 50*time.Millisecond {
		t.Fatalf("model-only failure config lost Table 1 timing: %+v", d.FailureCfg)
	}
	if d.FailureCfg.Model != fault.Burst || d.FailureCfg.BurstRadius != d.ZoneRadius {
		t.Fatalf("burst radius %v, want zone radius %v", d.FailureCfg.BurstRadius, d.ZoneRadius)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("defaulted scenario invalid: %v", err)
	}

	// Explicit timing is taken literally, exactly the pre-registry rule.
	sc2 := modelBase()
	sc2.Failures = true
	sc2.FailureCfg = fault.Config{Model: fault.Crash, MeanInterArrival: time.Second}
	d2 := sc2.WithDefaults()
	if d2.FailureCfg.MeanInterArrival != time.Second || d2.FailureCfg.RepairMax != 0 {
		t.Fatalf("explicit timing was rewritten: %+v", d2.FailureCfg)
	}

	// Grid placement and relocate mobility leave every knob untouched.
	d3 := modelBase().WithDefaults()
	if d3.PlacementClusters != 0 || d3.PlacementSpread != 0 ||
		d3.WaypointSpeedMax != 0 || d3.WaypointPauseMax != 0 {
		t.Fatalf("paper scenario grew model knobs: %+v", d3)
	}
}

func TestValidateModelFields(t *testing.T) {
	mk := func(mut func(*Scenario)) Scenario {
		sc := modelBase().WithDefaults()
		mut(&sc)
		return sc
	}
	tests := []struct {
		name    string
		sc      Scenario
		wantErr string
	}{
		{"bad placement", mk(func(s *Scenario) { s.Placement = PlacementKind(9) }), "unknown placement"},
		{"negative clusters", mk(func(s *Scenario) { s.PlacementClusters = -1 }), "negative placement clusters"},
		{"negative spread", mk(func(s *Scenario) { s.PlacementSpread = -2 }), "negative placement spread"},
		{"bad mobility model", mk(func(s *Scenario) { s.MobilityModel = MobilityKind(5) }), "unknown mobility model"},
		{"negative speed", mk(func(s *Scenario) { s.WaypointSpeedMin = -1 }), "negative waypoint speed"},
		{"inverted speeds", mk(func(s *Scenario) { s.WaypointSpeedMin, s.WaypointSpeedMax = 9, 2 }), "inverted"},
		{"negative pause", mk(func(s *Scenario) { s.WaypointPauseMin = -time.Second }), "negative waypoint pause"},
		{"inverted pauses", mk(func(s *Scenario) { s.WaypointPauseMin, s.WaypointPauseMax = time.Second, time.Millisecond }), "inverted"},
		{"burst without radius", mk(func(s *Scenario) {
			s.Failures = true
			s.FailureCfg = fault.Config{Model: fault.Burst, MeanInterArrival: time.Second, RepairMax: time.Second}
		}), "burst"},
		// Unknown numeric models must die in Validate even with failures
		// off — they have no wire name, so they'd fail sink marshaling
		// mid-campaign otherwise.
		{"bad failure model, failures off", mk(func(s *Scenario) {
			s.FailureCfg.Model = fault.Model(7)
		}), "unknown failure model"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.sc.Validate()
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("err=%v, want substring %q", err, tt.wantErr)
			}
		})
	}
}

// TestPreRegistryWireFormUnchanged is the zero-value-compatibility
// contract on the wire: a scenario that predates the model registry must
// marshal to JSON containing none of the registry's field names.
func TestPreRegistryWireFormUnchanged(t *testing.T) {
	sc := modelBase()
	sc.Failures = true
	sc.Mobility = true
	sc = sc.WithDefaults()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, field := range []string{
		"placement", "placementClusters", "placementSpread",
		"mobilityModel", "waypointSpeed", "waypointPause",
		"model", "burstRadius",
	} {
		if strings.Contains(string(data), `"`+field) {
			t.Fatalf("pre-registry scenario marshaled registry field %q:\n%s", field, data)
		}
	}
}

func TestModelWireFormRoundTrip(t *testing.T) {
	sc := modelBase()
	sc.Placement = PlaceClustered
	sc.PlacementClusters = 3
	sc.PlacementSpread = 7.5
	sc.Mobility = true
	sc.MobilityModel = MobWaypoint
	sc.WaypointSpeedMin = 1
	sc.WaypointSpeedMax = 4
	sc.WaypointPauseMin = 10 * time.Millisecond
	sc.WaypointPauseMax = 20 * time.Millisecond
	sc.Failures = true
	sc.FailureCfg = fault.Config{Model: fault.Burst, MeanInterArrival: 80 * time.Millisecond, RepairMin: time.Millisecond, RepairMax: 2 * time.Millisecond, BurstRadius: 12}

	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, want := range []string{`"placement":"clustered"`, `"mobilityModel":"waypoint"`, `"model":"burst"`, `"waypointPauseMin":"10ms"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("wire form missing %s:\n%s", want, data)
		}
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != sc {
		t.Fatalf("round trip changed scenario:\n got %+v\nwant %+v", back, sc)
	}
}

// TestRunEveryModelCombination is the end-to-end smoke: each placement,
// mobility, and failure model executes to completion at tiny scale and
// delivers data. (The golden corpus locks the exact bytes; this guards
// the error paths under -race.)
func TestRunEveryModelCombination(t *testing.T) {
	if testing.Short() {
		t.Skip("model sweep runs ~10 simulations")
	}
	for _, placement := range []PlacementKind{PlaceGrid, PlaceUniform, PlaceChain, PlaceClustered} {
		for _, mob := range []MobilityKind{MobRelocate, MobWaypoint} {
			sc := modelBase()
			sc.PacketsPerNode = 1
			sc.Drain = time.Second
			sc.Placement = placement
			sc.Mobility = true
			sc.MobilityModel = mob
			res, err := RunWith(sc, RunConfig{})
			if err != nil {
				t.Fatalf("placement=%v mobility=%v: %v", placement, mob, err)
			}
			if res.Deliveries == 0 {
				t.Fatalf("placement=%v mobility=%v delivered nothing", placement, mob)
			}
			if res.MobilityEvents == 0 {
				t.Fatalf("placement=%v mobility=%v saw no mobility events", placement, mob)
			}
		}
	}
	for _, fm := range []fault.Model{fault.Transient, fault.Crash, fault.Burst} {
		sc := modelBase()
		sc.PacketsPerNode = 1
		sc.Drain = time.Second
		sc.Failures = true
		sc.FailureCfg.Model = fm
		res, err := RunWith(sc, RunConfig{})
		if err != nil {
			t.Fatalf("failure model %v: %v", fm, err)
		}
		if res.FailuresInjected == 0 {
			t.Fatalf("failure model %v injected nothing", fm)
		}
	}
}
