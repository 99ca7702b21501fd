package experiment

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// TestScenarioJSONRoundTrip marshals a fully-populated scenario and checks
// the decode reproduces it field for field.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Scenario{
		Protocol:            SPMS,
		Workload:            Clustered,
		Nodes:               169,
		GridSpacing:         5,
		ZoneRadius:          20,
		PacketsPerNode:      10,
		MeanArrival:         time.Millisecond,
		ClusterInterestProb: 0.05,
		Failures:            true,
		FailureCfg:          fault.DefaultConfig(),
		Mobility:            true,
		MobilityPeriod:      100 * time.Millisecond,
		MobilityFraction:    0.05,
		SPMSConfig:          core.DefaultConfig(),
		RouteAlternatives:   3,
		ChargeInitialDBF:    true,
		CarrierSense:        true,
		Seed:                42,
		Drain:               3 * time.Second,
		Replications:        5,
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if back != sc {
		t.Fatalf("round trip diverged:\nin:   %+v\nout:  %+v\njson: %s", sc, back, data)
	}
	for _, frag := range []string{`"protocol":"spms"`, `"workload":"clustered"`, `"drain":"3s"`, `"meanInterArrival":"50ms"`, `"replications":5`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("wire form missing %s:\n%s", frag, data)
		}
	}
}

// TestScenarioJSONReplicationsNormalized checks 0 and 1 — both meaning a
// single trial — serialize identically: the field is omitted, so an
// explicit replications:1 spec round-trips byte-identically to one that
// never mentions replication.
func TestScenarioJSONReplicationsNormalized(t *testing.T) {
	for _, n := range []int{0, 1} {
		data, err := json.Marshal(Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 25, ZoneRadius: 20, Replications: n})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if strings.Contains(string(data), "replications") {
			t.Fatalf("replications=%d leaked into the wire form: %s", n, data)
		}
	}
}

// TestScenarioJSONFlexibleInput checks the spec-file conveniences: named
// protocols/workloads (any case), duration strings or raw nanoseconds.
func TestScenarioJSONFlexibleInput(t *testing.T) {
	in := `{
		"protocol": "SPIN",
		"workload": "cluster",
		"nodes": 49,
		"zoneRadius": 15,
		"meanArrival": 1000000,
		"drain": "2s"
	}`
	var sc Scenario
	if err := json.Unmarshal([]byte(in), &sc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if sc.Protocol != SPIN || sc.Workload != Clustered {
		t.Fatalf("enum parse: %+v", sc)
	}
	if sc.MeanArrival != time.Millisecond || sc.Drain != 2*time.Second {
		t.Fatalf("duration parse: arrival=%v drain=%v", sc.MeanArrival, sc.Drain)
	}
}

// TestScenarioJSONRejects pins the whole text of each rejection: strict
// decoding fails on unknown fields, unknown enum names and malformed
// durations, and Validate on an enum's numeric form that names no value.
func TestScenarioJSONRejects(t *testing.T) {
	const pre = "experiment: bad scenario: "
	const valid = `"protocol":"spms","workload":"all-to-all","nodes":1,"zoneRadius":1`
	cases := []struct{ name, in, wantErr string }{
		{"unknown field", `{"protocol":"spms","nodez":25}`, pre + `json: unknown field "nodez"`},
		{"unknown protocol", `{"protocol":"smps"}`, pre + `experiment: unknown protocol "smps" (want spms | spin | flood)`},
		{"fractional protocol", `{"protocol":1.5}`, pre + "json: cannot unmarshal number 1.5 into Go struct field .alias.protocol of type int"},
		{"numeric unknown protocol", `{"protocol":7}`, "experiment: unknown protocol 7"},
		{"null protocol", `{"protocol":null}`, "experiment: unknown protocol 0"},
		{"unknown workload", `{"workload":"mesh"}`, pre + `experiment: unknown workload "mesh" (want all-to-all | cluster)`},
		{"numeric unknown workload", `{"protocol":"spms","workload":9}`, "experiment: unknown workload 9"},
		{"unknown placement", `{"placement":"torus"}`, pre + `experiment: unknown placement "torus" (want grid | uniform | chain | clustered)`},
		{"numeric unknown placement", `{` + valid + `,"placement":9}`, "experiment: unknown placement 9"},
		{"unknown mobility model", `{"mobilityModel":"brownian"}`, pre + `experiment: unknown mobility model "brownian" (want relocate | waypoint)`},
		{"numeric unknown mobility model", `{` + valid + `,"mobilityModel":5}`, "experiment: unknown mobility model 5"},
		{"unknown failure model", `{"failureConfig":{"model":"meteor"}}`, pre + `fault: unknown failure model "meteor" (want transient | crash | burst)`},
		{"numeric unknown failure model", `{` + valid + `,"failures":true,"failureConfig":{"model":7}}`, "experiment: unknown failure model 7"},
		{"bad duration", `{"drain":"3 parsecs"}`, pre + `experiment: bad duration "3 parsecs": time: unknown unit " parsecs" in duration "3 parsecs"`},
		{"bad nested field", `{"failureConfig":{"mttr":"10ms"}}`, pre + `json: unknown field "mttr"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sc Scenario
			err := json.Unmarshal([]byte(tc.in), &sc)
			if err == nil {
				err = sc.Validate()
			}
			if err == nil {
				t.Fatalf("accepted %s as %+v", tc.in, sc)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("err = %v\nwant %s", err, tc.wantErr)
			}
		})
	}
}

// TestResultJSONTags spot-checks Result's wire names.
func TestResultJSONTags(t *testing.T) {
	data, err := json.Marshal(Result{MeanDelay: 1500 * time.Microsecond, EnergyPerPacket: 2.5})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, frag := range []string{`"meanDelayNs":1500000`, `"energyPerPacket":2.5`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("result wire form missing %s:\n%s", frag, data)
		}
	}
}
