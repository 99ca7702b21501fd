package campaign

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseSpecAxisForms(t *testing.T) {
	in := `{
		"name": "forms",
		"base": {"protocol": "spms", "workload": "all-to-all", "zoneRadius": 20, "seed": 7},
		"axes": {
			"protocol": ["spms", "spin", "flood"],
			"nodes": {"from": 25, "to": 100, "step": 25},
			"zoneRadius": {"from": 5, "to": 15, "step": 5},
			"packetsPerNode": [1, 2],
			"meanArrival": ["1ms", 2000000],
			"mobilityPeriod": {"from": "50ms", "to": "150ms", "step": "50ms"},
			"seed": {"count": 3}
		}
	}`
	spec, err := ParseSpec(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if got := spec.Axes.Nodes.Values; len(got) != 4 || got[0] != 25 || got[3] != 100 {
		t.Fatalf("nodes range: %v", got)
	}
	if got := spec.Axes.ZoneRadius.Values; len(got) != 3 || got[2] != 15 {
		t.Fatalf("radius range: %v", got)
	}
	if got := spec.Axes.MeanArrival.Values; len(got) != 2 || got[0] != time.Millisecond || got[1] != 2*time.Millisecond {
		t.Fatalf("meanArrival mixed forms: %v", got)
	}
	if got := spec.Axes.MobilityPeriod.Values; len(got) != 3 || got[0] != 50*time.Millisecond || got[2] != 150*time.Millisecond {
		t.Fatalf("mobilityPeriod range: %v", got)
	}
	if spec.Axes.Seed.Count != 3 {
		t.Fatalf("seed count: %+v", spec.Axes.Seed)
	}
	if len(spec.Axes.Workload) != 0 {
		t.Fatalf("workload axis should be empty: %v", spec.Axes.Workload)
	}
}

// TestParseSpecRejects pins each decoder error's whole text: the enum
// names' codec, the list/range axis decoders and the strict field checks.
func TestParseSpecRejects(t *testing.T) {
	const pre = "campaign: parse spec: "
	cases := []struct{ name, in, wantErr string }{
		{"no name", `{"base":{}}`, "campaign: spec has no name"},
		{"unknown top-level field", `{"name":"x","axess":{}}`, pre + `json: unknown field "axess"`},
		{"unknown axis", `{"name":"x","axes":{"warpFactor":[9]}}`, pre + `json: unknown field "warpFactor"`},
		{"typoed range key", `{"name":"x","axes":{"nodes":{"from":1,"to":5,"setp":2}}}`, pre + `campaign: int axis: json: unknown field "setp"`},
		{"int list of strings", `{"name":"x","axes":{"nodes":["x"]}}`, pre + "json: cannot unmarshal string into Go struct field Axes.axes.nodes of type int"},
		{"descending int range", `{"name":"x","axes":{"nodes":{"from":10,"to":5}}}`, pre + "campaign: int axis range [10, 5] is empty"},
		{"negative int step", `{"name":"x","axes":{"nodes":{"from":1,"to":5,"step":-2}}}`, pre + "campaign: int axis step -2 must be positive"},
		{"zero float step", `{"name":"x","axes":{"zoneRadius":{"from":5,"to":10,"step":0}}}`, pre + "campaign: float axis step 0 must be positive"},
		{"descending float range", `{"name":"x","axes":{"zoneRadius":{"from":10,"to":5,"step":1}}}`, pre + "campaign: float axis range [10, 5] is empty"},
		{"bad duration", `{"name":"x","axes":{"drain":["eleventy"]}}`, pre + `experiment: bad duration "eleventy": time: invalid duration "eleventy"`},
		{"duration range without step", `{"name":"x","axes":{"drain":{"from":"1s","to":"3s"}}}`, pre + "campaign: duration axis step 0s must be positive"},
		{"negative duration step", `{"name":"x","axes":{"drain":{"from":"1s","to":"3s","step":"-1s"}}}`, pre + "campaign: duration axis step -1s must be positive"},
		{"descending duration range", `{"name":"x","axes":{"drain":{"from":"3s","to":"1s","step":"1s"}}}`, pre + "campaign: duration axis range [3s, 1s] is empty"},
		{"duration bound of the wrong type", `{"name":"x","axes":{"drain":{"from":true,"to":"1s","step":"1s"}}}`, pre + `campaign: duration axis: experiment: duration must be a string like "2.5ms" or integer nanoseconds: json: cannot unmarshal bool into Go value of type int64`},
		{"seed count plus range", `{"name":"x","axes":{"seed":{"count":2,"from":1,"to":3}}}`, pre + "campaign: seed axis: count excludes from/to/step"},
		{"seed count plus step", `{"name":"x","axes":{"seed":{"count":2,"step":1}}}`, pre + "campaign: seed axis: count excludes from/to/step"},
		{"negative seed count", `{"name":"x","axes":{"seed":{"count":-1}}}`, pre + "campaign: seed axis count -1 must be positive"},
		{"zero seed count", `{"name":"x","axes":{"seed":{"count":0}}}`, pre + "campaign: seed axis needs either count or from/to"},
		{"negative seed step", `{"name":"x","axes":{"seed":{"from":1,"to":5,"step":-1}}}`, pre + "campaign: seed axis step -1 must be positive"},
		{"descending seed range", `{"name":"x","axes":{"seed":{"from":9,"to":1}}}`, pre + "campaign: seed axis range [9, 1] is empty"},
		{"typoed seed key", `{"name":"x","axes":{"seed":{"cnt":2}}}`, pre + `campaign: seed axis: json: unknown field "cnt"`},
		{"huge int range", `{"name":"x","axes":{"nodes":{"from":1,"to":200000000}}}`, pre + "campaign: int axis: range expands to 200000000 values (max 1000000)"},
		{"huge float range", `{"name":"x","axes":{"zoneRadius":{"from":0,"to":1e12,"step":0.5}}}`, pre + "campaign: float axis: range expands to over 1000000 values (max 1000000)"},
		{"huge duration range", `{"name":"x","axes":{"drain":{"from":"0s","to":"2540400h","step":"1ns"}}}`, pre + "campaign: duration axis: range expands to 9145440000000000001 values (max 1000000)"},
		{"huge seed range", `{"name":"x","axes":{"seed":{"from":0,"to":9223372036854775807}}}`, pre + "campaign: seed axis: range expands to 9223372036854775808 values (max 1000000)"},
		{"huge seed count", `{"name":"x","axes":{"seed":{"count":200000000}}}`, pre + "campaign: seed axis count 200000000 exceeds 1000000"},
		{"int range missing from", `{"name":"x","axes":{"nodes":{"to":8}}}`, pre + "campaign: int axis range needs both from and to"},
		{"int range empty object", `{"name":"x","axes":{"packetsPerNode":{}}}`, pre + "campaign: int axis range needs both from and to"},
		{"float range missing to", `{"name":"x","axes":{"zoneRadius":{"from":5,"step":5}}}`, pre + "campaign: float axis range needs both from and to"},
		{"duration range missing from", `{"name":"x","axes":{"drain":{"to":"3s","step":"1s"}}}`, pre + "campaign: duration axis range needs both from and to"},
		{"seed missing bounds", `{"name":"x","axes":{"seed":{"step":2}}}`, pre + "campaign: seed axis needs either count or from/to"},
		{"unknown scenario field", `{"name":"x","base":{"nodez":25}}`, pre + `experiment: bad scenario: json: unknown field "nodez"`},
		{"unknown protocol in axis", `{"name":"x","axes":{"protocol":["smps"]}}`, pre + `experiment: unknown protocol "smps" (want spms | spin | flood)`},
		{"fractional protocol in axis", `{"name":"x","axes":{"protocol":[1.5]}}`, pre + "json: cannot unmarshal number 1.5 into Go struct field Axes.axes.protocol of type int"},
		{"unknown workload in axis", `{"name":"x","axes":{"workload":["mesh"]}}`, pre + `experiment: unknown workload "mesh" (want all-to-all | cluster)`},
		{"unknown placement in axis", `{"name":"x","axes":{"placement":["hexgrid"]}}`, pre + `experiment: unknown placement "hexgrid" (want grid | uniform | chain | clustered)`},
		{"unknown failure model in axis", `{"name":"x","axes":{"failureModel":["meteor"]}}`, pre + `fault: unknown failure model "meteor" (want transient | crash | burst)`},
		{"unknown mobility model in axis", `{"name":"x","axes":{"mobilityModel":["brownian"]}}`, pre + `experiment: unknown mobility model "brownian" (want relocate | waypoint)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted %s", tc.in)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("err = %v\nwant %s", err, tc.wantErr)
			}
		})
	}
}

// TestExpandNamesUnnamedEnumValues checks that an enum axis value given
// in its numeric form, with no name, fails expansion under a label that
// still identifies it.
func TestExpandNamesUnnamedEnumValues(t *testing.T) {
	cases := []struct{ axes, wantErr string }{
		{`{"protocol":[7]}`, `campaign "x": point 0 (protocol=protocol(7)): experiment: unknown protocol 7`},
		{`{"workload":[9]}`, `campaign "x": point 0 (workload=WorkloadKind(9)): experiment: unknown workload 9`},
		{`{"placement":["chain",9]}`, `campaign "x": point 1 (placement=PlacementKind(9)): experiment: unknown placement 9`},
		{`{"failureModel":[7]}`, `campaign "x": point 0 (failureModel=Model(7)): experiment: unknown failure model 7`},
		{`{"mobilityModel":[5]}`, `campaign "x": point 0 (mobilityModel=MobilityKind(5)): experiment: unknown mobility model 5`},
	}
	for _, tc := range cases {
		spec := specFromJSON(t, `{"name":"x",
			"base":{"protocol":"spms","workload":"all-to-all","nodes":25,"zoneRadius":15,"seed":1},
			"axes":`+tc.axes+`}`)
		_, err := Expand(spec)
		if err == nil || err.Error() != tc.wantErr {
			t.Errorf("Expand(%s) = %v\nwant %s", tc.axes, err, tc.wantErr)
		}
	}
}

// TestEnumAxisSpellings checks that every accepted spelling of an enum
// axis value decodes — aliases, any case, surrounding space, the numeric
// form, and null for the zero value — and that each point is labeled with
// the value's written name.
func TestEnumAxisSpellings(t *testing.T) {
	c, err := Expand(specFromJSON(t, `{"name":"x",
		"base":{"protocol":"spms","workload":"all-to-all","nodes":25,"zoneRadius":15,"seed":1},
		"axes":{"protocol":["FLOODING"," spin ",1],"workload":["alltoall","Cluster"],
			"placement":["cluster",null],"failureModel":["Crash",2],
			"mobilityModel":["relocation","random-waypoint"]}}`))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	want := [][]string{
		{"flood", "spin", "spms"},
		{"all-to-all", "clustered"},
		{"clustered", "grid"},
		{"crash", "burst"},
		{"relocate", "waypoint"},
	}
	if len(c.AxisNames) != len(want) {
		t.Fatalf("axes %v, want %d", c.AxisNames, len(want))
	}
	for j, name := range c.AxisNames {
		var labels []string
		seen := map[string]bool{}
		for _, p := range c.Points {
			if l := p.Params[j].Value; !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
		if fmt.Sprint(labels) != fmt.Sprint(want[j]) {
			t.Errorf("axis %s labels %v, want %v", name, labels, want[j])
		}
	}
}

// TestParseSpecNullAxis checks JSON null leaves an axis empty (the
// encoding/json convention) rather than erroring or expanding from zero.
func TestParseSpecNullAxis(t *testing.T) {
	in := `{"name":"x","axes":{"nodes":null,"zoneRadius":null,"drain":null,"seed":null}}`
	spec, err := ParseSpec(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(spec.Axes.Nodes.Values) != 0 || len(spec.Axes.ZoneRadius.Values) != 0 ||
		len(spec.Axes.Drain.Values) != 0 || len(spec.Axes.Seed.Values) != 0 || spec.Axes.Seed.Count != 0 {
		t.Fatalf("null axes not empty: %+v", spec.Axes)
	}
}

func TestFloatRangeIncludesUpperBound(t *testing.T) {
	in := `{"name":"x","axes":{"zoneRadius":{"from":0.1,"to":0.3,"step":0.1}}}`
	spec, err := ParseSpec(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	got := spec.Axes.ZoneRadius.Values
	if len(got) != 3 {
		t.Fatalf("0.1..0.3 step 0.1 expanded to %v, want 3 values (upper bound kept despite float rounding)", got)
	}
}

// TestFloatRangeEndpointEpsilon is the regression suite for the range
// epsilon: it must be relative to the endpoint magnitudes (ulp(to) can
// rival the step on large-magnitude grids, where the old absolute 1e-9
// silently dropped `to`) while neither dropping nor inventing values on
// from-zero and 0.1-step grids.
func TestFloatRangeEndpointEpsilon(t *testing.T) {
	cases := []struct {
		name           string
		from, to, step float64
		want           int     // value count
		last           float64 // expected last value
		lastTol        float64 // absolute tolerance on the last value
	}{
		// ulp(1e9) ≈ 1.2e-7, so (to-from)/step lands at 2.99999952…: far
		// below the old absolute epsilon's reach, and `to` was dropped.
		{"large magnitude 0.1-step", 1e9, 1e9 + 0.3, 0.1, 4, 1e9 + 0.3, 1e-6},
		{"large magnitude mid-scale", 12345678.9, 12345679.2, 0.1, 4, 12345679.2, 1e-6},
		{"from zero 0.1-step", 0, 0.7, 0.1, 8, 0.7, 1e-12},
		{"from zero exact", 0, 30, 5, 7, 30, 0},
		{"non-multiple span keeps floor", 0, 0.65, 0.1, 7, 0.6, 1e-12},
		{"large magnitude non-multiple", 1e9, 1e9 + 0.35, 0.1, 4, 1e9 + 0.3, 1e-6},
		// At 1e12 the magnitude-scaled tolerance is ~0.008 steps; a genuine
		// 0.8-step remainder must still floor, not round up past `to`.
		{"huge magnitude keeps floor", 1e12, 1e12 + 0.38, 0.1, 4, 1e12 + 0.3, 1e-3},
		{"huge magnitude endpoint kept", 1e12, 1e12 + 0.3, 0.1, 4, 1e12 + 0.3, 1e-3},
		{"single value", 2.5, 2.5, 1, 1, 2.5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var a FloatAxis
			in := fmt.Sprintf(`{"from":%.17g,"to":%.17g,"step":%.17g}`, tc.from, tc.to, tc.step)
			if err := a.UnmarshalJSON([]byte(in)); err != nil {
				t.Fatalf("UnmarshalJSON(%s): %v", in, err)
			}
			if len(a.Values) != tc.want {
				t.Fatalf("%s expanded to %d values %v, want %d", in, len(a.Values), a.Values, tc.want)
			}
			last := a.Values[len(a.Values)-1]
			if math.Abs(last-tc.last) > tc.lastTol {
				t.Fatalf("%s last value %v, want %v (±%g)", in, last, tc.last, tc.lastTol)
			}
		})
	}
}
