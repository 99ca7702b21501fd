package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiment"
	"repro/internal/stats"
)

// The reference encoder: the record structs JSONLSink marshaled whole
// with json.Marshal before it assembled records from parts. Every line
// the sink writes must equal what these write for the same point.

func refParams(ps []Param) json.RawMessage {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(p.Name)
		v, _ := json.Marshal(p.Value)
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes()
}

func refMetrics(sums []stats.Summary) json.RawMessage {
	names := experiment.ResultMetricNames()
	var b bytes.Buffer
	b.WriteByte('{')
	for i, s := range sums {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(names[i])
		v, _ := json.Marshal(s)
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// refLines renders the records of everything sink recorded, as the
// struct encoder wrote them for a campaign named name.
func refLines(t *testing.T, name string, perReplicate bool, sink *MemorySink) []byte {
	t.Helper()
	var out bytes.Buffer
	line := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("reference encoder: %v", err)
		}
		out.Write(append(data, '\n'))
	}
	for _, pr := range sink.Points {
		p := pr.Point
		line(&struct {
			Campaign string              `json:"campaign,omitempty"`
			Index    int                 `json:"index"`
			Params   json.RawMessage     `json:"params"`
			Scenario experiment.Scenario `json:"scenario"`
			Result   experiment.Result   `json:"result"`
		}{name, p.Index, refParams(p.Params), p.Scenario, pr.Result})
	}
	for _, pa := range sink.Aggregates {
		p, agg := pa.Point, pa.Aggregate
		if perReplicate {
			for r, res := range agg.Results {
				line(&struct {
					Campaign  string              `json:"campaign,omitempty"`
					Index     int                 `json:"index"`
					Replicate int                 `json:"replicate"`
					Params    json.RawMessage     `json:"params"`
					Scenario  experiment.Scenario `json:"scenario"`
					Result    experiment.Result   `json:"result"`
				}{name, p.Index, r, refParams(p.Params), experiment.Replicate(p.Scenario, r), res})
			}
		}
		line(&struct {
			Campaign     string              `json:"campaign,omitempty"`
			Index        int                 `json:"index"`
			Params       json.RawMessage     `json:"params"`
			Scenario     experiment.Scenario `json:"scenario"`
			Replications int                 `json:"replications"`
			Metrics      json.RawMessage     `json:"metrics"`
		}{name, p.Index, refParams(p.Params), p.Scenario, agg.Replications, refMetrics(agg.Metrics)})
	}
	return out.Bytes()
}

// carriedSink records every point, with the scenario bytes it arrived
// with.
type carriedSink struct {
	MemorySink
	carried [][]byte
}

func (s *carriedSink) Point(p Point, res experiment.Result) error {
	s.carried = append(s.carried, p.scenarioJSON)
	return s.MemorySink.Point(p, res)
}

func (s *carriedSink) Aggregate(p Point, agg Aggregate) error {
	s.carried = append(s.carried, p.scenarioJSON)
	return s.MemorySink.Aggregate(p, agg)
}

// fakeResult fills every result field from the scenario, with values
// whose shortest float forms have many digits; no simulation runs.
func fakeResult(sc experiment.Scenario) (experiment.Result, error) {
	k := float64(sc.Seed%97) + float64(sc.Nodes)/7
	return experiment.Result{
		TotalEnergy: k * 1234.5678, EnergyPerPacket: k / 3, CtrlEnergy: k / 11,
		MeanDelay: time.Duration(sc.Seed%1000) * 1234567, P95Delay: 3 * time.Millisecond, MaxDelay: time.Duration(sc.Nodes) * time.Millisecond,
		Items: sc.Nodes, Deliveries: sc.Nodes * 7, Expected: sc.Nodes * 8, DeliveryRate: 7.0 / 8,
		Timeouts: uint64(sc.Seed % 13), Failovers: 2, Drops: 3, Duplicates: 4,
		SentADV: 5, SentREQ: 6, SentDATA: uint64(sc.Nodes), DBFRounds: 8, DBFBroadcasts: 9,
		MobilityEvents: 10, FailuresInjected: int(sc.Seed % 5),
	}, nil
}

// oddNames each hold one character class encoding/json escapes in a
// string: HTML's <, > and &, a quote, a backslash, a control character,
// U+2028 and U+2029, and a byte that is not UTF-8.
var oddNames = []string{"a<b", "a>b", "a&b", "a\"b", "a\\b", "a\tb", "a\u2028b", "a\u2029b", "a\xffb"}

// runRecorded runs c into a JSONL sink and a recording sink and returns
// both.
func runRecorded(t *testing.T, c *Campaign, perReplicate bool, cache *checkpoint.Cache) ([]byte, *carriedSink) {
	t.Helper()
	var out bytes.Buffer
	js := NewJSONLSink(&out)
	js.PerReplicate = perReplicate
	rec := &carriedSink{}
	if _, err := c.Run(RunOptions{Workers: 2, Sinks: []Sink{js, rec}, Run: fakeResult, Cache: cache}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.Bytes(), rec
}

// checkLines compares the sink's output with the reference encoder's.
func checkLines(t *testing.T, what string, c *Campaign, perReplicate bool, got []byte, rec *carriedSink) {
	t.Helper()
	want := refLines(t, c.Spec.Name, perReplicate, &rec.MemorySink)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs from the struct encoder's:\n got %s\nwant %s", what, i, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, the struct encoder wrote %d", what, len(gl), len(wl))
}

// TestJSONLRecordsMatchStructEncoder pins the JSONL bytes: for every
// committed spec, unreplicated (Point records) and replicated (Aggregate
// records with PerReplicate records before them), executed, executed
// into a cache and replayed from it, and under names encoding/json must
// escape, every line equals json.Marshal of the record struct. A point
// the cache serves carries the bytes Run hashed, and they equal its
// scenario's MarshalJSON — so over every spec's points WithDefaults is
// idempotent, or Run would not have attached them.
func TestJSONLRecordsMatchStructEncoder(t *testing.T) {
	var specs []string
	for _, dir := range []string{"../../testdata/golden/campaigns", "../../examples/campaigns"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, paths...)
	}
	if len(specs) < 10 {
		t.Fatalf("found %d specs, want the golden and example corpora", len(specs))
	}
	for _, path := range specs {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, reps := range []int{1, 3} {
			spec.Replications = reps
			c, err := Expand(spec)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			perReplicate := reps > 1
			what := func(run string) string {
				return fmt.Sprintf("%s, replications %d, %s, name %q", filepath.Base(path), reps, run, c.Spec.Name)
			}

			got, rec := runRecorded(t, c, perReplicate, nil)
			checkLines(t, what("executed"), c, perReplicate, got, rec)

			cache, err := checkpoint.OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			got, rec = runRecorded(t, c, perReplicate, cache)
			checkLines(t, what("executed into the cache"), c, perReplicate, got, rec)

			for _, name := range append([]string{spec.Name, ""}, oddNames...) {
				c.Spec.Name = name
				got, rec = runRecorded(t, c, perReplicate, cache)
				checkLines(t, what("replayed from the cache"), c, perReplicate, got, rec)
				if len(rec.carried) != len(c.Points) {
					t.Fatalf("%s: %d points streamed, the grid has %d", what("replayed"), len(rec.carried), len(c.Points))
				}
				for i, b := range rec.carried {
					want, err := c.Points[i].Scenario.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(b, want) {
						t.Fatalf("%s: point %d carried %q, its scenario encodes as %q", what("replayed"), i, b, want)
					}
				}
			}
		}
	}
}

// TestHandBuiltPointKeepsItsScenario: a point whose scenario leaves
// defaults unset is hashed (and cached) as its defaulted form, but its
// record shows the scenario as built, so Run hands it to the sinks
// without the canonical bytes.
func TestHandBuiltPointKeepsItsScenario(t *testing.T) {
	sc := experiment.Scenario{Protocol: experiment.SPIN, Workload: experiment.AllToAll, Nodes: 9, ZoneRadius: 20, Seed: 3}
	if sc == sc.WithDefaults() {
		t.Fatal("the scenario must leave defaults unset")
	}
	c := &Campaign{
		Spec:      Spec{Name: "hand-built"},
		AxisNames: []string{"note"},
		Points:    []Point{{Index: 0, Params: []Param{{"note", "<raw>"}}, Scenario: sc}},
	}
	cache, err := checkpoint.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runRecorded(t, c, false, cache)
	got, rec := runRecorded(t, c, false, cache)
	if len(rec.carried) != 1 || rec.carried[0] != nil {
		t.Fatalf("the hand-built point carried %q; want no canonical bytes", rec.carried)
	}
	checkLines(t, "hand-built point", c, false, got, rec)
	if bytes.Contains(got, []byte(`"drain"`)) {
		t.Fatalf("the record gained defaults:\n%s", got)
	}
}

// TestAppendJSONStringMatchesMarshal: the sink's string encoder writes
// what json.Marshal writes, for every byte value between two letters and
// for the runes encoding/json escapes.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	strs := append([]string{"", "plain-ASCII_1.5", "µs", "\u2028\u2029"}, oddNames...)
	for c := 0; c < 256; c++ {
		strs = append(strs, "a"+string([]byte{byte(c)})+"z")
	}
	for _, str := range strs {
		want, err := json.Marshal(str)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("prefix"), str); string(got) != "prefix"+string(want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", str, got[len("prefix"):], want)
		}
	}
}
