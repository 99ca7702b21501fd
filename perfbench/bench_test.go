package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// runTiny runs the tiny variant of one workload.
func runTiny(t *testing.T, name string, seed int64, refs map[string]string, traced bool) (result, string) {
	t.Helper()
	cfg := &config{seed: seed, seconds: 0.01, workDir: t.TempDir(), spansDir: t.TempDir(), refs: refs}
	var out bytes.Buffer
	res, err := run(workloads(true)[name], name, cfg, traced, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return res, out.String()
}

// digestOf extracts the output digest a run printed.
func digestOf(t *testing.T, report string) string {
	t.Helper()
	m := regexp.MustCompile(`output digest ([0-9a-f]{64})`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no output digest in report:\n%s", report)
	}
	return m[1]
}

// checkMetrics asserts the result carries exactly the listed metrics with
// their units, and that the report prints each by name with its unit.
func checkMetrics(t *testing.T, res result, report string, want []struct{ name, unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
		}
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `$`).MatchString(report) {
			t.Errorf("report does not print %s with unit %s", m.name, m.unit)
		}
	}
	if !strings.Contains(report, "failed_ratio") {
		t.Error("report does not print failed_ratio")
	}
}

func TestTinyWorkloads(t *testing.T) {
	names := make([]string, 0, 4)
	for name := range workloads(true) {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			// Record the tiny variant's digest, then check against it.
			_, report := runTiny(t, name, defaultSeed, nil, false)
			refs := map[string]string{name: digestOf(t, report)}

			res, report := runTiny(t, name, defaultSeed, refs, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: %+v\n%s", res, report)
			}
			checkMetrics(t, res, report, endToEnd)
			for _, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metrics must be positive: %+v", res.Metrics)
				}
			}

			res, report = runTiny(t, name, defaultSeed, refs, true)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: %+v\n%s", res, report)
			}
			checkMetrics(t, res, report, perLayer)

			// A corrupted reference digest fails every op it covers.
			bad := map[string]string{name: strings.Repeat("0", 64)}
			res, report = runTiny(t, name, defaultSeed, bad, false)
			if res.Correct || res.Failed == 0 || !regexp.MustCompile(`failed_ratio +(0\.\d*[1-9]|1) `).MatchString(report) {
				t.Fatalf("corrupted digest went unnoticed: %+v\n%s", res, report)
			}

			// Another seed needs no reference: the other checks still run
			// and its digest is printed.
			res, report = runTiny(t, name, defaultSeed+1, bad, false)
			if !res.Correct || digestOf(t, report) == refs[name] {
				t.Fatalf("seed %d: %+v\n%s", defaultSeed+1, res, report)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads(false)[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a workload", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads(false)) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads(false)))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, the benchmark prints %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {95, 3.85}, {100, 4}} {
		if got := percentile(xs, c.p); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
}

func TestCheckDeliveries(t *testing.T) {
	ok := []byte(`{"index":0,"result":{"deliveries":3,"expected":3}}` + "\n" + `{"index":1,"result":{"deliveries":2,"expected":3}}` + "\n")
	if err := checkDeliveries(ok); err != nil {
		t.Errorf("deliveries ≤ expected rejected: %v", err)
	}
	over := []byte(`{"index":0,"result":{"deliveries":3,"expected":3}}` + "\n" + `{"index":1,"result":{"deliveries":4,"expected":3}}` + "\n")
	if err := checkDeliveries(over); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Errorf("deliveries > expected: got %v, want an error naming point 1", err)
	}
	if err := checkDeliveries([]byte("{\n")); err == nil {
		t.Error("a torn record passed")
	}
}

func TestHostClock(t *testing.T) {
	var none *hostClock
	if none.sample() != 0 || none.mark() != 0 || none.factor([2]int{1, 1}) != 1 {
		t.Error("a nil host clock must sample nothing and report a factor of 1")
	}

	for _, k := range []kernel{newEventKernel(), newFieldKernel()} {
		if a, b := k.run(), k.run(); a != b || a == 0 {
			t.Errorf("%T is not deterministic: checksums %d and %d", k, a, b)
		}
	}
	h := newHostClock(newEventKernel())
	h.sample()
	if h.mark() != 1 || len(h.slices) == 0 {
		t.Fatalf("a sample left mark %d and %d slices", h.mark(), len(h.slices))
	}
	// Four samples of one slice each, the second of two. Work between
	// marks a and b is scaled by the slices of samples a−1 through b.
	r := h.k.ref()
	h.slices = []time.Duration{r, 2 * r, 2 * r, 4 * r, 8 * r}
	h.ends = []int{1, 3, 4, 5}
	for _, c := range []struct {
		span [2]int
		want float64
	}{
		{[2]int{1, 1}, 1.0 / 2}, // samples 0 and 1: r, 2r, 2r
		{[2]int{2, 2}, 1.0 / 2}, // samples 1 and 2: 2r, 2r, 4r
		{[2]int{1, 3}, 1.0 / 2}, // samples 0 to 3: r, 2r, 2r, 4r, 8r
		{[2]int{3, 3}, 1.0 / 6}, // samples 2 and 3: 4r, 8r
		{[2]int{4, 4}, 1.0 / 8}, // sample 3, none after
		{[2]int{5, 5}, 1},       // nothing sampled
	} {
		if got := h.factor(c.span); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("factor(%v) = %v, want %v", c.span, got, c.want)
		}
	}
}
