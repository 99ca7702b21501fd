package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/stats"
)

// stubRun tags each result with its scenario's node count; no simulation.
func stubRun(sc experiment.Scenario) (experiment.Result, error) {
	return experiment.Result{Items: sc.Nodes, EnergyPerPacket: float64(sc.Seed)}, nil
}

// gridSpec is a 2×3×2 grid used by the runner tests.
func gridSpec(t *testing.T) Spec {
	return specFromJSON(t, `{
		"name": "grid",
		"base": {"workload": "all-to-all", "zoneRadius": 20, "seed": 1},
		"axes": {
			"protocol": ["spms", "spin"],
			"nodes": [25, 49, 100],
			"seed": {"count": 2}
		}
	}`)
}

// TestRunStreamsInOrder is the ordered-streaming contract: at every pool
// size — default, serial, and more workers than points — every sink
// observes each point exactly once, strictly in index order, with the
// result Run returns for it.
func TestRunStreamsInOrder(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for _, workers := range []int{0, 1, 2, 8, 64} {
		mem := &MemorySink{}
		results, err := c.Run(RunOptions{Workers: workers, Sinks: []Sink{mem}, Run: stubRun})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(c.Points) || len(mem.Points) != len(c.Points) {
			t.Fatalf("workers=%d: %d results, %d streamed, want %d", workers, len(results), len(mem.Points), len(c.Points))
		}
		if !mem.Closed {
			t.Fatalf("workers=%d: sink not closed", workers)
		}
		for i, pr := range mem.Points {
			if pr.Point.Index != i {
				t.Fatalf("workers=%d: streamed point %d has index %d — sink saw out-of-order delivery", workers, i, pr.Point.Index)
			}
			if len(results[i]) != 1 || pr.Result != results[i][0] {
				t.Fatalf("workers=%d: streamed result %d diverges from Execute's", workers, i)
			}
		}
	}
}

// TestRunSinkFormats golden-checks the first JSONL record and CSV rows of
// a stub campaign.
func TestRunSinkFormats(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var jsonl, csvBuf bytes.Buffer
	_, err = c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&jsonl), NewCSVSink(&csvBuf)}, Run: stubRun})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	lines := strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n")
	if len(lines) != len(c.Points) {
		t.Fatalf("%d JSONL lines, want %d", len(lines), len(c.Points))
	}
	var rec struct {
		Campaign string            `json:"campaign"`
		Index    int               `json:"index"`
		Params   map[string]string `json:"params"`
		Scenario json.RawMessage   `json:"scenario"`
		Result   experiment.Result `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("JSONL line 0: %v\n%s", err, lines[0])
	}
	if rec.Campaign != "grid" || rec.Index != 0 {
		t.Fatalf("JSONL tagging: %+v", rec)
	}
	if rec.Params["protocol"] != "spms" || rec.Params["nodes"] != "25" || rec.Params["seed"] != "1" {
		t.Fatalf("JSONL params: %v", rec.Params)
	}
	if rec.Result.Items != 25 {
		t.Fatalf("JSONL result: %+v", rec.Result)
	}
	// Params preserve axis order on the wire (maps would sort).
	if !strings.Contains(lines[0], `"params":{"protocol":"spms","nodes":"25","seed":"1"}`) {
		t.Fatalf("JSONL param order lost: %s", lines[0])
	}

	csvLines := strings.Split(strings.TrimRight(csvBuf.String(), "\n"), "\n")
	if len(csvLines) != 1+len(c.Points) {
		t.Fatalf("%d CSV lines, want header + %d", len(csvLines), len(c.Points))
	}
	if !strings.HasPrefix(csvLines[0], "index,protocol,nodes,seed,totalEnergy_uJ,") {
		t.Fatalf("CSV header: %s", csvLines[0])
	}
	if !strings.HasPrefix(csvLines[1], "0,spms,25,1,") {
		t.Fatalf("CSV row 0: %s", csvLines[1])
	}
}

// TestRunSinkErrorAborts checks a failing sink surfaces its error AND
// stops the pool claiming trials: with a serial pool, no point beyond the
// failing delivery may simulate (a dead sink must not burn hours of
// grid). In parallel, every trial after the first is held until the sink
// has failed, so any claim past the one already in flight would be
// provably post-abort.
func TestRunSinkErrorAborts(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var runs int
	counting := func(sc experiment.Scenario) (experiment.Result, error) {
		runs++
		return stubRun(sc)
	}
	boom := &failingSink{failAt: 3}
	_, err = c.Run(RunOptions{Workers: 1, Sinks: []Sink{boom}, Run: counting})
	if err == nil || !strings.Contains(err.Error(), "sink boom") {
		t.Fatalf("err = %v, want sink error", err)
	}
	if runs != 4 {
		t.Fatalf("%d points simulated after the sink died at delivery 4, want exactly 4", runs)
	}

	c = nodesCampaign(t, 24, 1)
	aborted := make(chan struct{})
	var gated atomic.Int64
	stub := func(sc experiment.Scenario) (experiment.Result, error) {
		gated.Add(1)
		if sc.Nodes > 10 {
			<-aborted
		}
		return stubRun(sc)
	}
	sink := &funcSink{point: func(Point) error {
		close(aborted)
		return fmt.Errorf("sink boom")
	}}
	_, err = c.Run(RunOptions{Workers: 2, Sinks: []Sink{sink}, Run: stub})
	if err == nil || !strings.Contains(err.Error(), "sink boom") {
		t.Fatalf("workers=2: err = %v, want sink error", err)
	}
	if got := gated.Load(); got < 1 || got > 2 {
		t.Fatalf("workers=2: %d trials ran after the sink died, want 1 or 2 — workers kept claiming", got)
	}
	if !sink.Aborted || sink.Closed {
		t.Fatalf("workers=2: sink aborted=%v closed=%v, want aborted only", sink.Aborted, sink.Closed)
	}
}

// TestRunBeginFailureAbortsBegunSinks checks the failure-path contract:
// when sink i's Begin fails, Abort — flush, never finalize — is called on
// every begun-or-failed sink (the earlier sinks AND the failing one,
// whose Begin may have buffered a partial CSV header), Close on none, and
// unreached sinks are untouched.
func TestRunBeginFailureAbortsBegunSinks(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	mem := &MemorySink{}
	failing := &beginFailingSink{}
	after := &MemorySink{}
	_, err = c.Run(RunOptions{Sinks: []Sink{mem, failing, after}, Run: stubRun})
	if err == nil || !strings.Contains(err.Error(), "begin boom") {
		t.Fatalf("err = %v, want begin error", err)
	}
	if !mem.Aborted || mem.Closed {
		t.Fatalf("first sink aborted=%v closed=%v after second sink's Begin failed, want aborted only", mem.Aborted, mem.Closed)
	}
	if !failing.aborted {
		t.Fatal("failing sink not aborted — its buffered Begin output is never flushed")
	}
	if after.Aborted || after.Closed {
		t.Fatal("unreached sink touched despite its Begin never running")
	}
	if len(mem.Points) != 0 {
		t.Fatalf("points streamed despite Begin failure: %d", len(mem.Points))
	}
}

// TestRunCSVBeginFailureFlushesHeader is the end-to-end shape of the sink
// leak: a CSV sink whose Begin succeeds buffers its header; if a later
// sink's Begin fails, the header must still reach the writer.
func TestRunCSVBeginFailureFlushesHeader(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var buf bytes.Buffer
	_, err = c.Run(RunOptions{Sinks: []Sink{NewCSVSink(&buf), &beginFailingSink{}}, Run: stubRun})
	if err == nil || !strings.Contains(err.Error(), "begin boom") {
		t.Fatalf("err = %v, want begin error", err)
	}
	if !strings.HasPrefix(buf.String(), "index,protocol,nodes,seed,") {
		t.Fatalf("CSV header not flushed on Begin failure; got %q", buf.String())
	}
}

type beginFailingSink struct{ aborted bool }

func (s *beginFailingSink) Begin(*Campaign) error                { return fmt.Errorf("begin boom") }
func (s *beginFailingSink) Point(Point, experiment.Result) error { return nil }
func (s *beginFailingSink) Aggregate(Point, Aggregate) error     { return nil }
func (s *beginFailingSink) Close() error                         { return nil }
func (s *beginFailingSink) Abort() error                         { s.aborted = true; return nil }

type failingSink struct {
	failAt int
	seen   int
}

func (s *failingSink) Begin(*Campaign) error { return nil }
func (s *failingSink) Point(Point, experiment.Result) error {
	s.seen++
	if s.seen > s.failAt {
		return fmt.Errorf("sink boom")
	}
	return nil
}
func (s *failingSink) Aggregate(p Point, agg Aggregate) error { return s.Point(p, experiment.Result{}) }
func (s *failingSink) Close() error                           { return nil }
func (s *failingSink) Abort() error                           { return nil }

// replicatedSpec is gridSpec plus three seed-derived replications per
// point.
func replicatedSpec(t *testing.T) Spec {
	return specFromJSON(t, `{
		"name": "replicated",
		"base": {"workload": "all-to-all", "zoneRadius": 20, "seed": 1},
		"replications": 3,
		"axes": {
			"protocol": ["spms", "spin"],
			"nodes": [25, 49]
		}
	}`)
}

// TestRunReplicationsAggregates checks the aggregate streaming path: a
// replicated campaign delivers one Aggregate per point (never Point),
// with per-metric statistics over the seed-derived replicate vector.
func TestRunReplicationsAggregates(t *testing.T) {
	c, err := Expand(replicatedSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if c.Replications() != 3 {
		t.Fatalf("Replications() = %d, want 3", c.Replications())
	}
	for _, workers := range []int{0, 1, 2, 8} {
		mem := &MemorySink{}
		results, err := c.Run(RunOptions{Workers: workers, Sinks: []Sink{mem}, Run: stubRun})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(mem.Points) != 0 {
			t.Fatalf("workers=%d: %d per-point records on a replicated campaign", workers, len(mem.Points))
		}
		if len(mem.Aggregates) != len(c.Points) {
			t.Fatalf("workers=%d: %d aggregates, want %d", workers, len(mem.Aggregates), len(c.Points))
		}
		names := experiment.ResultMetricNames()
		for i, pa := range mem.Aggregates {
			if pa.Point.Index != i {
				t.Fatalf("workers=%d: aggregate %d has index %d — out-of-order delivery", workers, i, pa.Point.Index)
			}
			agg := pa.Aggregate
			if agg.Replications != 3 || len(agg.Results) != 3 || len(agg.Metrics) != len(names) {
				t.Fatalf("workers=%d: aggregate shape: %+v", workers, agg)
			}
			// stubRun tags EnergyPerPacket with the trial seed, so the mean
			// must equal the mean of the three derived seeds.
			base := pa.Point.Scenario.Seed
			want := (float64(experiment.ReplicateSeed(base, 0)) +
				float64(experiment.ReplicateSeed(base, 1)) +
				float64(experiment.ReplicateSeed(base, 2))) / 3
			if got := agg.Metrics[1].Mean; got != want {
				t.Fatalf("workers=%d: point %d energyPerPacket mean = %v, want %v", workers, i, got, want)
			}
			if agg.Metrics[1].N != 3 || agg.Metrics[1].Std == 0 || agg.Metrics[1].CI95 == 0 {
				t.Fatalf("workers=%d: point %d summary not populated: %+v", workers, i, agg.Metrics[1])
			}
			for r := range agg.Results {
				if agg.Results[r] != results[i][r] {
					t.Fatalf("workers=%d: aggregate replicate vector diverges from Run's results", workers)
				}
				if got, want := results[i][r].EnergyPerPacket, float64(experiment.ReplicateSeed(base, r)); got != want {
					t.Fatalf("workers=%d: point %d replicate %d ran seed %v, want %v — out of replicate order", workers, i, r, got, want)
				}
			}
		}
	}
}

// TestRunReplicatedSinkDeterminism checks the acceptance contract on the
// serialized formats with a deterministic stub: JSONL and CSV aggregate
// output is byte-identical at workers 1 and 8, the CSV header carries the
// mean/std/ci95 triples, and per-replicate records appear only behind the
// flag.
func TestRunReplicatedSinkDeterminism(t *testing.T) {
	run := func(workers int, perReplicate bool) (string, string) {
		c, err := Expand(replicatedSpec(t))
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		var jsonl, csvBuf bytes.Buffer
		js := NewJSONLSink(&jsonl)
		js.PerReplicate = perReplicate
		if _, err := c.Run(RunOptions{Workers: workers, Sinks: []Sink{js, NewCSVSink(&csvBuf)}, Run: stubRun}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return jsonl.String(), csvBuf.String()
	}
	j1, c1 := run(1, false)
	j8, c8 := run(8, false)
	if j1 != j8 || c1 != c8 {
		t.Fatalf("replicated output diverged between workers=1 and workers=8:\n--- jsonl serial\n%s\n--- jsonl parallel\n%s\n--- csv serial\n%s\n--- csv parallel\n%s", j1, j8, c1, c8)
	}

	csvLines := strings.Split(strings.TrimRight(c1, "\n"), "\n")
	if !strings.HasPrefix(csvLines[0], "index,protocol,nodes,replications,totalEnergy_uJ_mean,totalEnergy_uJ_std,totalEnergy_uJ_ci95,") {
		t.Fatalf("aggregate CSV header: %s", csvLines[0])
	}
	if len(csvLines) != 5 { // header + 4 points
		t.Fatalf("%d aggregate CSV lines, want 5:\n%s", len(csvLines), c1)
	}

	var rec struct {
		Index        int                      `json:"index"`
		Replications int                      `json:"replications"`
		Metrics      map[string]stats.Summary `json:"metrics"`
	}
	lines := strings.Split(strings.TrimRight(j1, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d aggregate JSONL lines, want 4:\n%s", len(lines), j1)
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("aggregate JSONL: %v\n%s", err, lines[0])
	}
	m := rec.Metrics["energyPerPacket_uJ"]
	if rec.Replications != 3 || m.N != 3 || m.Std == 0 || m.CI95 == 0 || m.Min >= m.Max {
		t.Fatalf("aggregate JSONL record not populated: %+v", rec)
	}
	// Metric keys stream in canonical order, not alphabetical.
	if !strings.Contains(lines[0], `"metrics":{"totalEnergy_uJ":`) {
		t.Fatalf("metric order lost: %s", lines[0])
	}

	jr, _ := run(1, true)
	rlines := strings.Split(strings.TrimRight(jr, "\n"), "\n")
	if len(rlines) != 4*4 { // 3 replicate records + 1 aggregate, per point
		t.Fatalf("%d per-replicate JSONL lines, want 16:\n%s", len(rlines), jr)
	}
	var rep struct {
		Replicate int             `json:"replicate"`
		Scenario  json.RawMessage `json:"scenario"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(rlines[1]), &rep); err != nil || rep.Replicate != 1 {
		t.Fatalf("per-replicate record: err=%v rec=%+v\n%s", err, rep, rlines[1])
	}
	wantSeed := fmt.Sprintf(`"seed":%d`, experiment.ReplicateSeed(1, 1))
	if !strings.Contains(string(rep.Scenario), wantSeed) {
		t.Fatalf("per-replicate scenario lacks derived seed %s: %s", wantSeed, rep.Scenario)
	}
}

// TestRunReplicationsOneByteIdentical pins the compatibility half of the
// acceptance criteria: an explicit replications: 1 produces byte-identical
// JSONL and CSV to the same spec with replications omitted (the pre-PR
// record format).
func TestRunReplicationsOneByteIdentical(t *testing.T) {
	specJSON := func(reps string) string {
		return `{
			"name": "grid",
			"base": {"workload": "all-to-all", "zoneRadius": 20, "seed": 1},
			` + reps + `
			"axes": {"protocol": ["spms", "spin"], "nodes": [25, 49, 100], "seed": {"count": 2}}
		}`
	}
	run := func(doc string) (string, string) {
		c, err := Expand(specFromJSON(t, doc))
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		var jsonl, csvBuf bytes.Buffer
		if _, err := c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&jsonl), NewCSVSink(&csvBuf)}, Run: stubRun}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return jsonl.String(), csvBuf.String()
	}
	jNone, cNone := run(specJSON(""))
	jOne, cOne := run(specJSON(`"replications": 1,`))
	if jNone != jOne {
		t.Fatalf("replications:1 JSONL diverged from the unreplicated form:\n--- omitted\n%s\n--- replications:1\n%s", jNone, jOne)
	}
	if cNone != cOne {
		t.Fatalf("replications:1 CSV diverged from the unreplicated form:\n--- omitted\n%s\n--- replications:1\n%s", cNone, cOne)
	}
	if strings.Contains(jOne, "replications") {
		t.Fatalf("replications:1 leaked into the wire form:\n%s", jOne)
	}
}

// TestCampaignParallelDeterminism is the subsystem's acceptance contract,
// mirroring TestSweepParallelDeterminism one layer up: running the same
// expanded spec through real simulations at workers=1 and workers=NumCPU
// yields byte-identical JSONL and CSV streams.
func TestCampaignParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	spec := specFromJSON(t, `{
		"name": "determinism",
		"base": {"workload": "all-to-all", "packetsPerNode": 1, "zoneRadius": 15, "drain": "1500ms", "seed": 1},
		"axes": {
			"protocol": ["spms", "spin"],
			"nodes": [16, 25],
			"failures": [false, true]
		}
	}`)
	run := func(workers int) (string, string) {
		c, err := Expand(spec)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		var jsonl, csvBuf bytes.Buffer
		if _, err := c.Run(RunOptions{Workers: workers, Sinks: []Sink{NewJSONLSink(&jsonl), NewCSVSink(&csvBuf)}}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return jsonl.String(), csvBuf.String()
	}
	j1, c1 := run(1)
	jn, cn := run(runtime.NumCPU())
	if j1 != jn {
		t.Fatalf("JSONL diverged between workers=1 and workers=%d:\n--- serial\n%s\n--- parallel\n%s", runtime.NumCPU(), j1, jn)
	}
	if c1 != cn {
		t.Fatalf("CSV diverged between workers=1 and workers=%d:\n--- serial\n%s\n--- parallel\n%s", runtime.NumCPU(), c1, cn)
	}
	if len(strings.Split(strings.TrimRight(j1, "\n"), "\n")) != 8 {
		t.Fatalf("unexpected JSONL line count:\n%s", j1)
	}
}

// TestCampaignReplicatedParallelDeterminism is the replicated acceptance
// contract end to end with real simulations: a replications: 5 spec
// produces byte-identical JSONL and CSV aggregate streams at workers=1
// and workers=8, with the statistics fields populated.
func TestCampaignReplicatedParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	spec := specFromJSON(t, `{
		"name": "replicated-determinism",
		"base": {"workload": "all-to-all", "packetsPerNode": 1, "zoneRadius": 15, "drain": "1500ms", "seed": 1},
		"replications": 5,
		"axes": {"protocol": ["spms", "spin"], "nodes": [16]}
	}`)
	run := func(workers int) (string, string) {
		c, err := Expand(spec)
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		var jsonl, csvBuf bytes.Buffer
		if _, err := c.Run(RunOptions{Workers: workers, Sinks: []Sink{NewJSONLSink(&jsonl), NewCSVSink(&csvBuf)}}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return jsonl.String(), csvBuf.String()
	}
	j1, c1 := run(1)
	j8, c8 := run(8)
	if j1 != j8 {
		t.Fatalf("replicated JSONL diverged between workers=1 and workers=8:\n--- serial\n%s\n--- parallel\n%s", j1, j8)
	}
	if c1 != c8 {
		t.Fatalf("replicated CSV diverged between workers=1 and workers=8:\n--- serial\n%s\n--- parallel\n%s", c1, c8)
	}
	var rec struct {
		Replications int                      `json:"replications"`
		Metrics      map[string]stats.Summary `json:"metrics"`
	}
	line := strings.Split(j1, "\n")[0]
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("aggregate record: %v\n%s", err, line)
	}
	m := rec.Metrics["energyPerPacket_uJ"]
	if rec.Replications != 5 || m.N != 5 || m.Mean <= 0 || m.Std <= 0 || m.CI95 <= 0 {
		t.Fatalf("real-run statistics not populated: %+v", rec)
	}
}

// TestRunProgressTracking wires a CampaignProgress through RunOptions and
// checks the telemetry a finished campaign reports: every point done, none
// still running, and at least one trial started per point — while the sink
// stream stays byte-identical to an untracked run.
func TestRunProgressTracking(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var plain bytes.Buffer
	if _, err := c.Run(RunOptions{Workers: 4, Run: stubRun, Sinks: []Sink{NewJSONLSink(&plain)}}); err != nil {
		t.Fatalf("Run: %v", err)
	}

	progress := obs.NewCampaignProgress(c.Spec.Name, len(c.Points))
	var tracked bytes.Buffer
	if _, err := c.Run(RunOptions{
		Workers:  4,
		Run:      stubRun,
		Sinks:    []Sink{NewJSONLSink(&tracked)},
		Progress: progress,
	}); err != nil {
		t.Fatalf("Run with progress: %v", err)
	}

	s := progress.Snapshot()
	if s.Done != len(c.Points) {
		t.Fatalf("done = %d, want %d", s.Done, len(c.Points))
	}
	if len(s.Running) != 0 {
		t.Fatalf("running after completion: %v", s.Running)
	}
	if s.TrialsStarted < len(c.Points) {
		t.Fatalf("trialsStarted = %d, want >= %d", s.TrialsStarted, len(c.Points))
	}
	if s.Percent != 100 {
		t.Fatalf("percent = %v, want 100", s.Percent)
	}
	if !bytes.Equal(plain.Bytes(), tracked.Bytes()) {
		t.Fatal("progress tracking changed the sink stream")
	}
}

// TestRunProgressReplicated checks the replicated path: trials exceed
// points (one start per replicate) and completion still means every point.
func TestRunProgressReplicated(t *testing.T) {
	spec := gridSpec(t)
	spec.Replications = 3
	c, err := Expand(spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	progress := obs.NewCampaignProgress(c.Spec.Name, len(c.Points))
	if _, err := c.Run(RunOptions{Workers: 4, Run: stubRun, Progress: progress}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := progress.Snapshot()
	if s.Done != len(c.Points) || len(s.Running) != 0 {
		t.Fatalf("after replicated run: %+v", s)
	}
	if want := 3 * len(c.Points); s.TrialsStarted != want {
		t.Fatalf("trialsStarted = %d, want %d (one per replicate)", s.TrialsStarted, want)
	}
}
