// crashresume_test.go proves the tentpole's acceptance contract: a
// campaign interrupted after ANY number of completed points and resumed
// from its journal produces sink output byte-identical to the
// uninterrupted run, re-executing only the missing points; cached points
// replay without re-execution; retried trials rerun the identical seed.
package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// straightRun executes the campaign uninterrupted with stubRun and returns
// its JSONL and CSV bytes — the reference every resumed run must match.
func straightRun(t *testing.T, c *Campaign) (string, string) {
	t.Helper()
	var jsonl, csvBuf bytes.Buffer
	if _, err := c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&jsonl), NewCSVSink(&csvBuf)}, Run: stubRun}); err != nil {
		t.Fatalf("straight run: %v", err)
	}
	return jsonl.String(), csvBuf.String()
}

// TestCrashResumeEquivalence is the property test at the heart of the
// crash-safety contract: for EVERY prefix length k, kill a journaling run
// after k completed points, tear the journal's tail the way a kill
// mid-append would, resume from the journal twice, and byte-compare each
// resumed run's JSONL and CSV against the uninterrupted run.
func TestCrashResumeEquivalence(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	refJ, refC := straightRun(t, c)
	n := len(c.Points)

	for k := 0; k < n; k++ {
		dir := t.TempDir()

		// Interrupted run: the executor closes Cancel as it finishes the
		// k-th point, so exactly k points are journaled (workers=1 — the
		// in-flight point drains, nothing new is claimed).
		cancel := make(chan struct{})
		var ran atomic.Int64
		killing := func(sc experiment.Scenario) (experiment.Result, error) {
			if int(ran.Add(1)) == k {
				close(cancel)
			}
			return stubRun(sc)
		}
		if k == 0 {
			close(cancel) // killed before any point
		}
		mem := &MemorySink{}
		_, err := c.Run(RunOptions{Workers: 1, Sinks: []Sink{mem}, Run: killing, Checkpoint: dir, Cancel: cancel})
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("k=%d: interrupted run err = %v, want ErrCancelled", k, err)
		}
		if !mem.Aborted || mem.Closed {
			t.Fatalf("k=%d: interrupted run aborted=%v closed=%v, want aborted only", k, mem.Aborted, mem.Closed)
		}
		completed, err := c.loadCheckpoint(dir)
		if err != nil {
			t.Fatalf("k=%d: loadCheckpoint: %v", k, err)
		}
		if len(completed) != k {
			t.Fatalf("k=%d: journal holds %d points, want exactly %d", k, len(completed), k)
		}

		// A kill mid-append leaves half a record with no newline.
		f, err := os.OpenFile(checkpoint.JournalPath(dir), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatalf("k=%d: open journal: %v", k, err)
		}
		if _, err := f.WriteString(`{"index":`); err != nil {
			t.Fatalf("k=%d: tear journal: %v", k, err)
		}
		f.Close()

		// Resume twice: the first executes only the missing points, the
		// second — over a journal that now holds the complete grid — is a
		// pure replay executing nothing.
		for pass, want := range []int{n - k, 0} {
			var jsonl, csvBuf bytes.Buffer
			var reran atomic.Int64
			counting := func(sc experiment.Scenario) (experiment.Result, error) {
				reran.Add(1)
				return stubRun(sc)
			}
			_, err = c.Run(RunOptions{
				Workers:    3,
				Sinks:      []Sink{NewJSONLSink(&jsonl), NewCSVSink(&csvBuf)},
				Run:        counting,
				Checkpoint: dir,
				Resume:     true,
			})
			if err != nil {
				t.Fatalf("k=%d resume %d: %v", k, pass, err)
			}
			if got := int(reran.Load()); got != want {
				t.Fatalf("k=%d resume %d: executed %d points, want %d — resumed points re-simulated", k, pass, got, want)
			}
			if jsonl.String() != refJ {
				t.Fatalf("k=%d resume %d: JSONL diverged from uninterrupted run:\n--- resumed\n%s\n--- straight\n%s", k, pass, jsonl.String(), refJ)
			}
			if csvBuf.String() != refC {
				t.Fatalf("k=%d resume %d: CSV diverged from uninterrupted run:\n--- resumed\n%s\n--- straight\n%s", k, pass, csvBuf.String(), refC)
			}
		}
	}
}

// TestCrashResumeReplicated spot-checks the replicated path: an
// interrupted replications:3 campaign resumes to byte-identical aggregate
// output, counting executions in trials.
func TestCrashResumeReplicated(t *testing.T) {
	c, err := Expand(replicatedSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var refJ, refC bytes.Buffer
	if _, err := c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&refJ), NewCSVSink(&refC)}, Run: stubRun}); err != nil {
		t.Fatalf("straight run: %v", err)
	}
	reps := c.Replications()

	dir := t.TempDir()
	cancel := make(chan struct{})
	var trials atomic.Int64
	killing := func(sc experiment.Scenario) (experiment.Result, error) {
		if int(trials.Add(1)) == 2*reps { // two full points done
			close(cancel)
		}
		return stubRun(sc)
	}
	_, err = c.Run(RunOptions{Workers: 1, Sinks: []Sink{&MemorySink{}}, Run: killing, Checkpoint: dir, Cancel: cancel})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("interrupted run err = %v, want ErrCancelled", err)
	}

	completed, err := c.loadCheckpoint(dir)
	if err != nil {
		t.Fatalf("loadCheckpoint: %v", err)
	}
	if len(completed) != 2 {
		t.Fatalf("journal holds %d points, want 2", len(completed))
	}
	for i := range c.Points {
		if rs, ok := completed[i]; ok && len(rs) != reps {
			t.Fatalf("point %d journaled with %d replicates, want %d", i, len(rs), reps)
		}
	}

	var jsonl, csvBuf bytes.Buffer
	var reran atomic.Int64
	counting := func(sc experiment.Scenario) (experiment.Result, error) {
		reran.Add(1)
		return stubRun(sc)
	}
	_, err = c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&jsonl), NewCSVSink(&csvBuf)}, Run: counting, Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if want := (len(c.Points) - 2) * reps; int(reran.Load()) != want {
		t.Fatalf("resumed run executed %d trials, want %d", reran.Load(), want)
	}
	if jsonl.String() != refJ.String() || csvBuf.String() != refC.String() {
		t.Fatal("resumed replicated output diverged from uninterrupted run")
	}
}

// TestCacheHitDeterminism: a second campaign sharing a cache directory
// re-executes nothing and still produces byte-identical output; an
// overlapping campaign executes only its new points.
func TestCacheHitDeterminism(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	refJ, refC := straightRun(t, c)
	cache, err := checkpoint.OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}

	var ran atomic.Int64
	counting := func(sc experiment.Scenario) (experiment.Result, error) {
		ran.Add(1)
		return stubRun(sc)
	}
	var j1, c1 bytes.Buffer
	if _, err := c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&j1), NewCSVSink(&c1)}, Run: counting, Cache: cache}); err != nil {
		t.Fatalf("first cached run: %v", err)
	}
	if int(ran.Load()) != len(c.Points) {
		t.Fatalf("first run executed %d points, want %d", ran.Load(), len(c.Points))
	}
	if j1.String() != refJ || c1.String() != refC {
		t.Fatal("cache-writing run diverged from plain run")
	}

	// Same campaign again: every point is a cache hit, zero executions,
	// identical bytes.
	progress := obs.NewCampaignProgress("grid", len(c.Points))
	ran.Store(0)
	var j2, c2 bytes.Buffer
	if _, err := c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&j2), NewCSVSink(&c2)}, Run: counting, Cache: cache, Progress: progress}); err != nil {
		t.Fatalf("second cached run: %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("fully-cached run executed %d points, want 0", ran.Load())
	}
	if j2.String() != refJ || c2.String() != refC {
		t.Fatal("fully-cached run diverged from plain run")
	}
	if s := progress.Snapshot(); s.CacheHits != len(c.Points) || s.Done != len(c.Points) {
		t.Fatalf("progress after cached run: %+v, want all points cache hits", s)
	}

	// An overlapping campaign — same base, fewer nodes values plus a new
	// one — reuses the shared points and executes only the new column.
	overlap, err := Expand(specFromJSON(t, `{
		"name": "grid",
		"base": {"workload": "all-to-all", "zoneRadius": 20, "seed": 1},
		"axes": {
			"protocol": ["spms", "spin"],
			"nodes": [25, 81],
			"seed": {"count": 2}
		}
	}`))
	if err != nil {
		t.Fatalf("Expand overlap: %v", err)
	}
	ran.Store(0)
	if _, err := overlap.Run(RunOptions{Workers: 4, Sinks: []Sink{&MemorySink{}}, Run: counting, Cache: cache}); err != nil {
		t.Fatalf("overlapping run: %v", err)
	}
	// nodes 25 points (2 protocols × 2 seeds = 4) are cached; nodes 81
	// points (4) are new.
	if ran.Load() != 4 {
		t.Fatalf("overlapping run executed %d points, want 4 (only the new nodes column)", ran.Load())
	}
}

// TestRetrySeedStability: a transiently failing trial re-executes with the
// IDENTICAL scenario and seed, backoff follows the exponential schedule
// through the Sleep seam, and the healed run's output is byte-identical to
// a never-failing run. A panicking first attempt exercises the same path
// (panic → recovered PanicError → retry).
func TestRetrySeedStability(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	refJ, refC := straightRun(t, c)

	var mu sync.Mutex
	attempts := make(map[string][]experiment.Scenario) // trial identity → scenarios per attempt
	var waits []time.Duration
	flaky := func(sc experiment.Scenario) (experiment.Result, error) {
		key := fmt.Sprintf("%v/%d/%d", sc.Protocol, sc.Nodes, sc.Seed)
		mu.Lock()
		attempts[key] = append(attempts[key], sc)
		n := len(attempts[key])
		mu.Unlock()
		if n == 1 && sc.Nodes == 49 {
			return experiment.Result{}, fmt.Errorf("transient fault")
		}
		if n <= 2 && sc.Nodes == 100 {
			panic("simulated trial crash") // recovered, then retried twice
		}
		return stubRun(sc)
	}
	sleep := func(d time.Duration) {
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
	}
	progress := obs.NewCampaignProgress("grid", len(c.Points))
	var jsonl, csvBuf bytes.Buffer
	_, err = c.Run(RunOptions{
		Workers:  1,
		Sinks:    []Sink{NewJSONLSink(&jsonl), NewCSVSink(&csvBuf)},
		Run:      flaky,
		Retry:    RetryPolicy{Max: 2, Backoff: time.Millisecond},
		Sleep:    sleep,
		Progress: progress,
	})
	if err != nil {
		t.Fatalf("flaky run with retry: %v", err)
	}
	if jsonl.String() != refJ || csvBuf.String() != refC {
		t.Fatal("retried run diverged from never-failing run — retry changed results")
	}
	keys := make([]string, 0, len(attempts))
	for key := range attempts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		scs := attempts[key]
		for i := 1; i < len(scs); i++ {
			if scs[i] != scs[0] {
				t.Fatalf("trial %s attempt %d ran a different scenario:\nfirst %+v\nretry %+v", key, i, scs[0], scs[i])
			}
		}
	}
	// 4 single-retry points (nodes=49: 2 protocols × 2 seeds) wait 1ms;
	// 4 double-retry points (nodes=100) wait 1ms then 2ms.
	var ones, twos int
	for _, d := range waits {
		switch d {
		case time.Millisecond:
			ones++
		case 2 * time.Millisecond:
			twos++
		default:
			t.Fatalf("unexpected backoff %v", d)
		}
	}
	if ones != 8 || twos != 4 {
		t.Fatalf("backoff schedule: %d×1ms %d×2ms, want 8×1ms 4×2ms", ones, twos)
	}
	if s := progress.Snapshot(); s.Retries != 12 {
		t.Fatalf("progress retries = %d, want 12", s.Retries)
	}
}

// TestRetryExhaustion: a permanently failing point surfaces its last error
// tagged with the attempt count, and the sinks are aborted, not closed.
func TestRetryExhaustion(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	dead := func(sc experiment.Scenario) (experiment.Result, error) {
		if sc.Nodes == 49 {
			return experiment.Result{}, fmt.Errorf("hard fault")
		}
		return stubRun(sc)
	}
	mem := &MemorySink{}
	_, err = c.Run(RunOptions{Workers: 1, Sinks: []Sink{mem}, Run: dead, Retry: RetryPolicy{Max: 2}})
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") || !strings.Contains(err.Error(), "hard fault") {
		t.Fatalf("err = %v, want the last error tagged with 3 attempts", err)
	}
	if !mem.Aborted || mem.Closed {
		t.Fatalf("failed run aborted=%v closed=%v, want aborted only", mem.Aborted, mem.Closed)
	}
}

// TestLoadCheckpointValidation: a journal is only replayable into the
// campaign it came from — wrong index, wrong hash, or wrong replicate
// count all fail a resumed Run loudly, with every sink aborted rather than
// finalized, instead of corrupting the resumed output.
func TestLoadCheckpointValidation(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	goodHash := func(i int) string {
		h, err := experiment.ScenarioHash(c.Points[i].Scenario)
		if err != nil {
			t.Fatalf("hash: %v", err)
		}
		return h
	}
	res := []experiment.Result{{Items: 1}}

	cases := []struct {
		name string
		rec  checkpoint.Record
		want string
	}{
		{"index out of range", checkpoint.Record{Index: len(c.Points), Hash: goodHash(0), Results: res}, "outside"},
		{"negative index", checkpoint.Record{Index: -1, Hash: goodHash(0), Results: res}, "outside"},
		{"hash mismatch", checkpoint.Record{Index: 0, Hash: goodHash(1), Results: res}, "different campaign"},
		{"replicate count", checkpoint.Record{Index: 0, Hash: goodHash(0), Results: []experiment.Result{{}, {}}}, "replicates"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := checkpoint.OpenJournal(dir, false)
			if err := j.Append(tc.rec); err != nil {
				t.Fatalf("Append: %v", err)
			}
			j.Close()
			sinks := []*MemorySink{{}, {}}
			_, err := c.Run(RunOptions{Workers: 1, Sinks: []Sink{sinks[0], sinks[1]}, Run: stubRun, Checkpoint: dir, Resume: true})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("resumed Run err = %v, want %q", err, tc.want)
			}
			for i, s := range sinks {
				if !s.Aborted || s.Closed {
					t.Fatalf("sink %d aborted=%v closed=%v, want aborted only", i, s.Aborted, s.Closed)
				}
			}
		})
	}

	// A valid journal replays; a later duplicate record wins.
	dir := t.TempDir()
	j, _ := checkpoint.OpenJournal(dir, false)
	j.Append(checkpoint.Record{Index: 0, Hash: goodHash(0), Results: []experiment.Result{{Items: 1}}})
	j.Append(checkpoint.Record{Index: 0, Hash: goodHash(0), Results: []experiment.Result{{Items: 2}}})
	j.Close()
	results, err := c.Run(RunOptions{Workers: 1, Sinks: []Sink{&MemorySink{}}, Run: stubRun, Checkpoint: dir, Resume: true})
	if err != nil || results[0][0].Items != 2 {
		t.Fatalf("duplicate-record journal: point 0 = %v err=%v, want the later record", results[0], err)
	}
}

// TestFileSinkLifecycle: a FileSink streams to <path>.partial, publishes
// <path> only on clean Close, replacing a regular file already there, and
// leaves the .partial behind on Abort.
func TestFileSinkLifecycle(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	refJ, _ := straightRun(t, c)

	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	if err := os.WriteFile(path, []byte("an earlier run's output\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileSink(path, func(w io.Writer) Sink { return NewJSONLSink(w) })
	if err != nil {
		t.Fatalf("NewFileSink: %v", err)
	}
	if _, err := c.Run(RunOptions{Workers: 4, Sinks: []Sink{fs}, Run: stubRun}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("published file: %v", err)
	}
	if string(data) != refJ {
		t.Fatal("published file diverged from reference output")
	}
	if _, err := os.Stat(path + PartialSuffix); !os.IsNotExist(err) {
		t.Fatalf(".partial still present after clean Close (stat err %v)", err)
	}

	// Interrupted: the .partial stays, the final name never appears.
	path2 := filepath.Join(dir, "dead.jsonl")
	fs2, err := NewFileSink(path2, func(w io.Writer) Sink { return NewJSONLSink(w) })
	if err != nil {
		t.Fatalf("NewFileSink: %v", err)
	}
	cancel := make(chan struct{})
	close(cancel)
	if _, err := c.Run(RunOptions{Workers: 1, Sinks: []Sink{fs2}, Run: stubRun, Cancel: cancel}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled run err = %v, want ErrCancelled", err)
	}
	if _, err := os.Stat(path2); !os.IsNotExist(err) {
		t.Fatalf("aborted run published its output (stat err %v)", err)
	}
	if _, err := os.Stat(path2 + PartialSuffix); err != nil {
		t.Fatalf("aborted run left no .partial: %v", err)
	}
}

// TestFileSinkRefusesDirectory: a sink path naming a directory is refused
// before <path>.partial is created, since publishing would rename over it.
func TestFileSinkRefusesDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	checkSinkRefused(t, path)
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("%s is no longer a directory (stat %v, err %v)", path, fi, err)
	}
}

// checkSinkRefused asserts that NewFileSink refuses path with an error
// that names it, and creates no <path>.partial.
func checkSinkRefused(t *testing.T, path string) {
	t.Helper()
	fs, err := NewFileSink(path, func(w io.Writer) Sink { return NewJSONLSink(w) })
	if want := "campaign: " + path + " exists and is not a regular file"; err == nil || err.Error() != want {
		if fs != nil {
			fs.Abort()
		}
		t.Fatalf("NewFileSink(%s) err = %v, want %q", path, err, want)
	}
	if _, err := os.Lstat(path + PartialSuffix); !os.IsNotExist(err) {
		t.Fatalf("a refused sink created %s%s (stat err %v)", path, PartialSuffix, err)
	}
}
