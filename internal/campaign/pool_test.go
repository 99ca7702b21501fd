package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/experiment"
)

// nodesCampaign is a one-axis grid whose point i runs nodes = 10+i, so a
// stub executor can tell the points apart; every point has reps
// replicates of base seed 1.
func nodesCampaign(t *testing.T, points, reps int) *Campaign {
	t.Helper()
	c, err := Expand(specFromJSON(t, fmt.Sprintf(`{
		"name": "pool",
		"base": {"protocol": "spms", "workload": "all-to-all", "zoneRadius": 20, "seed": 1},
		"replications": %d,
		"axes": {"nodes": {"from": 10, "to": %d}}
	}`, reps, 9+points)))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return c
}

// funcSink records like MemorySink but first calls point on every
// delivery; a non-nil return fails the delivery.
type funcSink struct {
	MemorySink
	point func(Point) error
}

func (s *funcSink) Point(p Point, res experiment.Result) error {
	if err := s.point(p); err != nil {
		return err
	}
	return s.MemorySink.Point(p, res)
}

func (s *funcSink) Aggregate(p Point, agg Aggregate) error {
	if err := s.point(p); err != nil {
		return err
	}
	return s.MemorySink.Aggregate(p, agg)
}

// TestRunFirstErrorWins checks the reported error is the lowest-ordered
// failing trial's regardless of completion order — what a sequential run
// surfaces first — and that it names the grid point, its parameters and
// the replicate, not the trial's position in the pool.
func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, reps := range []int{1, 3} {
		c := nodesCampaign(t, 16, reps)
		last := experiment.ReplicateSeed(1, reps-1)
		// The last replicate of every point from 4 on fails.
		stub := func(sc experiment.Scenario) (experiment.Result, error) {
			if sc.Nodes >= 14 && sc.Seed == last {
				return experiment.Result{}, fmt.Errorf("n=%d: %w", sc.Nodes, boom)
			}
			return stubRun(sc)
		}
		for _, tc := range []struct {
			rng   *PointRange
			first int // lowest failing point inside the range
		}{{nil, 4}, {&PointRange{6, 16}, 6}} {
			for _, workers := range []int{1, 8} {
				_, err := c.Run(RunOptions{Workers: workers, Run: stub, Range: tc.rng})
				want := fmt.Sprintf(`campaign "pool": point %d (nodes=%d) replicate %d: n=%d: boom`,
					tc.first, 10+tc.first, reps-1, 10+tc.first)
				if !errors.Is(err, boom) || err.Error() != want {
					t.Fatalf("reps=%d range=%v workers=%d: err = %v, want %q", reps, tc.rng, workers, err, want)
				}
			}
		}
	}
}

// TestRunPanicRecovered checks a panicking trial surfaces as an ordinary
// trial error carrying the panic value and a stack naming the panic site,
// at every pool size — one bad trial must not take down the process.
func TestRunPanicRecovered(t *testing.T) {
	c := nodesCampaign(t, 8, 1)
	stub := func(sc experiment.Scenario) (experiment.Result, error) {
		if sc.Nodes == 12 {
			panic("kaboom at n=12")
		}
		return stubRun(sc)
	}
	for _, workers := range []int{1, 8} {
		_, err := c.Run(RunOptions{Workers: workers, Run: stub})
		var pe *experiment.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a wrapped *PanicError", workers, err)
		}
		if pe.Value != "kaboom at n=12" {
			t.Fatalf("workers=%d: panic value = %v, want the original value", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "pool_test.go") {
			t.Fatalf("workers=%d: stack does not name the panic site:\n%s", workers, pe.Stack)
		}
		if !strings.Contains(err.Error(), "point 2 (nodes=12) replicate 0") {
			t.Fatalf("workers=%d: err = %v, want the failing point", workers, err)
		}
	}
}

// TestRunTrialErrorBeatsSinkError pins the precedence contract in
// parallel: when a trial and a sink both fail, Run reports the trial's
// error no matter which lands first. The sink's delivery of point 0 cannot
// fail until point 1's trial is failing, and point 1 is always claimed
// because nothing can fail before then.
func TestRunTrialErrorBeatsSinkError(t *testing.T) {
	c := nodesCampaign(t, 2, 1)
	trialErr := errors.New("trial boom")
	sinkErr := errors.New("sink boom")
	for try := 0; try < 25; try++ {
		point1Started := make(chan struct{})
		stub := func(sc experiment.Scenario) (experiment.Result, error) {
			if sc.Nodes == 11 {
				close(point1Started)
				return experiment.Result{}, trialErr
			}
			return stubRun(sc)
		}
		sink := &funcSink{point: func(Point) error {
			<-point1Started
			return sinkErr
		}}
		_, err := c.Run(RunOptions{Workers: 2, Sinks: []Sink{sink}, Run: stub})
		if !errors.Is(err, trialErr) || errors.Is(err, sinkErr) {
			t.Fatalf("try %d: err = %v, want the trial error to take precedence over the sink error", try, err)
		}
	}
}

// TestRunCancelSerial pins one-worker cancellation: the check happens
// before each claim, so closing Cancel during point k's delivery runs
// exactly k+1 trials, and a Cancel closed up front runs none.
func TestRunCancelSerial(t *testing.T) {
	c := nodesCampaign(t, 10, 1)
	var runs atomic.Int64
	counting := func(sc experiment.Scenario) (experiment.Result, error) {
		runs.Add(1)
		return stubRun(sc)
	}
	cancel := make(chan struct{})
	sink := &funcSink{point: func(p Point) error {
		if p.Index == 2 {
			close(cancel)
		}
		return nil
	}}
	_, err := c.Run(RunOptions{Workers: 1, Sinks: []Sink{sink}, Run: counting, Cancel: cancel})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if got := runs.Load(); got != 3 || len(sink.Points) != 3 || !sink.Aborted {
		t.Fatalf("cancel during point 2: %d ran, %d streamed, aborted=%v; want 3, 3, true", got, len(sink.Points), sink.Aborted)
	}

	early := make(chan struct{})
	close(early)
	runs.Store(0)
	if _, err := c.Run(RunOptions{Workers: 1, Run: counting, Cancel: early}); !errors.Is(err, ErrCancelled) || runs.Load() != 0 {
		t.Fatalf("pre-cancelled run: err=%v runs=%d, want ErrCancelled and zero runs", err, runs.Load())
	}
}

// TestRunCancelDrainsInFlight pins the parallel drain contract: after
// Cancel closes, workers claim nothing new, but every trial already in
// flight runs to completion and is journaled and streamed — exactly what
// lets an interrupted campaign resume without redoing drained work.
func TestRunCancelDrainsInFlight(t *testing.T) {
	c := nodesCampaign(t, 24, 1)
	dir := t.TempDir()
	cancel := make(chan struct{})
	var runs atomic.Int64
	stub := func(sc experiment.Scenario) (experiment.Result, error) {
		runs.Add(1)
		if sc.Nodes > 10 {
			// Hold later trials until cancellation has happened, so any
			// claim after this one is provably post-cancel.
			<-cancel
		}
		return stubRun(sc)
	}
	sink := &funcSink{point: func(p Point) error {
		if p.Index == 0 {
			close(cancel)
		}
		return nil
	}}
	_, err := c.Run(RunOptions{Workers: 2, Sinks: []Sink{sink}, Run: stub, Cancel: cancel, Checkpoint: dir})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	recs, err := checkpoint.LoadJournal(dir)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	got := runs.Load()
	if got < 1 || got > 2 {
		t.Fatalf("%d trials ran, want 1 or 2 — workers kept claiming after cancel", got)
	}
	if int64(len(sink.Points)) != got || int64(len(recs)) != got {
		t.Fatalf("%d trials ran but %d streamed and %d journaled — in-flight work was dropped, not drained", got, len(sink.Points), len(recs))
	}
}

// TestRunCancelReplicatedPointWhole checks a replicated point reaches the
// journal and the sinks whole or not at all: cancelling while a point's
// middle replicate runs leaves that point out entirely.
func TestRunCancelReplicatedPointWhole(t *testing.T) {
	c := nodesCampaign(t, 3, 3)
	dir := t.TempDir()
	cancel := make(chan struct{})
	stub := func(sc experiment.Scenario) (experiment.Result, error) {
		if sc.Nodes == 11 && sc.Seed == experiment.ReplicateSeed(1, 1) {
			close(cancel)
		}
		return stubRun(sc)
	}
	mem := &MemorySink{}
	_, err := c.Run(RunOptions{Workers: 1, Sinks: []Sink{mem}, Run: stub, Cancel: cancel, Checkpoint: dir})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	recs, err := checkpoint.LoadJournal(dir)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	if len(mem.Aggregates) != 1 || mem.Aggregates[0].Point.Index != 0 || mem.Aggregates[0].Aggregate.Replications != 3 {
		t.Fatalf("streamed %+v, want point 0 alone with 3 replicates", mem.Aggregates)
	}
	if len(recs) != 1 || recs[0].Index != 0 || len(recs[0].Results) != 3 {
		t.Fatalf("journaled %+v, want point 0 alone with 3 replicates", recs)
	}
}

// TestRunWorkersCacheIsolation exercises the topo neighbor caches under
// the race detector: identical mobility-heavy points run concurrently in
// one pool, so every worker is constantly rebuilding and querying its own
// field's cache-owned slices. A worker observing another worker's cache
// would show up either as a -race report (the caches are written without
// synchronization — safe only because each Field belongs to exactly one
// trial) or as a result mismatch against the serial run.
func TestRunWorkersCacheIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	c, err := Expand(specFromJSON(t, `{
		"name": "isolation",
		"base": {"protocol": "spms", "workload": "all-to-all", "nodes": 49, "zoneRadius": 20,
			"packetsPerNode": 2, "mobility": true, "mobilityPeriod": "50ms", "mobilityFraction": 0.1,
			"drain": "2s"},
		"axes": {"seed": [7, 7, 7, 7]}
	}`))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	serial, err := c.Run(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := c.Run(RunOptions{Workers: len(c.Points)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i][0] != parallel[i][0] {
			t.Fatalf("point %d diverged between serial and parallel pools:\nserial:   %+v\nparallel: %+v",
				i, serial[i][0], parallel[i][0])
		}
		if serial[i][0] != serial[0][0] {
			t.Fatalf("identical points gave different results within the serial pool (point %d)", i)
		}
	}
}
