package experiment

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestSweepOrderAndWorkers checks that Execute returns results in point
// order for any pool size, using a stub Run that tags each result.
func TestSweepOrderAndWorkers(t *testing.T) {
	points := make([]Scenario, 37)
	for i := range points {
		points[i] = Scenario{Nodes: i + 1} // distinct, identifiable
	}
	stub := func(sc Scenario) (Result, error) {
		return Result{Items: sc.Nodes}, nil
	}
	for _, workers := range []int{0, 1, 2, 8, 64} {
		res, err := (Sweep{Points: points, Run: stub, Workers: workers}).Execute()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != len(points) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(points))
		}
		for i, r := range res {
			if r.Items != i+1 {
				t.Fatalf("workers=%d: result %d out of order: %+v", workers, i, r)
			}
		}
	}
}

// TestSweepEmpty checks the empty sweep is a no-op, not a hang or panic.
func TestSweepEmpty(t *testing.T) {
	res, err := (Sweep{}).Execute()
	if err != nil || len(res) != 0 {
		t.Fatalf("empty sweep: res=%v err=%v", res, err)
	}
}

// TestSweepFirstErrorWins checks that the reported error is the
// lowest-indexed failing point regardless of completion order, matching
// what a point-by-point run surfaces first.
func TestSweepFirstErrorWins(t *testing.T) {
	points := make([]Scenario, 16)
	for i := range points {
		points[i] = Scenario{Nodes: i + 1}
	}
	boom := errors.New("boom")
	stub := func(sc Scenario) (Result, error) {
		if sc.Nodes >= 5 { // points 4.. all fail
			return Result{}, fmt.Errorf("n=%d: %w", sc.Nodes, boom)
		}
		return Result{}, nil
	}
	for _, workers := range []int{1, 8} {
		_, err := (Sweep{Points: points, Run: stub, Workers: workers}).Execute()
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err=%v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "point 4") {
			t.Fatalf("workers=%d: err=%v, want the lowest failing point (4)", workers, err)
		}
	}
}

// TestSweepRealScenarioValidation checks the default Run path propagates
// scenario validation errors through the pool.
func TestSweepRealScenarioValidation(t *testing.T) {
	_, err := (Sweep{Points: []Scenario{{}}, Workers: 4}).Execute()
	if err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// TestSweepOnPoint checks the streaming callback fires exactly once per
// point with the matching scenario/result pair, at every pool size. Calls
// are serialized by Sweep, so the unsynchronized map below is also a race
// check under -race.
func TestSweepOnPoint(t *testing.T) {
	points := make([]Scenario, 53)
	for i := range points {
		points[i] = Scenario{Nodes: i + 1}
	}
	stub := func(sc Scenario) (Result, error) {
		return Result{Items: sc.Nodes}, nil
	}
	for _, workers := range []int{1, 8} {
		got := make(map[int]Result)
		_, err := (Sweep{
			Points:  points,
			Run:     stub,
			Workers: workers,
			OnPoint: func(i int, sc Scenario, res Result) error {
				if _, dup := got[i]; dup {
					t.Errorf("workers=%d: point %d delivered twice", workers, i)
				}
				if sc.Nodes != i+1 || res.Items != i+1 {
					t.Errorf("workers=%d: point %d got sc.Nodes=%d res.Items=%d", workers, i, sc.Nodes, res.Items)
				}
				got[i] = res
				return nil
			},
		}).Execute()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(points) {
			t.Fatalf("workers=%d: %d callbacks, want %d", workers, len(got), len(points))
		}
	}
}

// TestSweepOnPointErrorAborts checks a callback error stops the sweep:
// serial execution stops immediately after the failing delivery, parallel
// execution stops claiming points and surfaces the error.
func TestSweepOnPointErrorAborts(t *testing.T) {
	points := make([]Scenario, 24)
	for i := range points {
		points[i] = Scenario{Nodes: i + 1}
	}
	boom := errors.New("sink boom")

	var runs atomic.Int64
	stub := func(sc Scenario) (Result, error) {
		runs.Add(1)
		return Result{Items: sc.Nodes}, nil
	}
	cb := func(i int, _ Scenario, _ Result) error {
		if i == 2 {
			return boom
		}
		return nil
	}

	_, err := (Sweep{Points: points, Run: stub, Workers: 1, OnPoint: cb}).Execute()
	if !errors.Is(err, boom) {
		t.Fatalf("workers=1: err = %v, want sink boom", err)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("workers=1: %d points ran after callback error at point 2, want exactly 3", got)
	}

	_, err = (Sweep{Points: points, Run: stub, Workers: 8, OnPoint: cb}).Execute()
	if !errors.Is(err, boom) {
		t.Fatalf("workers=8: err = %v, want sink boom", err)
	}
}

// TestSweepOnPointErrorStopsClaiming pins the parallel abort contract
// exactly: after a callback error, workers stop claiming points. The
// second worker's points are gated on the failure having happened, so the
// run count is deterministic — point 0 (whose delivery errors) and point 1
// (in flight when it does) execute; nothing else may.
func TestSweepOnPointErrorStopsClaiming(t *testing.T) {
	points := make([]Scenario, 24)
	for i := range points {
		points[i] = Scenario{Nodes: i + 1}
	}
	boom := errors.New("sink boom")
	aborted := make(chan struct{})

	var runs atomic.Int64
	stub := func(sc Scenario) (Result, error) {
		runs.Add(1)
		if sc.Nodes > 1 {
			// Hold every later point until the sink has already failed, so
			// any claim after this one is provably post-abort.
			<-aborted
		}
		return Result{Items: sc.Nodes}, nil
	}
	cb := func(i int, _ Scenario, _ Result) error {
		if i == 0 {
			close(aborted)
			return boom
		}
		return nil
	}

	_, err := (Sweep{Points: points, Run: stub, Workers: 2, OnPoint: cb}).Execute()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink boom", err)
	}
	// Points 0 (whose delivery errors) and, at most, point 1 (claimed
	// while 0 ran) execute; every later point would have unblocked on
	// `aborted` and run, so any third run means claiming continued.
	if got := runs.Load(); got < 1 || got > 2 {
		t.Fatalf("%d points ran after the sink died, want 1 or 2 — workers kept claiming", got)
	}
}

// TestSweepPointErrorBeatsOnPointError pins the precedence contract under
// Workers > 1: when a point failure and a sink failure both occur in one
// parallel sweep, Execute deterministically reports the point's error no
// matter which lands first. Channel gating makes both failures happen in
// every schedule: the callback for point 0 cannot return its error until
// point 1's run has started failing, and point 1 is always claimed
// because no failure can be recorded before then. (Serial sweeps stop at
// the first failure in point order, so the race only exists in parallel.)
func TestSweepPointErrorBeatsOnPointError(t *testing.T) {
	pointErr := errors.New("point boom")
	sinkErr := errors.New("sink boom")
	for try := 0; try < 25; try++ {
		point1Started := make(chan struct{})
		stub := func(sc Scenario) (Result, error) {
			if sc.Nodes == 2 {
				close(point1Started)
				return Result{}, pointErr
			}
			return Result{Items: sc.Nodes}, nil
		}
		cb := func(i int, _ Scenario, _ Result) error {
			<-point1Started
			return sinkErr
		}
		_, err := (Sweep{
			Points:  []Scenario{{Nodes: 1}, {Nodes: 2}},
			Run:     stub,
			Workers: 2,
			OnPoint: cb,
		}).Execute()
		if !errors.Is(err, pointErr) {
			t.Fatalf("try %d: err = %v, want the point error to take precedence over the sink error", try, err)
		}
	}
}

// TestSweepPanicRecovered checks a panicking trial surfaces as an ordinary
// point error carrying the panic value and a stack trace, at every pool
// size — one bad trial must not take down the process.
func TestSweepPanicRecovered(t *testing.T) {
	points := make([]Scenario, 8)
	for i := range points {
		points[i] = Scenario{Nodes: i + 1}
	}
	stub := func(sc Scenario) (Result, error) {
		if sc.Nodes == 3 {
			panic("kaboom at n=3")
		}
		return Result{Items: sc.Nodes}, nil
	}
	for _, workers := range []int{1, 8} {
		_, err := (Sweep{Points: points, Run: stub, Workers: workers}).Execute()
		if err == nil {
			t.Fatalf("workers=%d: panic swallowed", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a wrapped *PanicError", workers, err)
		}
		if pe.Value != "kaboom at n=3" {
			t.Fatalf("workers=%d: panic value = %v, want the original value", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "sweep_test.go") {
			t.Fatalf("workers=%d: stack does not name the panic site:\n%s", workers, pe.Stack)
		}
		if !strings.Contains(err.Error(), "point 2") {
			t.Fatalf("workers=%d: err = %v, want the failing point's index", workers, err)
		}
	}
}

// TestSweepCancelSerial pins one-worker cancellation: the check happens
// before each claim, so closing Cancel during point k's delivery runs
// exactly k+1 points and returns ErrCancelled.
func TestSweepCancelSerial(t *testing.T) {
	points := make([]Scenario, 10)
	for i := range points {
		points[i] = Scenario{Nodes: i + 1}
	}
	cancel := make(chan struct{})
	var runs atomic.Int64
	stub := func(sc Scenario) (Result, error) {
		runs.Add(1)
		return Result{Items: sc.Nodes}, nil
	}
	_, err := (Sweep{
		Points:  points,
		Run:     stub,
		Workers: 1,
		Cancel:  cancel,
		OnPoint: func(i int, _ Scenario, _ Result) error {
			if i == 2 {
				close(cancel)
			}
			return nil
		},
	}).Execute()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("%d points ran after cancel during point 2, want exactly 3", got)
	}

	// A pre-closed Cancel stops the sweep before any work.
	closed := make(chan struct{})
	close(closed)
	runs.Store(0)
	_, err = (Sweep{Points: points, Run: stub, Workers: 1, Cancel: closed}).Execute()
	if !errors.Is(err, ErrCancelled) || runs.Load() != 0 {
		t.Fatalf("pre-cancelled sweep: err=%v runs=%d, want ErrCancelled and zero runs", err, runs.Load())
	}
}

// TestSweepCancelDrainsInFlight pins the parallel drain contract: after
// Cancel closes, workers claim nothing new, but every point already in
// flight runs to completion AND is delivered through OnPoint — exactly
// what lets the campaign journal each drained point before exit.
func TestSweepCancelDrainsInFlight(t *testing.T) {
	points := make([]Scenario, 24)
	for i := range points {
		points[i] = Scenario{Nodes: i + 1}
	}
	cancel := make(chan struct{})
	var runs atomic.Int64
	stub := func(sc Scenario) (Result, error) {
		runs.Add(1)
		if sc.Nodes > 1 {
			// Hold later points until cancellation has happened, so any
			// claim after this one is provably post-cancel.
			<-cancel
		}
		return Result{Items: sc.Nodes}, nil
	}
	delivered := make(map[int]bool)
	_, err := (Sweep{
		Points:  points,
		Run:     stub,
		Workers: 2,
		Cancel:  cancel,
		OnPoint: func(i int, _ Scenario, _ Result) error {
			delivered[i] = true
			if i == 0 {
				close(cancel)
			}
			return nil
		},
	}).Execute()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// Point 0 always runs; point 1 may have been claimed before cancel. No
	// third point may be claimed, and — the drain contract — every point
	// that ran must have been delivered.
	if got := runs.Load(); got < 1 || got > 2 {
		t.Fatalf("%d points ran, want 1 or 2 — workers kept claiming after cancel", got)
	}
	if int64(len(delivered)) != runs.Load() {
		t.Fatalf("%d points ran but %d were delivered — in-flight work was dropped, not drained", runs.Load(), len(delivered))
	}
}

// TestReplicatedSweepCancel checks Cancel passes through ReplicatedSweep
// with the same sentinel, and that cancellation can not deliver a
// partially-replicated point.
func TestReplicatedSweepCancel(t *testing.T) {
	points := []Scenario{{Nodes: 1, Replications: 3}, {Nodes: 2, Replications: 3}}
	cancel := make(chan struct{})
	stub := func(sc Scenario) (Result, error) {
		return Result{Items: sc.Nodes}, nil
	}
	_, err := (ReplicatedSweep{
		Points:  points,
		Run:     stub,
		Workers: 1,
		Cancel:  cancel,
		OnPoint: func(i int, _ Scenario, reps []Result) error {
			if len(reps) != 3 {
				t.Errorf("point %d delivered with %d replicates, want 3", i, len(reps))
			}
			if i == 0 {
				close(cancel)
			}
			return nil
		},
	}).Execute()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}
