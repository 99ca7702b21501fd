// The tests in this file sweep lists of Scenarios. Running more than one
// scenario goes through campaign.Run, so they live in an external test
// package that can import campaign, and pin what a sweep of this
// package's scenarios gets from campaign's trial pool: results in point
// order at every pool size, each point delivered once with its whole
// replicate vector, replicate seeds from ReplicateSeed, the lowest
// failing point's error, sink errors stopping the pool, and scenario
// validation on every trial.
package experiment_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
)

// nodesSweep expands a one-axis sweep whose point i runs Nodes = i+1, so
// a stub executor can tell the points apart; every point has reps
// replicates of base seed 1.
func nodesSweep(t *testing.T, points, reps int) *campaign.Campaign {
	t.Helper()
	nodes := make([]int, points)
	for i := range nodes {
		nodes[i] = i + 1
	}
	c, err := campaign.Expand(campaign.Spec{
		Name:         "sweep",
		Base:         experiment.Scenario{Protocol: experiment.SPMS, Workload: experiment.AllToAll, ZoneRadius: 20, Seed: 1},
		Replications: reps,
		Axes:         campaign.Axes{Nodes: campaign.IntAxis{Values: nodes}},
	})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return c
}

// tagRun is a stub executor that tags each result with its scenario's
// node count and seed.
func tagRun(sc experiment.Scenario) (experiment.Result, error) {
	return experiment.Result{Items: sc.Nodes, EnergyPerPacket: float64(sc.Seed)}, nil
}

// pointSink records deliveries like campaign.MemorySink but first calls
// point on each one; a non-nil return fails the delivery.
type pointSink struct {
	campaign.MemorySink
	point func(campaign.Point, []experiment.Result) error
}

func (s *pointSink) Point(p campaign.Point, res experiment.Result) error {
	if err := s.point(p, []experiment.Result{res}); err != nil {
		return err
	}
	return s.MemorySink.Point(p, res)
}

func (s *pointSink) Aggregate(p campaign.Point, agg campaign.Aggregate) error {
	if err := s.point(p, agg.Results); err != nil {
		return err
	}
	return s.MemorySink.Aggregate(p, agg)
}

// TestSweepOrderAndWorkers checks that a sweep returns results in point
// order for any pool size, using a stub executor that tags each result.
func TestSweepOrderAndWorkers(t *testing.T) {
	c := nodesSweep(t, 37, 1)
	for _, workers := range []int{0, 1, 2, 8, 64} {
		res, err := c.Run(campaign.RunOptions{Workers: workers, Run: tagRun})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != len(c.Points) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(c.Points))
		}
		for i, r := range res {
			if len(r) != 1 || r[0].Items != i+1 {
				t.Fatalf("workers=%d: result %d out of order: %+v", workers, i, r)
			}
		}
	}
}

// TestSweepEmpty checks a sweep with no points to run — an empty point
// range — is a no-op, not a hang or panic.
func TestSweepEmpty(t *testing.T) {
	c := nodesSweep(t, 4, 1)
	var runs atomic.Int64
	counting := func(sc experiment.Scenario) (experiment.Result, error) {
		runs.Add(1)
		return tagRun(sc)
	}
	mem := &campaign.MemorySink{}
	res, err := c.Run(campaign.RunOptions{Sinks: []campaign.Sink{mem}, Run: counting, Range: &campaign.PointRange{Lo: 2, Hi: 2}})
	if err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
	for i, r := range res {
		if r != nil {
			t.Fatalf("empty sweep returned point %d: %+v", i, r)
		}
	}
	if runs.Load() != 0 || len(mem.Points) != 0 || !mem.Closed {
		t.Fatalf("empty sweep: %d ran, %d streamed, closed=%v; want 0, 0, true", runs.Load(), len(mem.Points), mem.Closed)
	}
}

// TestSweepFirstErrorWins checks that the reported error is the
// lowest-indexed failing point regardless of completion order, matching
// what a point-by-point run surfaces first.
func TestSweepFirstErrorWins(t *testing.T) {
	c := nodesSweep(t, 16, 1)
	boom := errors.New("boom")
	stub := func(sc experiment.Scenario) (experiment.Result, error) {
		if sc.Nodes >= 5 { // points 4.. all fail
			return experiment.Result{}, fmt.Errorf("n=%d: %w", sc.Nodes, boom)
		}
		return tagRun(sc)
	}
	for _, workers := range []int{1, 8} {
		_, err := c.Run(campaign.RunOptions{Workers: workers, Run: stub})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err=%v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "point 4") {
			t.Fatalf("workers=%d: err=%v, want the lowest failing point (4)", workers, err)
		}
	}
}

// TestSweepRealScenarioValidation checks an invalid scenario never
// simulates: expansion rejects it, and the default executor validates
// every trial, so a point that is invalid by the time it runs fails
// through the pool.
func TestSweepRealScenarioValidation(t *testing.T) {
	if _, err := campaign.Expand(campaign.Spec{Name: "invalid", Base: experiment.Scenario{Nodes: -1}}); err == nil {
		t.Fatal("invalid scenario expanded")
	}
	c := nodesSweep(t, 1, 1)
	c.Points[0].Scenario = experiment.Scenario{}
	_, err := c.Run(campaign.RunOptions{Workers: 4})
	if err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// TestSweepOnPoint checks the sinks see exactly one delivery per point
// with the matching scenario/result pair, at every pool size. Deliveries
// are serialized by the pool, so the unsynchronized map below is also a
// race check under -race.
func TestSweepOnPoint(t *testing.T) {
	c := nodesSweep(t, 53, 1)
	for _, workers := range []int{1, 8} {
		got := make(map[int]experiment.Result)
		sink := &pointSink{point: func(p campaign.Point, reps []experiment.Result) error {
			i := p.Index
			if _, dup := got[i]; dup {
				t.Errorf("workers=%d: point %d delivered twice", workers, i)
			}
			if p.Scenario.Nodes != i+1 || reps[0].Items != i+1 {
				t.Errorf("workers=%d: point %d got sc.Nodes=%d res.Items=%d", workers, i, p.Scenario.Nodes, reps[0].Items)
			}
			got[i] = reps[0]
			return nil
		}}
		_, err := c.Run(campaign.RunOptions{Workers: workers, Sinks: []campaign.Sink{sink}, Run: tagRun})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(c.Points) {
			t.Fatalf("workers=%d: %d deliveries, want %d", workers, len(got), len(c.Points))
		}
	}
}

// TestSweepOnPointErrorAborts checks a sink error stops the sweep: serial
// execution stops immediately after the failing delivery, parallel
// execution stops claiming points and surfaces the error.
func TestSweepOnPointErrorAborts(t *testing.T) {
	c := nodesSweep(t, 24, 1)
	boom := errors.New("sink boom")

	var runs atomic.Int64
	stub := func(sc experiment.Scenario) (experiment.Result, error) {
		runs.Add(1)
		return tagRun(sc)
	}
	failAt2 := func() campaign.Sink {
		return &pointSink{point: func(p campaign.Point, _ []experiment.Result) error {
			if p.Index == 2 {
				return boom
			}
			return nil
		}}
	}

	_, err := c.Run(campaign.RunOptions{Workers: 1, Sinks: []campaign.Sink{failAt2()}, Run: stub})
	if !errors.Is(err, boom) {
		t.Fatalf("workers=1: err = %v, want sink boom", err)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("workers=1: %d points ran after sink error at point 2, want exactly 3", got)
	}

	_, err = c.Run(campaign.RunOptions{Workers: 8, Sinks: []campaign.Sink{failAt2()}, Run: stub})
	if !errors.Is(err, boom) {
		t.Fatalf("workers=8: err = %v, want sink boom", err)
	}
}

// TestSweepOnPointErrorStopsClaiming pins the parallel abort contract
// exactly: after a sink error, workers stop claiming points. The second
// worker's points are gated on the failure having happened, so the run
// count is deterministic — point 0 (whose delivery errors) and point 1
// (in flight when it does) execute; nothing else may.
func TestSweepOnPointErrorStopsClaiming(t *testing.T) {
	c := nodesSweep(t, 24, 1)
	boom := errors.New("sink boom")
	aborted := make(chan struct{})

	var runs atomic.Int64
	stub := func(sc experiment.Scenario) (experiment.Result, error) {
		runs.Add(1)
		if sc.Nodes > 1 {
			// Hold every later point until the sink has already failed, so
			// any claim after this one is provably post-abort.
			<-aborted
		}
		return tagRun(sc)
	}
	sink := &pointSink{point: func(p campaign.Point, _ []experiment.Result) error {
		if p.Index == 0 {
			close(aborted)
			return boom
		}
		return nil
	}}

	_, err := c.Run(campaign.RunOptions{Workers: 2, Sinks: []campaign.Sink{sink}, Run: stub})
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

// TestReplicatedSweepOrder checks per-point replicate vectors come back in
// (point, replicate) order at every pool size, with trial seeds derived
// from each point's base seed.
func TestReplicatedSweepOrder(t *testing.T) {
	// Point i runs nodes i/3+1 at base seed 100+i%3.
	c, err := campaign.Expand(campaign.Spec{
		Name:         "replicated",
		Base:         experiment.Scenario{Protocol: experiment.SPMS, Workload: experiment.AllToAll, ZoneRadius: 20},
		Replications: 3,
		Axes: campaign.Axes{
			Nodes: campaign.IntAxis{Values: []int{1, 2, 3}},
			Seed:  campaign.SeedAxis{Values: []int64{100, 101, 102}},
		},
	})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		res, err := c.Run(campaign.RunOptions{Workers: workers, Run: tagRun})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != 9 {
			t.Fatalf("workers=%d: %d vectors, want 9", workers, len(res))
		}
		for i, reps := range res {
			if len(reps) != 3 {
				t.Fatalf("workers=%d: point %d has %d replicates, want 3", workers, i, len(reps))
			}
			for r, got := range reps {
				if got.Items != i/3+1 {
					t.Fatalf("workers=%d: point %d replicate %d out of order: %+v", workers, i, r, got)
				}
				if want := float64(experiment.ReplicateSeed(int64(100+i%3), r)); got.EnergyPerPacket != want {
					t.Fatalf("workers=%d: point %d replicate %d ran seed %v, want %v", workers, i, r, got.EnergyPerPacket, want)
				}
			}
		}
	}
}

// TestReplicatedSweepOnPoint checks the sinks see exactly one delivery
// per point with the complete replicate vector, and that unreplicated
// sweeps deliver single-element vectors.
func TestReplicatedSweepOnPoint(t *testing.T) {
	for _, reps := range []int{2, 1, 4} {
		c := nodesSweep(t, 3, reps)
		for _, workers := range []int{1, 8} {
			got := make(map[int][]experiment.Result)
			sink := &pointSink{point: func(p campaign.Point, vec []experiment.Result) error {
				if _, dup := got[p.Index]; dup {
					t.Errorf("reps=%d workers=%d: point %d delivered twice", reps, workers, p.Index)
				}
				if p.Scenario.Nodes != p.Index+1 {
					t.Errorf("reps=%d workers=%d: point %d delivered scenario %+v", reps, workers, p.Index, p.Scenario)
				}
				got[p.Index] = vec
				return nil
			}}
			res, err := c.Run(campaign.RunOptions{Workers: workers, Sinks: []campaign.Sink{sink}, Run: tagRun})
			if err != nil {
				t.Fatalf("reps=%d workers=%d: %v", reps, workers, err)
			}
			if len(got) != 3 {
				t.Fatalf("reps=%d workers=%d: %d deliveries, want 3", reps, workers, len(got))
			}
			for i := range res {
				if vec := got[i]; len(vec) != reps || !reflect.DeepEqual(vec, res[i]) {
					t.Fatalf("reps=%d workers=%d: point %d delivered %v, want Run's %d-replicate vector %v", reps, workers, i, vec, reps, res[i])
				}
			}
		}
	}
}

// TestReplicatedSweepTrialError checks a failing trial aborts the sweep
// and surfaces through the pool at every size.
func TestReplicatedSweepTrialError(t *testing.T) {
	boom := errors.New("trial boom")
	c := nodesSweep(t, 1, 3)
	stub := func(sc experiment.Scenario) (experiment.Result, error) {
		if sc.Seed == experiment.ReplicateSeed(1, 1) {
			return experiment.Result{}, boom
		}
		return tagRun(sc)
	}
	for _, workers := range []int{1, 4} {
		_, err := c.Run(campaign.RunOptions{Workers: workers, Run: stub})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want trial boom", workers, err)
		}
	}
}

// TestReplicatedSweepSerialParallelDeterminism is the replication half of
// the determinism contract: real replicated simulations produce identical
// replicate vectors at workers=1 and workers=8.
func TestReplicatedSweepSerialParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps are slow")
	}
	c, err := campaign.Expand(campaign.Spec{
		Name: "replicated-determinism",
		Base: experiment.Scenario{
			Workload:       experiment.AllToAll,
			Nodes:          16,
			ZoneRadius:     15,
			PacketsPerNode: 1,
			Seed:           1,
			Drain:          1500 * time.Millisecond,
		},
		Replications: 3,
		Axes:         campaign.Axes{Protocol: []experiment.Protocol{experiment.SPMS, experiment.SPIN}},
	})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	serial, err := c.Run(campaign.RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	parallel, err := c.Run(campaign.RunOptions{Workers: 8})
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("replicated results diverged:\n--- workers=1\n%+v\n--- workers=8\n%+v", serial, parallel)
	}
	// Replicates genuinely differ (different seeds), so the aggregation
	// has variance to summarize.
	if serial[0][0] == serial[0][1] && serial[0][1] == serial[0][2] {
		t.Fatal("all replicates identical — seed derivation is not varying the trials")
	}
}
