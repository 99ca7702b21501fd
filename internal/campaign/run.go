// run.go executes an expanded campaign through the trial pool (pool.go)
// and streams finished points to the sinks. The pool delivers trials
// serialized but possibly out of point order; the runner counts each
// point's unfinished trials and flushes the contiguous prefix of finished
// points, so sinks always observe index order and their output is
// byte-identical at every pool size — streaming without giving up the
// ordered-reassembly contract. Unreplicated points flow to Sink.Point;
// replicated points (spec replications > 1) flow to Sink.Aggregate with
// their full replicate vector and per-metric statistics.
//
// The runner is also the crash-safety seam (DESIGN.md §13): it owns the
// checkpoint journal's resume protocol (replay and validate, reopen for
// append, close), points already finished by a previous run (from the
// journal) or by any previous campaign (Cache) replay into the sinks
// without re-execution, every freshly finished point is journaled
// write-ahead of its sink delivery, failed trials re-execute under the
// retry policy, and a closed Cancel channel drains in-flight trials and
// aborts the sinks instead of finalizing them.
package campaign

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// RetryPolicy re-executes transiently failed trials. A retried trial runs
// the identical scenario — same derived seed — so a retry that succeeds
// produces the exact bytes the first attempt would have; the retry count
// is an execution knob, never part of scenario identity.
type RetryPolicy struct {
	// Max is the number of re-executions after the first attempt; zero
	// disables retry.
	Max int
	// Backoff is the wait before the first retry, doubling per attempt
	// (attempt n waits Backoff·2ⁿ⁻¹). Zero retries immediately.
	Backoff time.Duration
}

// PointRange restricts a run to the contiguous point-index range
// [Lo, Hi) — the cross-process shard contract (DESIGN.md §14). Because
// grid expansion is deterministic and sinks observe points in index
// order, n processes each running one balanced contiguous range of the
// same campaign produce, concatenated in shard order, byte-identical
// JSONL to a single process running the whole grid.
type PointRange struct {
	Lo, Hi int
}

// ShardRange returns the contiguous range of an n-point grid owned by
// shard index of count: balanced ranges whose sizes differ by at most
// one point, covering the grid exactly.
func ShardRange(points, index, count int) PointRange {
	return PointRange{Lo: index * points / count, Hi: (index + 1) * points / count}
}

// RunOptions configures campaign execution.
type RunOptions struct {
	// Workers bounds the trial pool; zero or negative means one per core.
	// The unit of work is a trial (one replicate of one point), so a
	// replicated campaign parallelizes across points × replications.
	Workers int
	// Sinks receive every finished point in index order. The runner calls
	// Begin before the first point, then exactly one of Close (clean
	// completion — finalize) or Abort (failure or cancellation — flush
	// but do not finalize) per sink.
	Sinks []Sink
	// Run overrides the per-trial executor (tests); nil means
	// experiment.RunWith at SimWorkers.
	Run func(experiment.Scenario) (experiment.Result, error)
	// SimWorkers bounds the data-parallel kernel goroutines inside each
	// simulation (experiment.RunConfig.SimWorkers). It is an execution knob,
	// not a scenario parameter: sink output is byte-identical at every
	// value. Ignored when Run is set. Note the two axes multiply — Workers
	// simulations each running SimWorkers kernel goroutines.
	SimWorkers int
	// Progress, when non-nil, receives live point-level telemetry: a start
	// per claimed trial and a completion per finished point (completion
	// here means simulated, which can run ahead of the ordered sink
	// flush). It feeds the -progress heartbeat and the /debug/progress
	// endpoint; like SimWorkers it never affects sink output.
	Progress *obs.CampaignProgress

	// Retry re-executes failed trials (Max > 0 enables it). Deterministic:
	// a retried trial reruns the identical scenario and seed.
	Retry RetryPolicy
	// Sleep overrides the retry backoff sleeper (tests); nil means
	// time.Sleep.
	Sleep func(time.Duration)

	// Checkpoint, when non-empty, is the directory whose journal durably
	// records every finished point BEFORE any sink observes it — the
	// write-ahead contract that makes a killed run resumable. Without
	// Resume, a journal already there is truncated.
	Checkpoint string
	// Resume replays the journal in Checkpoint before anything runs: each
	// record is validated against this campaign's grid, and its point
	// replays into the sinks without re-execution (and without being
	// journaled again), so a resumed run's sink output is byte-identical
	// to an uninterrupted one. A missing journal is an empty history.
	// Ignored without Checkpoint.
	Resume bool
	// Cache, when non-nil, is consulted before executing each remaining
	// point and updated after each fresh completion — cross-campaign reuse
	// keyed by canonical scenario hash.
	Cache *checkpoint.Cache

	// Cancel, when non-nil, requests a graceful stop when closed: workers
	// finish (and journal) the trials already in flight, claim nothing
	// new, sinks are aborted, and Run returns ErrCancelled.
	Cancel <-chan struct{}

	// Range, when non-nil, restricts the run to the points in [Lo, Hi):
	// only those points are hashed, executed (or replayed), and streamed
	// to the sinks, and the returned slice is populated only inside the
	// range. Nil means the whole grid. See PointRange for the shard
	// contract this implements.
	Range *PointRange
}

// Run executes every trial and returns the per-point replicate vectors in
// point order — results[i][r] is replicate r of point i, a single-element
// slice for unreplicated campaigns. Sinks have already received the full
// stream when it returns a nil error. With opts.Range set, "every trial"
// means the range's trials: entries outside [Lo, Hi) stay nil and the
// sinks observe exactly the range, in index order.
func (c *Campaign) Run(opts RunOptions) ([][]experiment.Result, error) {
	abortSinks := func() error {
		var err error
		for _, s := range opts.Sinks {
			err = errors.Join(err, s.Abort())
		}
		return err
	}
	lo, hi := 0, len(c.Points)
	if opts.Range != nil {
		lo, hi = opts.Range.Lo, opts.Range.Hi
		if lo < 0 || hi > len(c.Points) || lo > hi {
			return nil, errors.Join(
				fmt.Errorf("campaign %q: point range [%d,%d) outside the %d-point grid", c.Spec.Name, lo, hi, len(c.Points)),
				abortSinks())
		}
	}

	// The resume protocol: replay and validate the journal, then reopen it
	// for append. Completed maps point index → replicate vector.
	var journal *checkpoint.Journal
	var completed map[int][]experiment.Result
	if opts.Checkpoint != "" {
		var err error
		if opts.Resume {
			if completed, err = c.loadCheckpoint(opts.Checkpoint); err != nil {
				return nil, errors.Join(err, abortSinks())
			}
		}
		if journal, err = checkpoint.OpenJournal(opts.Checkpoint, opts.Resume); err != nil {
			return nil, errors.Join(err, abortSinks())
		}
		// Every Append already synced its record; Close has nothing left
		// to flush.
		defer journal.Close()
	}
	for i, s := range opts.Sinks {
		if err := s.Begin(c); err != nil {
			// Abort every sink through the failing one: its Begin may have
			// buffered partial output (e.g. a CSV header) that must be
			// flushed, but nothing may be finalized.
			for _, begun := range opts.Sinks[:i+1] {
				begun.Abort()
			}
			return nil, err
		}
	}

	reps := c.Replications()

	// left[i] counts point i's unfinished trials. Points replayed from the
	// journal of a resumed run start at zero; loadCheckpoint already
	// validated indices, hashes, and vector lengths, and completions
	// outside this run's range belong to other shards and are ignored.
	results := make([][]experiment.Result, len(c.Points))
	left := make([]int, len(c.Points))
	for i := lo; i < hi; i++ {
		if rs, ok := completed[i]; ok {
			results[i] = rs
			opts.Progress.PointResumed(i)
		} else {
			left[i] = reps
		}
	}

	// Ordered streaming: flush hands the sinks every finished point from
	// next up to the first unfinished one or to upto, whichever comes
	// first. scenarioJSON, if not nil, is the wire form of point upto-1's
	// scenario. The pool serializes its done calls, so this state needs no
	// lock of its own.
	next := lo
	flush := func(upto int, scenarioJSON []byte) error {
		for ; next < upto && left[next] == 0; next++ {
			p := c.Points[next]
			if next == upto-1 {
				p.scenarioJSON = scenarioJSON
			}
			for _, s := range opts.Sinks {
				var err error
				if reps > 1 {
					err = s.Aggregate(p, NewAggregate(results[next]))
				} else {
					err = s.Point(p, results[next][0])
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Canonical hashes are only needed when some durability layer is on,
	// and only for the points this run owns. One pass hashes each point,
	// serves it from the cross-campaign cache if it can — hits are
	// journaled in index order, still write-ahead of the sinks — and feeds
	// the sinks the finished prefix, so a point that streams at once hands
	// them the bytes it was hashed from. The pass holds one point's bytes
	// at a time: a point behind an unfinished one keeps only its hash, and
	// its sinks encode its scenario when execution fills the gap.
	var hashes []string
	if journal != nil || opts.Cache != nil {
		hashes = make([]string, len(c.Points))
		for i := lo; i < hi; i++ {
			sc := c.Points[i].Scenario
			canonical, err := experiment.CanonicalScenarioJSON(sc)
			if err != nil {
				return nil, errors.Join(fmt.Errorf("campaign %q: hash point %d: %w", c.Spec.Name, i, err), abortSinks())
			}
			hashes[i] = experiment.HashCanonicalJSON(canonical)
			if left[i] > 0 && opts.Cache != nil {
				rs, hit, err := opts.Cache.Get(hashes[i])
				if err != nil {
					return nil, errors.Join(fmt.Errorf("campaign %q: %w", c.Spec.Name, err), abortSinks())
				}
				// A vector of the wrong length under a hash that encodes
				// the replication count is a damaged entry: a miss.
				if hit && len(rs) == reps {
					if journal != nil {
						rec := checkpoint.Record{Index: i, Hash: hashes[i], Results: rs}
						if err := journal.Append(rec); err != nil {
							return nil, errors.Join(fmt.Errorf("campaign %q: %w", c.Spec.Name, err), abortSinks())
						}
					}
					results[i] = rs
					left[i] = 0
					opts.Progress.PointCached(i)
				}
			}
			// The canonical bytes are the defaulted scenario's; a point
			// built by hand with defaults left unset keeps its own record.
			if sc != sc.WithDefaults() {
				canonical = nil
			}
			if err := flush(i+1, canonical); err != nil {
				return nil, errors.Join(err, abortSinks())
			}
		}
	}

	var trials []trial
	for i := lo; i < hi; i++ {
		if left[i] == 0 {
			continue
		}
		results[i] = make([]experiment.Result, reps)
		for r := 0; r < reps; r++ {
			trials = append(trials, trial{i, r})
		}
	}

	// done files one finished trial. A point reaches the journal, the cache
	// and the sinks only once its last trial is in — whole or not at all.
	// An error stops the pool instead of letting the remaining trials
	// simulate into a dead sink.
	done := func(t trial, res experiment.Result) error {
		i := t.point
		results[i][t.rep] = res
		if left[i]--; left[i] > 0 {
			return nil
		}
		opts.Progress.PointDone(i)
		// Write-ahead: the journal record must be durable before any sink
		// observes the point, so a crash after partial sink output always
		// finds the point in the journal on resume.
		if journal != nil {
			rec := checkpoint.Record{Index: i, Hash: hashes[i], Results: results[i]}
			if err := journal.Append(rec); err != nil {
				return err
			}
		}
		if opts.Cache != nil {
			if err := opts.Cache.Put(hashes[i], results[i]); err != nil {
				return err
			}
		}
		return flush(hi, nil)
	}

	runFn := opts.Run
	if runFn == nil {
		cfg := experiment.RunConfig{SimWorkers: opts.SimWorkers}
		runFn = func(sc experiment.Scenario) (experiment.Result, error) {
			return experiment.RunWith(sc, cfg)
		}
	}
	if opts.Retry.Max > 0 {
		runFn = withRetry(runFn, opts.Retry, opts.Sleep, opts.Cancel, opts.Progress)
	}
	if err := c.runTrials(trials, opts, runFn, done); err != nil {
		return nil, errors.Join(err, abortSinks())
	}

	var closeErr error
	for _, s := range opts.Sinks {
		closeErr = errors.Join(closeErr, s.Close())
	}
	if closeErr != nil {
		return nil, closeErr
	}
	return results, nil
}

// withRetry wraps a trial executor with the retry policy: up to policy.Max
// re-executions of the identical scenario, exponential backoff between
// attempts, stopping early once cancel closes (a graceful shutdown should
// not sit out backoff waits re-running a doomed trial).
func withRetry(run func(experiment.Scenario) (experiment.Result, error), policy RetryPolicy, sleep func(time.Duration), cancel <-chan struct{}, progress *obs.CampaignProgress) func(experiment.Scenario) (experiment.Result, error) {
	if sleep == nil {
		//repolint:allow detsource backoff between retry attempts is a wall-clock wait by definition; it delays execution but never alters results
		sleep = time.Sleep
	}
	// Recover per ATTEMPT, not per point: a panicking first attempt
	// becomes an ordinary error the loop can retry.
	run = experiment.Recovered(run)
	return func(sc experiment.Scenario) (experiment.Result, error) {
		var lastErr error
		for attempt := 0; ; attempt++ {
			res, err := run(sc)
			if err == nil {
				return res, nil
			}
			lastErr = err
			if attempt >= policy.Max || closed(cancel) {
				return experiment.Result{}, fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
			}
			if policy.Backoff > 0 {
				sleep(policy.Backoff << attempt)
			}
			progress.TrialRetried()
		}
	}
}

// loadCheckpoint replays the journal in dir and validates every record
// against this campaign's grid: the index must be inside the grid, the
// record's scenario hash must match the point at that index (a journal
// can never resume a campaign it does not belong to), and the replicate
// vector must be full. It returns the completed points by index; a
// missing journal is an empty history. Duplicate indices keep the later
// record — a cache-refresh overwrite, not an error.
func (c *Campaign) loadCheckpoint(dir string) (map[int][]experiment.Result, error) {
	recs, err := checkpoint.LoadJournal(dir)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, nil
	}
	reps := c.Replications()
	completed := make(map[int][]experiment.Result, len(recs))
	for _, r := range recs {
		if r.Index < 0 || r.Index >= len(c.Points) {
			return nil, fmt.Errorf("campaign %q: journal record index %d outside the %d-point grid — wrong campaign or edited spec", c.Spec.Name, r.Index, len(c.Points))
		}
		want, err := experiment.ScenarioHash(c.Points[r.Index].Scenario)
		if err != nil {
			return nil, fmt.Errorf("campaign %q: hash point %d: %w", c.Spec.Name, r.Index, err)
		}
		if r.Hash != want {
			return nil, fmt.Errorf("campaign %q: journal record for point %d carries scenario hash %s, grid expects %s — the journal belongs to a different campaign", c.Spec.Name, r.Index, r.Hash, want)
		}
		if len(r.Results) != reps {
			return nil, fmt.Errorf("campaign %q: journal record for point %d has %d replicates, grid expects %d", c.Spec.Name, r.Index, len(r.Results), reps)
		}
		completed[r.Index] = r.Results
	}
	return completed, nil
}
