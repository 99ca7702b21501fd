// pool.go is the campaign's trial pool: the bounded worker pool that
// executes a run's trials. The unit of work is a trial — replicate r of
// grid point i — so replicates parallelize exactly like points. Trials are
// independent, fully seeded simulations (each builds its own Scheduler,
// field and RNG tree), so the pool is deterministic: every result lands at
// its (point, replicate) slot and the runner reassembles them in point
// order, byte-identical at every pool size.
package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/experiment"
)

// ErrCancelled is returned (wrapped) by Run when RunOptions.Cancel closes
// before every trial was claimed. Points already journaled stay journaled
// and the sinks are aborted; the error only says the grid was not
// finished.
var ErrCancelled = errors.New("run cancelled")

// trial is the pool's unit of work: replicate rep of grid point point.
type trial struct{ point, rep int }

// runTrials executes trials on at most opts.Workers goroutines (zero or
// negative means one per core) and hands every successful one to done.
//
// Trials are claimed strictly in slice order, so one worker is the
// sequential run. Each trial runs under experiment.Recovered, so a panic
// fails that trial instead of the process. done calls are serialized;
// after its first error the pool stops calling it. After any failure, or
// once opts.Cancel closes, workers claim nothing new, but trials already
// in flight finish and — unless done has failed — are delivered.
//
// The returned error is, in precedence order: the lowest-ordered failing
// trial's error, named by its grid point and replicate (every trial below
// it was claimed before the failure was recorded, so this is the error a
// sequential run surfaces); done's first error; ErrCancelled if some trial
// was never claimed.
func (c *Campaign) runTrials(trials []trial, opts RunOptions, run func(experiment.Scenario) (experiment.Result, error), done func(trial, experiment.Result) error) error {
	run = experiment.Recovered(run)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(trials))

	var (
		next     atomic.Int64 // next unclaimed trial
		failed   atomic.Bool  // stop claiming after any failure
		wg       sync.WaitGroup
		mu       sync.Mutex // guards the fields below and serializes done
		failedAt = len(trials)
		trialErr error
		doneErr  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && !closed(opts.Cancel) {
				k := int(next.Add(1)) - 1
				if k >= len(trials) {
					return
				}
				t := trials[k]
				opts.Progress.PointStarted(t.point)
				res, err := run(experiment.Replicate(c.Points[t.point].Scenario, t.rep))
				if err != nil {
					// Stop claiming before waiting for the lock, which a
					// long done call may hold.
					failed.Store(true)
				}
				mu.Lock()
				switch {
				case err != nil:
					if k < failedAt {
						failedAt = k
						trialErr = fmt.Errorf("point %d (%s) replicate %d: %w",
							t.point, c.Points[t.point].ParamsString(), t.rep, err)
					}
				case doneErr == nil:
					if doneErr = done(t, res); doneErr != nil {
						failed.Store(true)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	switch {
	case trialErr != nil:
		return trialErr
	case doneErr != nil:
		return doneErr
	case closed(opts.Cancel) && int(next.Load()) < len(trials):
		return ErrCancelled
	}
	return nil
}

// closed reports whether ch has been closed; a nil channel never is.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
