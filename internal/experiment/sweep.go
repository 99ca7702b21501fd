// sweep.go is the parallel execution engine behind every campaign, the
// paper's figures included: a declarative scenario grid executed by a
// bounded worker pool. Scenarios are independent, fully seeded
// simulations — each worker goroutine builds its own Scheduler — so
// parallel execution is deterministic: results are reassembled in point
// order and are byte-identical at every pool size.
package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrCancelled is returned by Execute when the sweep's Cancel channel
// closes before every point completes. Points already handed to OnPoint
// are fully delivered; the error only says the grid was not finished.
var ErrCancelled = errors.New("experiment: sweep cancelled")

// PanicError is a per-trial panic recovered by the sweep workers: the
// panicking value plus the goroutine stack at recovery. One bad trial
// becomes one failed point instead of taking down the whole campaign
// process; the stack travels in the error so the crash site survives into
// logs and journals.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value followed by the captured stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("trial panicked: %v\n%s", e.Value, e.Stack)
}

// Recovered wraps a trial executor so a panic surfaces as a *PanicError
// return instead of unwinding the goroutine. The sweep applies it to every
// executor; retry layers apply it themselves so each ATTEMPT recovers
// independently (a panicking first attempt can be retried).
func Recovered(run func(Scenario) (Result, error)) func(Scenario) (Result, error) {
	return func(sc Scenario) (res Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				res, err = Result{}, &PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		return run(sc)
	}
}

// Sweep is a declarative parallel scenario sweep: the points to execute and
// the function that executes one of them.
type Sweep struct {
	// Points are the scenarios to run. Order is the result order.
	Points []Scenario

	// Run executes one point. Nil means RunWith with the zero RunConfig.
	// It must be safe to call concurrently (RunWith is: every call builds a
	// private scheduler, field, and RNG tree).
	Run func(Scenario) (Result, error)

	// Workers bounds the pool. Zero or negative means runtime.GOMAXPROCS(0).
	Workers int

	// OnPoint, when non-nil, is invoked once per successfully completed
	// point with its index, scenario, and result — the streaming hook the
	// campaign sinks hang off. Calls are serialized (never concurrent) but
	// may arrive out of point order when Workers > 1; Execute still returns
	// the full result slice in point order. A non-nil return aborts the
	// sweep — workers stop claiming points and Execute returns that error
	// (a point's own error takes precedence if both occur). After any
	// failure, remaining completions are best-effort.
	OnPoint func(index int, sc Scenario, res Result) error

	// OnStart, when non-nil, is invoked as a worker claims point index,
	// before running it — the live-progress hook (which points are in
	// flight right now). Unlike OnPoint it is NOT serialized: workers call
	// it concurrently, so it must be safe for concurrent use and should be
	// cheap. It cannot abort the sweep.
	OnStart func(index int)

	// Cancel, when non-nil, requests a graceful stop when closed: workers
	// claim no further points but every point already in flight runs to
	// completion and is delivered through OnPoint. Execute then returns
	// ErrCancelled (unless a point failed first, which takes precedence).
	Cancel <-chan struct{}
}

// cancelled reports whether the sweep's Cancel channel has been closed.
func (s Sweep) cancelled() bool {
	if s.Cancel == nil {
		return false
	}
	select {
	case <-s.Cancel:
		return true
	default:
		return false
	}
}

// Execute runs every point through the worker pool and returns results in
// point order. On failure it returns the error of the lowest-indexed failing
// point — the error a point-by-point run would surface first — wrapped with
// that point's position and protocol. One worker claims the points strictly
// in order, so Workers == 1 is the sequential execution.
func (s Sweep) Execute() ([]Result, error) {
	run := s.Run
	if run == nil {
		run = func(sc Scenario) (Result, error) { return RunWith(sc, RunConfig{}) }
	}
	// The recovery boundary sits per trial, inside the worker, so sibling
	// trials in the same worker goroutine keep running after a failure is
	// recorded.
	run = Recovered(run)
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.Points) {
		workers = len(s.Points)
	}
	results := make([]Result, len(s.Points))

	var (
		next   atomic.Int64 // next unclaimed point index
		failed atomic.Bool  // stop claiming new points after any failure
		wg     sync.WaitGroup
		mu     sync.Mutex
		cbMu   sync.Mutex // serializes OnPoint invocations
		errIdx = -1
		first  error
		cbErr  error // first OnPoint error (point errors take precedence)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && !s.cancelled() {
				i := int(next.Add(1)) - 1
				if i >= len(s.Points) {
					return
				}
				if s.OnStart != nil {
					s.OnStart(i)
				}
				r, err := run(s.Points[i])
				if err != nil {
					// Points are claimed in ascending order, so every point
					// below i is finished or in flight when we set failed:
					// the lowest failing index still wins.
					failed.Store(true)
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx = i
						first = fmt.Errorf("sweep point %d (%v): %w", i, s.Points[i].Protocol, err)
					}
					mu.Unlock()
					continue
				}
				results[i] = r
				if s.OnPoint != nil {
					cbMu.Lock()
					err := s.OnPoint(i, s.Points[i], r)
					cbMu.Unlock()
					if err != nil {
						failed.Store(true)
						mu.Lock()
						if cbErr == nil {
							cbErr = err
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	if cbErr != nil {
		return nil, cbErr
	}
	if s.cancelled() && int(next.Load()) < len(s.Points) {
		return nil, ErrCancelled
	}
	return results, nil
}
