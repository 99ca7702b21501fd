// recover.go is the per-trial panic boundary: whoever runs many trials
// (the campaign trial pool, its retry layer, the benchmark harness) wraps
// each one in Recovered, so one bad trial fails that trial instead of
// taking down the process.
package experiment

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a trial panic recovered by Recovered: the panicking value
// plus the goroutine stack at recovery. The stack travels in the error so
// the crash site survives into logs and journals.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value followed by the captured stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("trial panicked: %v\n%s", e.Value, e.Stack)
}

// Recovered wraps a trial executor so a panic surfaces as a *PanicError
// return instead of unwinding the goroutine. The campaign trial pool
// applies it to every trial; retry layers apply it themselves so each
// ATTEMPT recovers independently (a panicking first attempt can be
// retried).
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
