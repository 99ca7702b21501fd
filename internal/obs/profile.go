// profile.go writes the process-wide pprof profiles behind the commands'
// -cpuprofile and -memprofile flags: the file-based counterpart of the
// debug server's live /debug/pprof.
package obs

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// StartProfiles arms the requested pprof outputs: a CPU profile written to
// cpuPath until stop is called, and a heap snapshot written to memPath by
// stop. An empty path disables that profile. stop runs on the way out, so
// it reports a failed heap snapshot on stderr rather than returning it. On
// error stop is a no-op, which keeps the caller's defer unconditional.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	writeHeap := func() {
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}
	if cpuPath == "" {
		return writeHeap, nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return func() {}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return func() {}, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
		writeHeap()
	}, nil
}
