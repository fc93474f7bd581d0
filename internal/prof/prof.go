// Package prof wraps runtime/pprof for the command-line tools: a CPU
// profile that runs for the life of the process and a heap snapshot
// written at exit. Both hamsterrun and hamsterbench expose the same
// -cpuprofile/-memprofile flags through these two helpers, so the
// profiling workflow (see DESIGN.md §5i) is identical across commands.
//
// Both commands are a run function that returns its exit status, with
// the stop function and WriteHeap deferred right after flag validation:
// a run that fails or aborts still leaves its profiles behind. A command
// line rejected during validation has no interesting profile and writes
// none.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU begins a CPU profile streaming to path and returns the stop
// function that must run (defer it) before the process exits. An empty
// path is a no-op: the returned stop does nothing and err is nil, so
// callers can wire the flag unconditionally.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap forces a GC (so the profile reflects live objects, not
// garbage awaiting collection) and writes a heap profile to path. An
// empty path is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
