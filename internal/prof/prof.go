// Package prof wires the standard pprof profilers into the command-line
// tools, so kernel regressions found by the benchmark harness can be
// chased down with `go tool pprof` on a real run instead of a synthetic
// benchmark.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath (when non-empty) and arranges for a
// heap profile to be written to memPath (when non-empty) by the returned
// stop function. Stop is idempotent and safe to both defer and call before
// os.Exit; with no paths set it is a no-op.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer f.Close()
			// Fold in anything still unswept so the numbers match the
			// allocator's view.
			runtime.GC()
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "prof: write heap profile:", err)
			}
		}
	}, nil
}
