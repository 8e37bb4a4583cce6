// Package profile gives the command-line tools their -cpuprofile and
// -memprofile flags: one place that knows how runtime/pprof wants its
// files opened, started, flushed and closed.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations registered on a flag set.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile, taken when the run ends, to this file (go tool pprof)")
	return f
}

// Start begins CPU profiling if -cpuprofile was given. The returned stop
// function ends it and writes the heap profile if -memprofile was given;
// call it once, when the measured work is done. With neither flag set
// both are no-ops.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if f.cpu != "" {
		if cpuFile, err = os.Create(f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if f.mem == "" {
			return nil
		}
		memFile, err := os.Create(f.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // so the profile shows what is live, not what is garbage
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			memFile.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := memFile.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
