// Package cli holds the flag handling the tipsim and tipbench commands
// share: the runtime profiling outputs and the sampled-schedule flags.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"

	tip "github.com/tipprof/tip"
)

// Profiling holds the -cpuprofile, -memprofile and -exectrace flags; an
// empty path leaves that output off.
type Profiling struct {
	CPU, Mem, Trace string
}

// Register defines the profiling flags on fs.
func (p *Profiling) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&p.Trace, "exectrace", "", "write a runtime execution trace (go tool trace) to this file")
}

// Start begins the CPU profile and execution trace. The returned stop ends
// them and writes the heap profile; call it once on the way out. A failure
// while stopping is reported on stderr, since the run's output is already
// complete by then.
func (p *Profiling) Start() (stop func(), err error) {
	var closers []func() error
	stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
			}
		}
	}
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		closers = append(closers, func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if p.Mem != "" {
		closers = append(closers, func() error { return writeHeapProfile(p.Mem) })
	}
	if p.Trace != "" {
		f, err := os.Create(p.Trace)
		if err != nil {
			return stop, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return stop, err
		}
		closers = append(closers, func() error { rtrace.Stop(); return f.Close() })
	}
	return stop, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SampledFlags holds the sampled-schedule flags: -window, -interval, -warmup
// and -windowworkers, spelled as tip.ConfigureSampled takes them.
type SampledFlags struct {
	Window, Interval uint64
	Warmup           string
	Workers          int
}

// Register defines the sampled-schedule flags on fs; mode names the flag
// that selects sampled simulation (e.g. "-sampled").
func (f *SampledFlags) Register(fs *flag.FlagSet, mode string) {
	fs.Uint64Var(&f.Window, "window", 0, "sampled measurement-window length in cycles (0 = default 8192; requires "+mode+")")
	fs.Uint64Var(&f.Interval, "interval", 0, "sampled window period in cycles (0 = default 131072; requires "+mode+")")
	fs.StringVar(&f.Warmup, "warmup", "", "detailed warmup cycles before each sampled window, or \"auto\" to size from the fast-forward leg length (empty = default 8192; requires "+mode+")")
	fs.IntVar(&f.Workers, "windowworkers", 0, "checkpoint-parallel sampled simulation: worker cores running detailed windows concurrently over the functional sweep (0 = serial; output is byte-identical at any count >= 1; requires "+mode+")")
}

// Apply makes rc a sampled run of the flagged schedule when selected is set.
// Otherwise the flags would be silently ignored, so any that is set is
// rejected as requiring mode.
func (f *SampledFlags) Apply(rc *tip.RunConfig, selected bool, mode string) error {
	if !selected {
		switch {
		case f.Window != 0:
			return fmt.Errorf("-window requires %s", mode)
		case f.Interval != 0:
			return fmt.Errorf("-interval requires %s", mode)
		case f.Warmup != "":
			return fmt.Errorf("-warmup requires %s", mode)
		case f.Workers != 0:
			return fmt.Errorf("-windowworkers requires %s", mode)
		}
		return nil
	}
	if f.Workers < 0 {
		return fmt.Errorf("-windowworkers must be >= 0, got %d", f.Workers)
	}
	rc.WindowWorkers = f.Workers
	return tip.ConfigureSampled(rc, f.Window, f.Interval, f.Warmup)
}
