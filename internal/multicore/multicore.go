// Package multicore runs several cores in lockstep over a shared LLC and
// DRAM, each with its own TIP unit — the multi-core deployment §3.2
// sketches ("Each physical core needs its own TIP unit"; perf tags every
// sample with core/process/thread identifiers so profiles separate cleanly).
//
// The simulated machine is multi-programmed: each core runs its own
// workload. Cores contend in the shared LLC and memory controller, so a
// co-runner changes a benchmark's timing — but not the accuracy of its TIP
// profile, which each test validates against that core's own Oracle.
//
// Simultaneous multithreading (two logical cores sharing one physical
// pipeline) is out of scope; DESIGN.md records the substitution.
package multicore

import (
	"context"
	"fmt"

	"github.com/tipprof/tip/internal/cache"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// CoreSpec describes one core's workload and trace consumers.
type CoreSpec struct {
	// Workload runs on this core.
	Workload *workload.Workload
	// Consumers observe this core's per-cycle commit-stage records.
	Consumers []trace.Consumer
}

// CoreResult is one core's outcome.
type CoreResult struct {
	// Stats are the core's run statistics.
	Stats cpu.Stats
	// Finished reports that the core ran its workload to the end and its
	// consumers were Finished. Only a failed Run leaves a core unfinished.
	Finished bool
}

// System is a lockstep multi-core machine.
type System struct {
	maxCycles uint64
	cores     []*cpu.Core
	specs     []CoreSpec
	llc       *cache.Cache
}

// New builds a system with one core per spec, all sharing an LLC and DRAM.
// cfg is the per-core configuration (Table 1); its Hierarchy block sizes the
// private L1/L2 stacks and the shared LLC/DRAM, and its MaxCycles caps the
// lockstep run.
func New(cfg cpu.Config, specs []CoreSpec) *System {
	if len(specs) == 0 {
		panic("multicore: no cores")
	}
	hcfg := cfg.Hierarchy
	shared := cache.NewSharedLLC(hcfg)
	sys := &System{maxCycles: cfg.MaxCycles, specs: specs, llc: shared}
	for i, spec := range specs {
		// Each core gets a disjoint physical range (per-process address
		// spaces) so co-runners contend for capacity without sharing
		// data.
		l1i, l1d := cache.NewPrivateStack(hcfg, shared, uint64(i)<<44)
		core := cpu.NewWithCaches(cfg, spec.Workload.Prog, spec.Workload.Stream(), l1i, l1d)
		for _, reg := range spec.Workload.Prefault {
			core.MMU().PrefaultRange(reg.Base, reg.Size)
		}
		sys.cores = append(sys.cores, core)
	}
	return sys
}

// LLC exposes the shared last-level cache for inspection.
func (s *System) LLC() *cache.Cache { return s.llc }

// cancelCheckMask matches cpu.Core.RunContext's polling cadence: ctx.Err is
// checked every 8192 lockstep cycles.
const cancelCheckMask = 8191

// Run steps every core each cycle until all workloads finish. Each core's
// consumers see exactly the records that core produced, a run of quiescent
// cycles held until it ends and then delivered through trace.Repeat, and
// then Finish with that core's cycle count. So a trace.Capture on a core
// records what its own TIP unit would (§3.2). Cancelling ctx aborts the
// loop within a few thousand cycles; a nil ctx disables cancellation. A
// failed Run still returns one result per core, so its caller can tell
// which cores' consumers were Finished.
func (s *System) Run(ctx context.Context) ([]CoreResult, error) {
	n := len(s.cores)
	results := make([]CoreResult, n)
	recs := make([]trace.Record, n)
	doneCycles := make([]uint64, n) // each core's last commit cycle
	held := make([]trace.Record, n) // the record each core's pending run repeats
	runs := make([]uint64, n)       // each core's pending run length
	var scratch trace.Record
	flush := func(i int) {
		if runs[i] == 0 {
			return
		}
		for _, c := range s.specs[i].Consumers {
			trace.Repeat(c, &held[i], runs[i], &scratch)
		}
		runs[i] = 0
	}
	remaining := n

	for cycle := uint64(0); remaining > 0; cycle++ {
		// MaxCycles permits exactly MaxCycles lockstep cycles (cycle
		// values 0..MaxCycles-1), the same boundary cpu.Core.RunContext
		// enforces.
		if s.maxCycles > 0 && cycle >= s.maxCycles {
			return results, fmt.Errorf("multicore: exceeded %d cycles with %d cores unfinished", s.maxCycles, remaining)
		}
		if ctx != nil && cycle&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return results, fmt.Errorf("multicore: aborted at cycle %d: %w", cycle, err)
			}
		}
		for i, core := range s.cores {
			if results[i].Finished {
				continue
			}
			finished, repeat := core.Step(cycle, &recs[i])
			if repeat {
				if runs[i] == 0 {
					held[i] = recs[i]
				}
				held[i].Cycle = cycle
				runs[i]++
			} else {
				flush(i)
				for _, c := range s.specs[i].Consumers {
					c.OnCycle(&recs[i])
				}
			}
			if recs[i].CommitCount > 0 {
				doneCycles[i] = cycle
			}
			if finished {
				flush(i)
				remaining--
				core.FinalizeStats(doneCycles[i])
				results[i] = CoreResult{Stats: core.Stats(), Finished: true}
				for _, c := range s.specs[i].Consumers {
					c.Finish(results[i].Stats.Cycles)
				}
			}
		}
	}
	return results, nil
}
