package tip

import (
	"context"
	"errors"
	"fmt"

	"github.com/tipprof/tip/internal/cache"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/trace"
)

// errMulticoreSampled rejects RunConfig.Sampled on the multicore routes: no
// sampled schedule steps several lockstep cores' legs together.
var errMulticoreSampled = errors.New("tip: multicore runs do not support sampled simulation (RunConfig.Sampled)")

// errMulticoreExtras rejects extra consumers on the multicore routes: an
// extra consumer would see one core's stream per matrix it joined.
var errMulticoreExtras = errors.New("tip: multicore runs do not support extra consumers (RunConfig.ExtraConsumers, ExtraConsumersAt)")

// checkMulticore rejects the RunConfig settings the multicore routes cannot
// honour, before anything is simulated or replayed.
func checkMulticore(rc *RunConfig) error {
	if rc.Sampled {
		return errMulticoreSampled
	}
	if len(rc.ExtraConsumers) > 0 || rc.ExtraConsumersAt != nil {
		return errMulticoreExtras
	}
	return nil
}

// MulticoreResult is the outcome of one multi-programmed profiled run: one
// Result per core, each validated against that core's own Oracle (§3.2:
// every physical core has its own TIP unit).
type MulticoreResult struct {
	// Cores holds one Result per core, in spec order.
	Cores []*Result
	// TotalCycles is the lockstep run's length: the last committing cycle
	// across all cores, plus one.
	TotalCycles uint64
}

// RunMulticore runs ws lockstep on one shared-LLC system, workload i on
// core i, and evaluates each core's profiler matrix against that core's own
// Oracle. It is runFused with one stream per core under the Exact policy:
// each core's whole run is its pilot window, so its interval is calibrated
// from its own cycle count, its replay starts as soon as it finishes, and
// its Result equals a replay of its capture by RunMulticoreCaptured. A
// caller that also needs each core's encoded trace passes one capture per
// core in capts; capture i then records core i's stream as that core's TIP
// unit would (§3.2), and the caller owns every capture's Close and Err. The
// settings checkMulticore rejects are rejected before anything runs.
func RunMulticore(ctx context.Context, ws []*Workload, rc RunConfig, capts ...*TraceCapture) (*MulticoreResult, error) {
	return runMulticore(ctx, ws, rc, wholeRunPilot, capts)
}

// RunMulticoreStreaming is RunMulticore under the Pilot policy, as
// RunStreaming is Run's: each core's interval is calibrated from its own
// DefaultPilotCycles window, and its records stream into its replay shards
// through a bounded ring while the lockstep run goes on, so peak memory does
// not grow with run length.
func RunMulticoreStreaming(ctx context.Context, ws []*Workload, rc RunConfig, capts ...*TraceCapture) (*MulticoreResult, error) {
	return runMulticore(ctx, ws, rc, DefaultPilotCycles, capts)
}

// runMulticore runs the lockstep producer through runFused under pilotCycles.
func runMulticore(ctx context.Context, ws []*Workload, rc RunConfig, pilotCycles uint64, capts []*TraceCapture) (*MulticoreResult, error) {
	if err := checkMulticore(&rc); err != nil {
		return nil, err
	}
	if len(ws) == 0 || len(capts) != 0 && len(capts) != len(ws) {
		return nil, fmt.Errorf("tip: multicore run: %d workloads, %d captures", len(ws), len(capts))
	}
	return newMulticoreResult(runFused(ctx, ws, rc, pilotCycles, lockstep(ws, rc.Core, capts)))
}

// lockstep is the full-detail producer of every run, one core or several:
// cpu.Lockstep over sharedCores(ws), core i feeding stream i, teed with
// capts[i] when captures are given. Each core's stream is Finished as that
// core finishes; if the run fails, only the unfinished cores' streams are
// Failed. A lone core at physical offset 0 over its own LLC is the
// hierarchy cpu.New builds, so a one-core run is the single-core run.
func lockstep(ws []*Workload, cfg CoreConfig, capts []*TraceCapture) producer {
	return func(ctx context.Context, ss []*trace.Stream) ([]CoreStats, *SampledRunStats, error) {
		cores, _ := sharedCores(cfg, ws)
		consumers := make([]trace.Consumer, len(ws))
		for i, s := range ss {
			consumers[i] = s
			if capts != nil {
				consumers[i] = &trace.Tee{Consumers: []trace.Consumer{s, capts[i]}}
			}
		}
		finished, err := cpu.Lockstep(ctx, cores, consumers)
		stats := make([]CoreStats, len(cores))
		for i, c := range cores {
			if !finished[i] {
				ss[i].Fail(err)
			}
			stats[i] = c.Stats()
		}
		return stats, nil, err
	}
}

// sharedCores builds the multi-programmed machine §3.2 sketches: one
// prefaulted core per workload, each with its own TIP unit and private L1/L2
// stack over the returned shared LLC and DRAM. Each core gets a disjoint
// physical range (per-process address spaces), so co-runners contend for
// capacity and bandwidth without sharing data. SMT (two logical cores on one
// pipeline) is out of scope; DESIGN.md records the substitution.
func sharedCores(cfg CoreConfig, ws []*Workload) ([]*cpu.Core, *cache.Cache) {
	llc := cache.NewSharedLLC(cfg.Hierarchy)
	cores := make([]*cpu.Core, len(ws))
	for i, w := range ws {
		l1i, l1d := cache.NewPrivateStack(cfg.Hierarchy, llc, uint64(i)<<44)
		cores[i] = prefaulted(cpu.NewWithCaches(cfg, w.Prog, w.Stream(), l1i, l1d), w)
	}
	return cores, llc
}

// RunMulticoreCaptured evaluates rc's profiler matrix per core by replaying
// capture i, core i's trace of an earlier lockstep run (such as one
// RunMulticoreStreaming teed), through RunCaptured with workload i and
// stats[i], that run's statistics for core i. So with rc.SampleInterval
// zero each core is calibrated from its own cycle count, as RunMulticore
// calibrates it. The cores replay concurrently through eachCore, each over
// max(1, ReplayWorkers/len(ws)) shards.
func RunMulticoreCaptured(ctx context.Context, ws []*Workload, capts []*TraceCapture, stats []CoreStats, rc RunConfig) (*MulticoreResult, error) {
	if err := checkMulticore(&rc); err != nil {
		return nil, err
	}
	if len(ws) == 0 || len(ws) != len(capts) || len(ws) != len(stats) {
		return nil, fmt.Errorf("tip: multicore replay: %d workloads, %d captures, %d stats", len(ws), len(capts), len(stats))
	}
	return newMulticoreResult(replayCaptured(ctx, ws, capts, stats, rc))
}

// newMulticoreResult packages per-core results; the lockstep run lasted as
// long as its longest core.
func newMulticoreResult(cores []*Result, err error) (*MulticoreResult, error) {
	if err != nil {
		return nil, err
	}
	res := &MulticoreResult{Cores: cores}
	for _, cr := range cores {
		res.TotalCycles = max(res.TotalCycles, cr.Stats.Cycles)
	}
	return res, nil
}
