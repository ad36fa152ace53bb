// Package tip is the public API of the TIP reproduction: it wires a
// workload, the cycle-level BOOM-style core, and any set of profilers
// together, runs the simulation, and returns profiles, profile errors, and
// cycle stacks.
//
// The package reproduces "TIP: Time-Proportional Instruction Profiling"
// (Gottschall, Eeckhout, Jahre — MICRO 2021): an Oracle golden-reference
// profiler, the practical TIP profiler, and the baseline heuristics used by
// real hardware (Software interrupts, AMD-IBS/Arm-SPE dispatch tagging,
// CoreSight-style LCI, Intel-PEBS-style NCI).
//
// Quick start:
//
//	w, err := tip.LoadWorkload("imagick", 1)
//	res, err := tip.Run(context.Background(), w, tip.DefaultRunConfig())
//	fmt.Println(res.Err(tip.KindNCI, tip.GranInstruction))  // NCI's error
//	fmt.Println(res.Err(tip.KindTIP, tip.GranInstruction))  // TIP's error
package tip

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/tipprof/tip/internal/check"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// Re-exported types so downstream users never import internal packages.
type (
	// Granularity selects the symbol level for profiles and errors.
	Granularity = profile.Granularity
	// Kind identifies a sampled-profiler policy.
	Kind = profiler.Kind
	// Profile is an attributed-cycle profile.
	Profile = profile.Profile
	// CycleStack is a per-category cycle breakdown (Fig. 7).
	CycleStack = profile.CycleStack
	// Category is a commit-stage cycle type.
	Category = profile.Category
	// CoreConfig parameterises the simulated core (Table 1 defaults).
	CoreConfig = cpu.Config
	// CoreStats reports a run's cycles/instructions/flushes.
	CoreStats = cpu.Stats
	// Workload is a generated benchmark program.
	Workload = workload.Workload
	// Overhead models §3.2's storage and data-rate analysis.
	Overhead = profiler.Overhead
	// TraceCapture is a recorded commit-stage trace that can be replayed
	// through any number of profiler configurations without re-simulating
	// the core (§4's capture-once, evaluate-many methodology).
	TraceCapture = trace.Capture
)

// Re-exported constants.
const (
	GranInstruction = profile.GranInstruction
	GranBlock       = profile.GranBlock
	GranFunction    = profile.GranFunction

	KindSoftware = profiler.KindSoftware
	KindDispatch = profiler.KindDispatch
	KindLCI      = profiler.KindLCI
	KindNCI      = profiler.KindNCI
	KindNCIILP   = profiler.KindNCIILP
	KindTIPILP   = profiler.KindTIPILP
	KindTIP      = profiler.KindTIP

	CatExecution  = profile.CatExecution
	CatALUStall   = profile.CatALUStall
	CatLoadStall  = profile.CatLoadStall
	CatStoreStall = profile.CatStoreStall
	CatFrontend   = profile.CatFrontend
	CatMispredict = profile.CatMispredict
	CatMiscFlush  = profile.CatMiscFlush
)

// AllKinds lists every sampled-profiler policy in evaluation order.
func AllKinds() []Kind { return profiler.AllKinds() }

// Benchmarks lists the 27-benchmark suite in Fig. 7 order.
func Benchmarks() []string { return workload.Names() }

// BenchmarkClass returns a benchmark's expected Fig. 7 class.
func BenchmarkClass(name string) (string, bool) {
	s, ok := workload.ByName(name)
	return s.Class, ok
}

// LoadWorkload generates the named benchmark ("imagick-opt" selects the §6
// optimized variant).
func LoadWorkload(name string, seed uint64) (*Workload, error) {
	return workload.Load(name, seed)
}

// DefaultCoreConfig returns the Table 1 core configuration.
func DefaultCoreConfig() CoreConfig { return cpu.DefaultConfig() }

// RunConfig controls one profiled simulation.
type RunConfig struct {
	// Core is the simulated core configuration.
	Core CoreConfig
	// Profilers lists the sampled profilers to model out-of-band; nil
	// means all of them.
	Profilers []Kind
	// SampleInterval is the sampling period in cycles. Zero means
	// calibrate: set the interval so the run collects about
	// TargetSamples samples — the scaled equivalent of the paper's
	// 4 kHz on multi-minute benchmarks (see DESIGN.md) — from the cycle
	// count of a pilot window of the single cycle-level simulation (the
	// whole run under Run), and feed the profilers by replaying the
	// window before the rest of the run.
	SampleInterval uint64
	// TargetSamples is the calibration target (default 4096).
	TargetSamples uint64
	// RandomSampling picks a random cycle within each interval instead
	// of the interval end (§5.2).
	RandomSampling bool
	// WithBreakdown records Oracle's per-instruction category matrix
	// (needed for Fig. 12/13 reports).
	WithBreakdown bool
	// ExtraConsumers receive the trace alongside the profilers.
	ExtraConsumers []trace.Consumer
	// ExtraConsumersAt, when set, is invoked once the sampling interval is
	// known — after calibration, before any record reaches the profilers —
	// and its result is appended to ExtraConsumers. estCycles is the
	// cycle-count estimate the interval was calibrated from (the exact
	// total under Run and RunCaptured, the pilot extrapolation under
	// RunStreaming and RunSampled, 0 when an explicit SampleInterval made
	// no estimate necessary).
	ExtraConsumersAt func(interval, estCycles uint64) []trace.Consumer
	// Check attaches a cycle-level invariant checker (internal/check) to
	// the trace stream and fails the run on any violated trace invariant
	// or profiler conservation law.
	Check bool
	// ReplayWorkers is the number of replay shards the profiler matrix is
	// fanned out over (0 or 1 = one). Each shard decodes the captured
	// trace or pilot itself, then takes the stream's ring, and owns a
	// disjoint subset of the profilers behind its own dispatcher; results
	// are byte-identical at any worker count. Shards past one more than the
	// number of sampled profilers would own nothing and are never made.
	ReplayWorkers int
	// Sampled selects SMARTS-style sampled simulation: detailed
	// measurement windows of WindowCycles, one per WindowInterval of
	// estimated execution, with the gap covered by functional
	// fast-forward (architectural state plus cache/TLB/predictor warming,
	// no timing) and an optional WarmupCycles detailed prefix whose
	// observations are discarded. Profilers see only the measurement
	// windows, renumbered onto a contiguous clock; Result.Stats.Cycles
	// becomes an estimate built by weighting each fast-forward leg with
	// its preceding window's CPI (see RunSampled). Runs through the same
	// fused pipeline as RunStreaming. Multicore runs reject it.
	Sampled bool
	// WindowCycles is the length of each detailed measurement window in
	// cycles. Required (non-zero) when Sampled is set.
	WindowCycles uint64
	// WindowInterval is the execution period each window represents, in
	// cycles: one window of WindowCycles measures each WindowInterval of
	// the run, so WindowCycles/WindowInterval is the detailed fraction.
	// Must be at least WindowCycles; equal means every cycle is measured
	// and the run is bit-identical to full simulation. Required when
	// Sampled is set.
	WindowInterval uint64
	// WarmupCycles is the detailed warmup prefix re-run before each
	// measurement window after a fast-forward: the core simulates these
	// cycles normally but the profilers never observe them, absorbing the
	// functional warming's residual cold-start error. WindowCycles +
	// WarmupCycles must fit in WindowInterval (unless the two are equal,
	// in which case no fast-forward ever happens and warmup is ignored).
	// ConfigureSampled resolves the default and `auto` spellings into it.
	WarmupCycles uint64
	// WindowWorkers selects checkpoint-parallel sampled simulation: a
	// serial functional sweep snapshots the warmed state at each window's
	// warmup start, and up to WindowWorkers worker cores run the detailed
	// warmup+window legs concurrently, re-sequenced in schedule order.
	// Output is byte-identical for every value >= 1 (the sweep, not
	// execution order, defines each window's start state); 0 keeps the
	// serial single-core schedule, whose estimate differs slightly (it
	// sizes each leg from the latest window's CPI, the parallel sweep from
	// window 0's). Ignored unless Sampled.
	WindowWorkers int
}

// DefaultRunConfig returns the standard evaluation configuration.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Core:          cpu.DefaultConfig(),
		TargetSamples: 4096,
	}
}

// samplingSeed seeds random sampling and, XORed with a constant, the
// sampled schedule's window-position jitter.
const samplingSeed = 0x5eed

// Result is the outcome of one profiled run.
type Result struct {
	// Workload is the benchmark that ran.
	Workload *Workload
	// Stats are the core's run statistics.
	Stats CoreStats
	// Oracle is the golden-reference profiler (with its cycle stack).
	Oracle *profiler.Oracle
	// Sampled holds each modelled profiler.
	Sampled map[Kind]*profiler.Sampled
	// SampleInterval is the sampling period used, in cycles.
	SampleInterval uint64
	// Sampling describes the sampled-simulation schedule when the run
	// used RunConfig.Sampled; nil for full-detail runs.
	Sampling *SampledRunStats
}

// Err returns the named profiler's systematic error against Oracle at the
// given granularity, excluding OS (handler) samples like the paper.
func (r *Result) Err(k Kind, g Granularity) float64 {
	s, ok := r.Sampled[k]
	if !ok {
		return 1
	}
	return s.Profile.Error(r.Oracle.Profile, g, true)
}

// Stack returns the Oracle cycle stack.
func (r *Result) Stack() *CycleStack { return &r.Oracle.Stack }

// newCore builds a core for w with data regions prefaulted.
func newCore(cfg CoreConfig, w *Workload) *cpu.Core {
	return prefaulted(cpu.New(cfg, w.Prog, w.Stream()), w)
}

// prefaulted prefaults w's data regions on core and returns it.
func prefaulted(core *cpu.Core, w *Workload) *cpu.Core {
	for _, reg := range w.Prefault {
		core.MMU().PrefaultRange(reg.Base, reg.Size)
	}
	return core
}

// CalibrateInterval converts a measured cycle count into a sampling period
// collecting about targetSamples samples (default 4096), floored at 16 and
// primed so periodic sampling cannot lock onto a cycle-deterministic loop
// period (see sampling.NextPrime).
func CalibrateInterval(cycles, targetSamples uint64) uint64 {
	if targetSamples == 0 {
		targetSamples = 4096
	}
	return sampling.NextPrime(max(cycles/targetSamples, 16))
}

// CaptureWorkload runs the single cycle-level simulation of w, streaming its
// encoded commit-stage trace into a replayable capture. The caller owns the
// capture and must Close it. The simulator is deterministic, so replaying the
// capture feeds profilers the byte-identical record stream a live profiled
// run would have seen. It is for callers that replay one capture many times,
// such as the ledger's suites under bench/; Run needs none.
func CaptureWorkload(w *Workload, cfg CoreConfig) (*TraceCapture, CoreStats, error) {
	capt := trace.NewCapture()
	stats, err := newCore(cfg, w).Run(capt)
	if err != nil {
		err = fmt.Errorf("tip: %s: %w", w.Name, err)
	} else if cerr := capt.Err(); cerr != nil {
		err = fmt.Errorf("tip: %s: capture: %w", w.Name, cerr)
	}
	if err != nil {
		// A failed capture may still own a spill file; losing the Close
		// error would leak the temp file silently (PR 1's no-ignored-Close
		// policy).
		if cerr := capt.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("tip: %s: close capture: %w", w.Name, cerr))
		}
		return nil, CoreStats{}, err
	}
	return capt, stats, nil
}

// consumerMatrix is one evaluation's profiler fan-out, split into the
// every-cycle tier (Oracle, checker, non-sampled extras — pinned together
// on one replay shard) and the sample-aware tier (balanced across shards).
type consumerMatrix struct {
	every   []trace.Consumer
	sampled []*profiler.Sampled
	oracle  *profiler.Oracle
	byKind  map[Kind]*profiler.Sampled
	checker *check.Checker
}

// buildMatrix assembles the profiler matrix for one evaluation at the
// calibrated interval, including the consumers rc.ExtraConsumersAt returns
// for it (estCycles is the estimate the interval came from).
func buildMatrix(w *Workload, rc RunConfig, interval, estCycles uint64) consumerMatrix {
	kinds := rc.Profilers
	if kinds == nil {
		kinds = profiler.AllKinds()
	}
	m := consumerMatrix{
		oracle: profiler.NewOracle(w.Prog, rc.WithBreakdown),
		byKind: make(map[Kind]*profiler.Sampled, len(kinds)),
	}
	m.every = append(m.every, m.oracle)
	for _, k := range kinds {
		var sched sampling.Schedule
		if rc.RandomSampling {
			sched = sampling.NewRandom(interval, samplingSeed)
		} else {
			sched = sampling.NewPeriodic(interval)
		}
		sp := profiler.NewSampled(k, w.Prog, sched)
		if k == KindTIP || k == KindTIPILP {
			// TIP exposes its flags CSR with every sample; keep the
			// §3.1 categorization alongside the profile.
			sp.EnableCategories(rc.WithBreakdown)
		}
		m.byKind[k] = sp
		m.sampled = append(m.sampled, sp)
	}
	extras := rc.ExtraConsumers
	if rc.ExtraConsumersAt != nil {
		extras = append(extras[:len(extras):len(extras)], rc.ExtraConsumersAt(interval, estCycles)...)
	}
	for _, c := range extras {
		if sp, ok := c.(*profiler.Sampled); ok {
			m.sampled = append(m.sampled, sp)
		} else {
			m.every = append(m.every, c)
		}
	}

	if rc.Check {
		m.checker = check.New(w.Name, rc.Core)
		m.checker.AuditOracle("Oracle", m.oracle)
		for _, k := range kinds {
			m.checker.AuditSampled(k.String(), m.byKind[k])
		}
		m.every = append(m.every, m.checker)
	}
	return m
}

// shards assembles the matrix into at most workers dispatchers for a
// sharded replay: shard 0 carries the whole every-cycle tier (Oracle and
// checker stay pinned together so the checker's per-cycle invariants see
// the stream exactly once) plus its share of sampled profilers; the
// remaining shards split the rest of the sample-aware tier balanced by
// expected wakeups. Workers that would own no consumers are elided.
func (m *consumerMatrix) shards(workers int) []trace.Consumer {
	groups := profiler.ShardSampled(workers, m.sampled, float64(len(m.every)))
	shards := make([]trace.Consumer, 0, len(groups))
	d0 := profiler.NewDispatcher()
	for _, c := range m.every {
		d0.AddEveryCycle(c)
	}
	for _, sp := range groups[0] {
		d0.AddSampled(sp)
	}
	shards = append(shards, d0)
	for _, g := range groups[1:] {
		if len(g) == 0 {
			continue
		}
		d := profiler.NewDispatcher()
		for _, sp := range g {
			d.AddSampled(sp)
		}
		shards = append(shards, d)
	}
	return shards
}

// evaluate is the tail every single-core route shares once its trace source
// exists: with rc.SampleInterval zero it calibrates the interval from
// estimate's cycle count, builds the matrix at that interval (handing both
// to rc.ExtraConsumersAt), replays the source through max(1,
// rc.ReplayWorkers) shards and packages the Result, failing with the
// checker's verdict if one rode along. The caller fills in Result.Stats.
func evaluate(ctx context.Context, w *Workload, rc RunConfig, estimate func() (uint64, error),
	replay func(context.Context, ...trace.Consumer) (uint64, uint64, error)) (*Result, error) {
	interval, estCycles := rc.SampleInterval, uint64(0)
	if interval == 0 {
		var err error
		if estCycles, err = estimate(); err != nil {
			return nil, err
		}
		interval = CalibrateInterval(estCycles, rc.TargetSamples)
	}
	m := buildMatrix(w, rc, interval, estCycles)
	if _, _, err := replay(ctx, m.shards(max(1, rc.ReplayWorkers))...); err != nil {
		return nil, err
	}
	if m.checker != nil {
		if err := m.checker.Err(); err != nil {
			return nil, err
		}
	}
	return &Result{Workload: w, Oracle: m.oracle, Sampled: m.byKind, SampleInterval: interval}, nil
}

// RunCaptured evaluates rc's profiler matrix by replaying a stored capture
// of w — no second simulation. stats must be the capture run's statistics.
// With rc.SampleInterval zero the interval is calibrated from stats.Cycles,
// exactly as Run's Exact policy calibrates, so RunCaptured after
// CaptureWorkload equals Run. The capture is left open; the caller may
// replay it again (e.g. for another configuration) before Closing it.
//
// The matrix is split over max(1, rc.ReplayWorkers) replay shards (see
// RunConfig.ReplayWorkers). At every worker count, ctx cancellation or a
// failed consumer (trace.Faultable) aborts the replay within
// trace.DefaultChunkRecords records. A nil ctx means context.Background().
func RunCaptured(ctx context.Context, w *Workload, capt *TraceCapture, stats CoreStats, rc RunConfig) (*Result, error) {
	return one(replayCaptured(ctx, []*Workload{w}, []*TraceCapture{capt}, []CoreStats{stats}, rc))
}

// replayCaptured evaluates core i's matrix by replaying capts[i], calibrated
// from stats[i].Cycles, for every core of ws at once (see eachCore), each
// over max(1, rc.ReplayWorkers/len(ws)) shards.
func replayCaptured(ctx context.Context, ws []*Workload, capts []*TraceCapture, stats []CoreStats, rc RunConfig) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rc.ReplayWorkers = max(1, rc.ReplayWorkers/len(ws))
	return eachCore(ctx, ws, func(ctx context.Context, i int) (*Result, error) {
		res, err := evaluate(ctx, ws[i], rc, func() (uint64, error) { return stats[i].Cycles, nil },
			func(ctx context.Context, shards ...trace.Consumer) (uint64, uint64, error) {
				return capts[i].ReplayShards(ctx, 0, shards...)
			})
		if err == nil {
			res.Stats = stats[i]
		}
		return res, err
	})
}

// wholeRunPilot is the Exact calibration policy's pilot window: the whole
// run, sealed at Finish with exact stats.
const wholeRunPilot = math.MaxUint64

// Run simulates w under rc and evaluates its profiler matrix, choosing the
// fused orchestrator's calibration policy (see runFused). A Sampled rc goes
// to RunSampled. Otherwise, with rc.SampleInterval zero the policy is Exact:
// the whole run is the pilot window, captured as it is simulated and
// calibrated from its exact cycle count before the profilers replay it, so
// the result equals CaptureWorkload followed by RunCaptured. With an explicit
// interval it is Fixed: there is nothing to calibrate, and the profilers
// observe the simulation as it runs. Either way there is one cycle-level
// simulation. A nil ctx means context.Background().
func Run(ctx context.Context, w *Workload, rc RunConfig) (*Result, error) {
	if rc.Sampled {
		return RunSampled(ctx, w, rc)
	}
	ws := []*Workload{w}
	return one(runFused(ctx, ws, rc, wholeRunPilot, lockstep(ws, rc.Core, nil)))
}

// MeasureStats runs w unprofiled and returns the core statistics (used by
// the Fig. 13 speedup comparison, where no profiler is needed).
func MeasureStats(w *Workload, cfg CoreConfig) (CoreStats, error) {
	return newCore(cfg, w).Run(nil)
}
