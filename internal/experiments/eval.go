package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/check"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// DefaultFrequencies are the Fig. 11a sweep points in Hz-equivalents; 4000
// is the paper's default operating point.
var DefaultFrequencies = []uint64{100, 1000, 4000, 10000, 20000}

// BaseFrequency is the paper's default sampling frequency (4 kHz).
const BaseFrequency uint64 = 4000

// Options configures a suite evaluation.
type Options struct {
	// Seed seeds workload interpretation.
	Seed uint64
	// TargetSamples calibrates the 4 kHz-equivalent period. The default
	// 32768 keeps the samples-per-hot-instruction ratio in the same
	// regime as the paper (4 kHz over multi-minute SPEC runs collects
	// ~10^6 samples; our benchmarks are ~500x shorter). See DESIGN.md.
	TargetSamples uint64
	// Scale overrides each benchmark's dynamic-instruction budget
	// (0 = default full scale).
	Scale uint64
	// Benchmarks restricts the suite (nil = all 27).
	Benchmarks []string
	// Frequencies are the sensitivity sweep points (nil = Default).
	Frequencies []uint64
	// Parallelism is the evaluation's total worker budget: it bounds the
	// concurrent benchmark evaluations AND the extra replay workers they
	// spawn, all drawing from one shared semaphore (0 = GOMAXPROCS).
	Parallelism int
	// ReplayWorkers asks each benchmark's captured-trace replay to fan
	// out over up to this many workers (0 or 1 = sequential). Workers
	// beyond the first only materialize when the shared Parallelism
	// budget has idle slots, so a saturated suite never oversubscribes
	// the host; results are byte-identical at any worker count.
	ReplayWorkers int
	// Checked attaches a cycle-level invariant checker (internal/check)
	// to every profiled run and fails the evaluation on any violation.
	Checked bool
	// Streaming fuses each benchmark's capture and replay phases: the
	// cycle-level simulation streams into the profiler matrix through a
	// bounded ring (see tip.RunStreaming), so peak memory stays
	// independent of trace length and per-benchmark wall-clock approaches
	// max(capture, replay). Intervals are pilot-calibrated, so errors can
	// differ marginally from a non-streaming evaluation of the same suite;
	// the default (non-streaming) path is unchanged.
	Streaming bool
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TargetSamples == 0 {
		o.TargetSamples = 32768
	}
	if o.Benchmarks == nil {
		o.Benchmarks = workload.Names()
	}
	if o.Frequencies == nil {
		o.Frequencies = DefaultFrequencies
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// GranErrors holds one profiler's error at the three granularities.
type GranErrors struct {
	Inst, Block, Func float64
}

// At selects by granularity.
func (g GranErrors) At(gran profile.Granularity) float64 {
	switch gran {
	case profile.GranInstruction:
		return g.Inst
	case profile.GranBlock:
		return g.Block
	default:
		return g.Func
	}
}

// BenchmarkEval is one benchmark's full evaluation: every profiler at every
// sweep frequency (periodic) plus random sampling at the base frequency,
// all observed in a single simulation run like the paper's out-of-band
// methodology (§4).
type BenchmarkEval struct {
	Name  string
	Class string

	Cycles    uint64
	Committed uint64
	IPC       float64

	Stack profile.CycleStack

	// Interval4k is the calibrated 4 kHz-equivalent period in cycles.
	Interval4k uint64

	// Periodic[freq][kind] are periodic-sampling errors.
	Periodic map[uint64]map[profiler.Kind]GranErrors
	// Random[kind] are random-sampling errors at the base frequency.
	Random map[profiler.Kind]GranErrors
	// PeriodicRaw[kind] are base-frequency periodic errors WITHOUT the
	// prime-interval anti-aliasing adjustment — the configuration the
	// paper's periodic sampling corresponds to, and the honest baseline
	// for the Fig. 11b periodic-vs-random comparison.
	PeriodicRaw map[profiler.Kind]GranErrors
	// CrossProfiler[a][b] is the relative difference between two sampled
	// profilers' instruction-level profiles (used by the §5.2 validation
	// experiment: Software vs NCI).
	CrossProfiler map[profiler.Kind]map[profiler.Kind]float64
}

// sweepKinds returns the profilers modelled at non-base frequencies
// (the paper sweeps the three most accurate: NCI, TIP-ILP, TIP).
func sweepKinds() []profiler.Kind {
	return []profiler.Kind{profiler.KindNCI, profiler.KindTIPILP, profiler.KindTIP}
}

// budget is the evaluation's shared worker semaphore: suite-level
// benchmark evaluations and replay-level shard workers all draw slots from
// the same pool, so nested parallelism can never oversubscribe the host.
type budget struct {
	sem chan struct{}
}

func newBudget(slots int) *budget {
	if slots < 1 {
		slots = 1
	}
	return &budget{sem: make(chan struct{}, slots)}
}

// acquire blocks until a slot is free.
func (b *budget) acquire() { b.sem <- struct{}{} }

// tryExtra grabs up to max idle slots without blocking and returns how many
// it got. Extra slots must never be acquired blockingly while holding one:
// a suite full of evaluations each waiting for replay workers would
// deadlock.
func (b *budget) tryExtra(max int) int {
	got := 0
	for got < max {
		select {
		case b.sem <- struct{}{}:
			got++
		default:
			return got
		}
	}
	return got
}

// release returns n slots.
func (b *budget) release(n int) {
	for ; n > 0; n-- {
		<-b.sem
	}
}

// Timing is one benchmark evaluation's phase split: the cycle-level capture
// simulation vs the profiler-matrix replay of the capture.
type Timing struct {
	Capture time.Duration
	Replay  time.Duration
	// ReplayWorkers is the worker count the replay actually ran with
	// (≤ Options.ReplayWorkers, depending on idle budget slots).
	ReplayWorkers int
}

// EvalBenchmark runs one benchmark with the full profiler matrix.
func EvalBenchmark(name string, opt Options) (*BenchmarkEval, error) {
	opt.fill()
	b := newBudget(opt.Parallelism)
	b.acquire()
	defer b.release(1)
	ev, _, err := evalBenchmark(context.Background(), b, name, opt)
	return ev, err
}

// evalMatrix is one evaluation's full consumer fan-out, keyed for the
// post-run error extraction.
type evalMatrix struct {
	consumers   []trace.Consumer
	periodic    map[uint64]map[profiler.Kind]*profiler.Sampled
	random      map[profiler.Kind]*profiler.Sampled
	periodicRaw map[profiler.Kind]*profiler.Sampled
	checker     *check.Checker
}

// buildEvalMatrix assembles the profiler matrix: all kinds at the base
// frequency (periodic + random), sweep kinds at the other frequencies, plus
// the raw (non-primed) base-frequency periodic tier. The Oracle reference
// comes from tip.Run itself. interval4k is the calibrated base period;
// rawInterval the non-primed equivalent.
func buildEvalMatrix(name string, w *workload.Workload, core tip.CoreConfig, opt Options, interval4k, rawInterval uint64) *evalMatrix {
	m := &evalMatrix{
		periodic:    map[uint64]map[profiler.Kind]*profiler.Sampled{},
		random:      map[profiler.Kind]*profiler.Sampled{},
		periodicRaw: map[profiler.Kind]*profiler.Sampled{},
	}
	if opt.Checked {
		m.checker = check.New(check.Options{
			Benchmark:       name,
			CommitWidth:     core.CommitWidth,
			ROBEntries:      core.ROBEntries,
			FetchBufEntries: core.FetchBufEntries,
		})
	}
	for _, freq := range opt.Frequencies {
		interval := interval4k * BaseFrequency / freq
		if interval < 4 {
			interval = 4
		}
		interval = sampling.NextPrime(interval)
		kinds := sweepKinds()
		if freq == BaseFrequency {
			kinds = profiler.AllKinds()
		}
		m.periodic[freq] = map[profiler.Kind]*profiler.Sampled{}
		for _, k := range kinds {
			sp := profiler.NewSampled(k, w.Prog, sampling.NewPeriodic(interval))
			m.periodic[freq][k] = sp
			m.consumers = append(m.consumers, sp)
			if m.checker != nil {
				m.checker.AuditSampled(fmt.Sprintf("periodic@%d/%v", freq, k), sp)
			}
		}
	}
	for _, k := range profiler.AllKinds() {
		sp := profiler.NewSampled(k, w.Prog, sampling.NewRandom(interval4k, opt.Seed^0x5eed))
		m.random[k] = sp
		m.consumers = append(m.consumers, sp)
		spRaw := profiler.NewSampled(k, w.Prog, sampling.NewPeriodic(rawInterval))
		m.periodicRaw[k] = spRaw
		m.consumers = append(m.consumers, spRaw)
		if m.checker != nil {
			m.checker.AuditSampled(fmt.Sprintf("random/%v", k), sp)
			m.checker.AuditSampled(fmt.Sprintf("periodic-raw/%v", k), spRaw)
		}
	}
	if m.checker != nil {
		m.consumers = append(m.consumers, m.checker)
	}
	return m
}

// rawIntervalFor is the non-primed base-frequency period derived from a
// cycle count (exact on the captured path, pilot-estimated when streaming).
func rawIntervalFor(cycles, targetSamples uint64) uint64 {
	raw := cycles / targetSamples
	if raw < 16 {
		raw = 16
	}
	return raw
}

// evalBenchmark is EvalBenchmark with the suite plumbing exposed: the
// caller must already hold one budget slot; extra replay workers borrow
// idle slots for the replay phase only. Cancelling ctx aborts the
// evaluation at the next phase boundary (and, when the replay is sharded,
// between record chunks).
func evalBenchmark(ctx context.Context, b *budget, name string, opt Options) (*BenchmarkEval, Timing, error) {
	var tm Timing
	if err := ctx.Err(); err != nil {
		return nil, tm, err
	}
	w, err := workload.LoadScaled(name, opt.Seed, opt.Scale)
	if err != nil {
		return nil, tm, err
	}

	cfg := tip.DefaultRunConfig()
	var res *tip.Result
	var m *evalMatrix
	var interval4k uint64
	// Both routes calibrate inside tip — from the capture's exact cycle
	// count or from the streaming pilot — and assemble the matrix in this
	// post-calibration hook. The interval is primed to avoid aliasing with
	// cycle-deterministic synthetic loops (see sampling.NextPrime).
	calibrated := func(interval, estCycles uint64) []trace.Consumer {
		interval4k = interval
		m = buildEvalMatrix(name, w, cfg.Core, opt, interval,
			rawIntervalFor(estCycles, opt.TargetSamples))
		return m.consumers
	}

	if opt.Streaming {
		// Fused path: one simulation streams straight into the matrix;
		// simulation and replay overlap, and the whole fused wall-clock is
		// attributed to Replay (Capture stays 0 — there is no separate
		// capture phase).
		workers := 1
		if opt.ReplayWorkers > 1 {
			extra := b.tryExtra(opt.ReplayWorkers - 1)
			workers += extra
			defer b.release(extra)
		}
		tm.ReplayWorkers = workers
		runStart := time.Now()
		res, err = tip.RunStreaming(ctx, w, tip.RunConfig{
			Core:             cfg.Core,
			Profilers:        []profiler.Kind{}, // matrix supplied by the hook
			TargetSamples:    opt.TargetSamples,
			ReplayWorkers:    workers,
			ExtraConsumersAt: calibrated,
		})
		tm.Replay = time.Since(runStart)
		if err != nil {
			return nil, tm, err
		}
	} else {
		// The single cycle-level simulation: measure cycles for calibration
		// while capturing the encoded trace the profiler matrix will replay.
		capStart := time.Now()
		capture, stats, err := tip.CaptureWorkload(w, cfg.Core)
		if err != nil {
			return nil, tm, fmt.Errorf("experiments: capture %s: %w", name, err)
		}
		defer capture.Close()
		tm.Capture = time.Since(capStart)
		if err := ctx.Err(); err != nil {
			return nil, tm, err
		}
		// Replay the captured trace through the matrix — the deterministic
		// codec hands every consumer the byte-identical record stream the
		// live core produced, without a second simulation. Extra replay
		// workers borrow idle budget slots for the duration of the replay;
		// the worker count never changes the results, only the wall-clock.
		workers := 1
		if opt.ReplayWorkers > 1 {
			extra := b.tryExtra(opt.ReplayWorkers - 1)
			workers += extra
			defer b.release(extra)
		}
		tm.ReplayWorkers = workers
		repStart := time.Now()
		res, err = tip.RunCaptured(ctx, w, capture, stats, tip.RunConfig{
			Core:             cfg.Core,
			Profilers:        []profiler.Kind{}, // matrix supplied by the hook
			TargetSamples:    opt.TargetSamples,
			ReplayWorkers:    workers,
			ExtraConsumersAt: calibrated,
		})
		tm.Replay = time.Since(repStart)
		if err != nil {
			return nil, tm, err
		}
	}
	if m.checker != nil {
		// Audits are evaluated lazily by Err, so the Oracle built inside
		// tip.Run can be registered after the run completes.
		m.checker.AuditOracle("Oracle", res.Oracle)
		if err := m.checker.Err(); err != nil {
			return nil, tm, fmt.Errorf("experiments: %s: %w", name, err)
		}
	}
	periodic, random, periodicRaw := m.periodic, m.random, m.periodicRaw

	oracle := res.Oracle
	ev := &BenchmarkEval{
		Name:        name,
		Class:       w.Class,
		Cycles:      res.Stats.Cycles,
		Committed:   res.Stats.Committed,
		IPC:         res.Stats.IPC(),
		Stack:       oracle.Stack,
		Interval4k:  interval4k,
		Periodic:    map[uint64]map[profiler.Kind]GranErrors{},
		Random:      map[profiler.Kind]GranErrors{},
		PeriodicRaw: map[profiler.Kind]GranErrors{},
	}
	errsOf := func(sp *profiler.Sampled) GranErrors {
		return GranErrors{
			Inst:  sp.Profile.Error(oracle.Profile, profile.GranInstruction, true),
			Block: sp.Profile.Error(oracle.Profile, profile.GranBlock, true),
			Func:  sp.Profile.Error(oracle.Profile, profile.GranFunction, true),
		}
	}
	for freq, byKind := range periodic {
		ev.Periodic[freq] = map[profiler.Kind]GranErrors{}
		for k, sp := range byKind {
			ev.Periodic[freq][k] = errsOf(sp)
		}
	}
	for k, sp := range random {
		ev.Random[k] = errsOf(sp)
	}
	for k, sp := range periodicRaw {
		ev.PeriodicRaw[k] = errsOf(sp)
	}

	// Cross-profiler relative differences at the base frequency.
	base := periodic[BaseFrequency]
	ev.CrossProfiler = map[profiler.Kind]map[profiler.Kind]float64{}
	for a, sa := range base {
		ev.CrossProfiler[a] = map[profiler.Kind]float64{}
		for bk, sb := range base {
			if a == bk {
				continue
			}
			ev.CrossProfiler[a][bk] = profile.DistributionError(
				sa.Profile.Aggregate(profile.GranInstruction, true),
				sb.Profile.Aggregate(profile.GranInstruction, true))
		}
	}
	return ev, tm, nil
}

// SuiteTiming aggregates a suite evaluation's phase split: total wall-clock
// plus the per-benchmark capture and replay durations summed across the
// suite (with parallel evaluations these sums exceed the wall-clock).
type SuiteTiming struct {
	Wall    time.Duration
	Capture time.Duration
	Replay  time.Duration
	// MaxReplayWorkers is the largest worker count any benchmark's replay
	// actually ran with.
	MaxReplayWorkers int
}

// EvalSuite evaluates the selected benchmarks, in parallel when the host
// has spare cores. See EvalSuiteTimed for the scheduling rules.
func EvalSuite(opt Options) ([]*BenchmarkEval, error) {
	evals, _, err := EvalSuiteTimed(context.Background(), opt)
	return evals, err
}

// EvalSuiteTimed evaluates the selected benchmarks and reports the suite's
// capture/replay timing split. Benchmark evaluations and their replay
// workers share one Parallelism-slot budget: each evaluation holds a slot
// for its lifetime (acquired before the goroutine is spawned, so
// Parallelism=1 really is sequential) and replays borrow idle slots for
// extra workers. On the first failure no further benchmarks are launched
// and the context handed to in-flight evaluations is cancelled, aborting
// their replays between record chunks; the first root-cause error (rather
// than a secondary cancellation error) is returned. Cancelling ctx aborts
// the whole suite the same way.
func EvalSuiteTimed(ctx context.Context, opt Options) ([]*BenchmarkEval, SuiteTiming, error) {
	opt.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	evals := make([]*BenchmarkEval, len(opt.Benchmarks))
	timings := make([]Timing, len(opt.Benchmarks))
	errs := make([]error, len(opt.Benchmarks))
	b := newBudget(opt.Parallelism)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, name := range opt.Benchmarks {
		b.acquire()
		if failed.Load() {
			b.release(1)
			break
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			defer b.release(1)
			evals[i], timings[i], errs[i] = evalBenchmark(ctx, b, name, opt)
			if errs[i] != nil {
				failed.Store(true)
				// First failure: pull the plug on every in-flight
				// evaluation instead of letting them run to completion.
				cancel()
			}
		}(i, name)
	}
	wg.Wait()

	var st SuiteTiming
	st.Wall = time.Since(start)
	for _, tm := range timings {
		st.Capture += tm.Capture
		st.Replay += tm.Replay
		if tm.ReplayWorkers > st.MaxReplayWorkers {
			st.MaxReplayWorkers = tm.ReplayWorkers
		}
	}
	// Prefer the root cause: an evaluation cancelled because a sibling
	// failed reports context.Canceled, which would mask the real error
	// when the failing benchmark sorts later in the suite.
	var firstCancel error
	var firstCancelName string
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if firstCancel == nil {
				firstCancel = err
				firstCancelName = opt.Benchmarks[i]
			}
			continue
		}
		return nil, st, fmt.Errorf("experiments: %s: %w", opt.Benchmarks[i], err)
	}
	if firstCancel != nil {
		return nil, st, fmt.Errorf("experiments: %s: %w", firstCancelName, firstCancel)
	}
	return evals, st, nil
}
