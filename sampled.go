package tip

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/xrand"
)

// SampledRunStats describes one sampled run's schedule: how much of the
// execution was simulated in detail, how much was fast-forwarded, and what
// the stitched cycle estimate is made of. All cycle figures use the core's
// internal clock except MeasuredCycles, which is the contiguous renumbered
// clock the profilers observed.
type SampledRunStats struct {
	// Windows is the number of measurement windows run, including a
	// trailing partial window at end of program.
	Windows uint64
	// MeasuredCycles is the profiler-visible run length (the Finish
	// total): last measured commit cycle + 1 on the renumbered clock.
	MeasuredCycles uint64
	// DetailedCycles is the cycle-level simulation's run length
	// (measurement windows plus warmup prefixes), counted exactly as a
	// full run would: last detailed commit cycle + 1.
	DetailedCycles uint64
	// WarmupCyclesRun is the detailed cycles simulated but hidden from
	// the profilers as post-fast-forward warmup.
	WarmupCyclesRun uint64
	// FFInstructions is the number of instructions executed functionally
	// (no timing) between windows.
	FFInstructions uint64
	// FFRepresentedCycles is the estimated cycle cost of the
	// fast-forwarded instructions, each leg priced at its preceding
	// window's cycles-per-instruction.
	FFRepresentedCycles uint64
	// WarmupRepresentedCycles is the estimated cycle cost of the
	// instructions that committed during warmup prefixes, priced like the
	// fast-forwarded ones. Warmup is state-priming only: it restarts from
	// an empty pipeline, so its raw cycle count overstates the real cost
	// of its commits by roughly a pipeline-fill per window — charging the
	// representative price instead keeps the estimate unbiased.
	WarmupRepresentedCycles uint64
	// EstimatedCycles is the stitched full-run estimate: MeasuredCycles +
	// FFRepresentedCycles + WarmupRepresentedCycles; Result.Stats.Cycles
	// reports the same number.
	EstimatedCycles uint64

	// WindowWorkers is the worker count the checkpoint-parallel scheduler
	// ran with; 0 means the serial single-core schedule.
	WindowWorkers int
	// SweepSeconds is the functional sweep's wall-clock in the parallel
	// mode (0 on the serial path). Wall-clock fields are the only
	// non-deterministic members of this struct; identity tests zero them
	// before comparing.
	SweepSeconds float64
	// MeasureSeconds sums the detailed warmup+window simulation time
	// across window 0 and every worker leg (parallel mode; exceeds the
	// run's wall-clock when legs overlap).
	MeasureSeconds float64
}

// DetailedFraction returns the fraction of the estimated run that was
// simulated cycle-by-cycle (1 when no fast-forward happened).
func (s *SampledRunStats) DetailedFraction() float64 {
	if s.EstimatedCycles == 0 {
		return 1
	}
	return float64(s.DetailedCycles) / float64(s.EstimatedCycles)
}

// Default sampled-schedule geometry: 8K-cycle measurement windows, one per
// 128K cycles (a 1/16 measured fraction), each preceded by an 8K-cycle
// detailed warmup absorbing post-fast-forward transients. Chosen
// empirically on the suite: windows shorter than 8K cycles get noisy on
// stall-dominated workloads (one DRAM burst dominates the window CPI),
// warmups shorter than the window leave warm-state transients in the
// measurement, and the 1/16 fraction is the widest that still leaves the
// trapezoidal stitching enough windows to track phase ramps at benchmark
// scales, landing under 2% cycle error at 4x+ effective speed.
const (
	DefaultSampledWindow   = 8 << 10
	DefaultSampledInterval = 128 << 10
	DefaultSampledWarmup   = 8 << 10
)

// ConfigureSampled makes rc a sampled run of the given schedule and validates
// it. It is where every user-facing spelling of a schedule (tipsim and
// tipbench flags, tipd job specs, the experiments harness) resolves: a zero
// window or interval takes DefaultSampledWindow or DefaultSampledInterval,
// and warmup is "" for the default (DefaultSampledWarmup, or none when the
// window covers the interval), "auto" for AutoWarmupCycles of the gap, or a
// literal cycle count. rc.WindowWorkers is left to the caller.
func ConfigureSampled(rc *RunConfig, window, interval uint64, warmup string) error {
	if window == 0 {
		window = DefaultSampledWindow
	}
	if interval == 0 {
		interval = DefaultSampledInterval
	}
	var warm uint64
	switch warmup {
	case "":
		if window != interval {
			warm = DefaultSampledWarmup
		}
	case "auto":
		warm = AutoWarmupCycles(window, interval)
	default:
		n, err := strconv.ParseUint(warmup, 10, 64)
		if err != nil {
			return fmt.Errorf("sampled: warmup must be a cycle count or \"auto\": %q", warmup)
		}
		warm = n
	}
	rc.Sampled = true
	rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles = window, interval, warm
	return validateSampled(*rc)
}

// MaxWindowWorkers bounds RunConfig.WindowWorkers: the checkpoint-parallel
// producer starts one goroutine with its own core per worker and sizes its
// checkpoint pools at three slots per worker, so an unbounded count from a
// flag or job spec could exhaust memory.
const MaxWindowWorkers = 16

// validateSampled checks rc's sampled-simulation window geometry and worker
// count. It is the single validation authority: RunSampled applies it, and
// ConfigureSampled runs it before any simulation time is spent.
func validateSampled(rc RunConfig) error {
	switch {
	case rc.WindowWorkers < 0:
		return fmt.Errorf("sampled: WindowWorkers must be >= 0, got %d", rc.WindowWorkers)
	case rc.WindowWorkers > MaxWindowWorkers:
		return fmt.Errorf("sampled: WindowWorkers must be <= %d, got %d", MaxWindowWorkers, rc.WindowWorkers)
	case rc.WindowCycles == 0:
		return fmt.Errorf("sampled: WindowCycles must be positive")
	case rc.WindowInterval == 0:
		return fmt.Errorf("sampled: WindowInterval must be positive")
	case rc.WindowCycles > rc.WindowInterval:
		return fmt.Errorf("sampled: WindowCycles %d exceeds WindowInterval %d",
			rc.WindowCycles, rc.WindowInterval)
	case rc.WarmupCycles > rc.WindowInterval-rc.WindowCycles && rc.WindowCycles != rc.WindowInterval:
		return fmt.Errorf("sampled: WindowCycles %d + WarmupCycles %d exceed WindowInterval %d",
			rc.WindowCycles, rc.WarmupCycles, rc.WindowInterval)
	}
	return nil
}

// mulDiv returns a*b/d with a 128-bit intermediate, saturating at MaxUint64
// instead of overflowing; d must be non-zero.
func mulDiv(a, b, d uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi >= d {
		return math.MaxUint64
	}
	q, _ := bits.Div64(hi, lo, d)
	return q
}

// AutoWarmupCycles is the `-warmup auto` heuristic (see ConfigureSampled):
// pick a warmup prefix proportional to the gap the fast-forward legs span, so
// long skips — which leave more stale μarch state per unit of warming — get
// proportionally more detailed state-priming, while short gaps are not eaten
// whole by warmup. The rule: 1/16 of the gap, at least 8192 cycles (the
// BENCH_6 floor below which L2-resident workloads under-warm), capped at half
// the gap so at least as much of each gap is skipped as is warmed. The
// default geometry (8K windows every 128K) resolves to 8192, the long-time
// fixed default.
func AutoWarmupCycles(windowCycles, windowInterval uint64) uint64 {
	if windowInterval <= windowCycles {
		return 0
	}
	gap := windowInterval - windowCycles
	return min(max(gap/16, 8192), gap/2)
}

// stitcher prices unmeasured instruction spans — a fast-forward leg plus the
// warmup commits after it — by the windows that bracket them, not the
// preceding window alone: real programs trend (imagick triples its IPC as its
// compulsory-miss ramp drains), and one-sided pricing turns any trend into a
// systematic cycle over- or under-estimate. Each pending span is settled
// trapezoidally once the next window's CPI is known — the mean of the two
// bracketing windows' prices — and warmup commits are priced at the window
// they run contiguously into. A span the program ends inside is settled
// one-sidedly at termination; a window that committed nothing cedes its side
// of the bracket (falling back to CPI 1 only when neither side committed).
// Both the serial and the checkpoint-parallel schedulers stitch through this
// struct, so their estimates use identical arithmetic.
type stitcher struct {
	sr          *SampledRunStats
	pendingExec uint64
	pendingWarm uint64
	havePending bool
	prevCycles  uint64
	prevCommits uint64
}

func stitchPrice(x, cyc, com uint64) (uint64, bool) {
	if com == 0 {
		return x, false
	}
	return mulDiv(x, cyc, com), true
}

// pend records an unmeasured span (exec fast-forwarded instructions, warm
// warmup commits) bracketed on the left by a window of prevCycles/prevCommits.
func (st *stitcher) pend(exec, warm, prevCycles, prevCommits uint64) {
	st.pendingExec, st.pendingWarm = exec, warm
	st.prevCycles, st.prevCommits = prevCycles, prevCommits
	st.havePending = true
}

// settle prices the pending span against the right-bracket window (haveCur
// false at end of program, when no right bracket exists).
func (st *stitcher) settle(curCycles, curCommitted uint64, haveCur bool) {
	if !st.havePending {
		return
	}
	st.havePending = false
	prev, prevOK := stitchPrice(st.pendingExec, st.prevCycles, st.prevCommits)
	cur, curOK := stitchPrice(st.pendingExec, curCycles, curCommitted)
	curOK = curOK && haveCur
	switch {
	case prevOK && curOK:
		st.sr.FFRepresentedCycles += prev/2 + cur/2 + (prev%2+cur%2)/2
	case curOK:
		st.sr.FFRepresentedCycles += cur
	default:
		st.sr.FFRepresentedCycles += prev // prev falls back to CPI 1 itself
	}
	if w, ok := stitchPrice(st.pendingWarm, curCycles, curCommitted); ok && haveCur {
		st.sr.WarmupRepresentedCycles += w
	} else if w, ok := stitchPrice(st.pendingWarm, st.prevCycles, st.prevCommits); ok {
		st.sr.WarmupRepresentedCycles += w
	} else {
		st.sr.WarmupRepresentedCycles += st.pendingWarm
	}
	st.pendingExec, st.pendingWarm = 0, 0
}

// legResult is one detailed leg's outcome: a warmup prefix stepped
// unobserved, then a measurement window whose cycles went to emit.
type legResult struct {
	warmSteps uint64 // warmup cycles actually simulated
	winSteps  uint64 // window cycles actually simulated
	warmCom   uint64 // instructions committed during warmup
	winCom    uint64 // instructions committed during the window
	// lastCommit is the leg-relative cycle (0 = the leg's first cycle) of
	// the last commit, or -1 if nothing committed.
	lastCommit int64
	done       bool // the program ended inside the leg
}

// runLeg is the engine behind every detailed cycle of a sampled run. It
// steps core from cycle start through warmup cycles whose records are
// dropped, then through window cycles whose records go to emit, stopping
// early when the program ends. It stops as cpu.Check says, with maxCycles
// bounding the core's clock as RunConfig.Core.MaxCycles bounds a full run.
// runLeg keeps its own loop around Step, not cpu.Lockstep's, for its
// warmup and emit contract. rec must be the caller's record, reused from
// one leg to the next on a continued core: Step skips quiescent cycles only
// for the record it filled last.
//
// emit's repeat flag says the core skipped the cycle, so rec is the record
// emit got last, unchanged but for Cycle. It is set only when the previous
// cycle was a window cycle of this leg: a run never extends a dropped
// warmup record or an earlier leg's record.
func runLeg(ctx context.Context, core *cpu.Core, rec *trace.Record, start, warmup, window, maxCycles uint64, emit func(r *trace.Record, repeat bool)) (legResult, error) {
	leg := legResult{lastCommit: -1}
	committed := func() uint64 { return core.Stats().Committed }
	base := committed()
	for n := uint64(0); n < warmup+window && !leg.done; n++ {
		cycle := start + n
		if n == warmup {
			leg.warmCom = committed() - base
		}
		if err := cpu.Check(ctx, cycle, maxCycles, committed); err != nil {
			return leg, err
		}
		done, repeat := core.Step(cycle, rec)
		leg.done = done
		if rec.CommitCount > 0 {
			leg.lastCommit = int64(n)
		}
		if n < warmup {
			leg.warmSteps++
		} else {
			leg.winSteps++
			emit(rec, repeat && n > warmup)
		}
	}
	if leg.winSteps == 0 {
		// The program ended inside the warmup: every commit was warmup's.
		leg.warmCom = core.Stats().Committed - base
	}
	leg.winCom = core.Stats().Committed - base - leg.warmCom
	return leg, nil
}

// recordRun is n consecutive cycles of rec, the first at rec.Cycle.
type recordRun struct {
	rec trace.Record
	n   uint64
}

// recordRuns buffers records as runs, so a stalled stretch costs one copy.
type recordRuns []recordRun

// add appends r as one cycle. With repeat, r is the record added last,
// unchanged but for Cycle, and only lengthens its run. A new run is copied
// once, into spare capacity when there is some.
func (b *recordRuns) add(r *trace.Record, repeat bool) {
	runs := *b
	if repeat && len(runs) > 0 {
		runs[len(runs)-1].n++
		return
	}
	if len(runs) < cap(runs) {
		runs = runs[:len(runs)+1]
	} else {
		runs = append(runs, recordRun{})
	}
	last := &runs[len(runs)-1]
	last.rec, last.n = *r, 1
	*b = runs
}

// measuredClock renumbers window records onto the contiguous measured clock
// the profilers observe. A full run never emits records past its last commit,
// and two checker invariants rest on that: Finish equals last commit + 1, and
// the Oracle attributes exactly one cycle per record. A window can end
// mid-stall with instructions that only commit in the next hidden leg, so a
// commit-free suffix is held until a later commit proves the stream
// continues; one still held at end of run is dropped. The suffix is held as
// runs, and each reaches the consumer as one OnCycle and one trace.Repeat
// of the rest, which a Stream stores as one ring slot.
type measuredClock struct {
	consumer   trace.Consumer
	held       recordRuns
	scratch    trace.Record // trace.Repeat's copy for a consumer that is not a Repeater
	next       uint64       // measured cycle of the next record
	lastCommit uint64       // measured cycle of the last committing record
}

// emit stamps r with the next measured cycle and delivers it, or holds it
// while it commits nothing. With repeat, r is the record emitted last,
// unchanged but for Cycle (runLeg's flag), and only lengthens the held run.
func (m *measuredClock) emit(r *trace.Record, repeat bool) {
	r.Cycle = m.next
	if r.CommitCount == 0 {
		m.held.add(r, repeat)
	} else {
		m.flush()
		m.consumer.OnCycle(r)
		m.lastCommit = m.next
	}
	m.next++
}

// emitRun emits a leg buffer's run as emit(&run.rec, false) and then n-1
// emit(&run.rec, true) would. Only a record that commits nothing repeats,
// so a committing run has n = 1.
func (m *measuredClock) emitRun(run *recordRun) {
	m.emit(&run.rec, false)
	if k := run.n - 1; k > 0 {
		m.held[len(m.held)-1].n += k
		m.next += k
	}
}

// flush delivers the held runs, each as OnCycle at its first cycle and a
// trace.Repeat of the rest ending at its last.
func (m *measuredClock) flush() {
	for i := range m.held {
		h := &m.held[i]
		m.consumer.OnCycle(&h.rec)
		if h.n > 1 {
			h.rec.Cycle += h.n - 1
			trace.Repeat(m.consumer, &h.rec, h.n-1, &m.scratch)
		}
	}
	m.held = m.held[:0]
}

// finish fills in sr's run totals from the last measured and detailed
// commit cycles and returns stats — the detailed legs' totals — republished
// to describe the whole (estimated) execution, so a sampled run drops into
// any report a full run feeds.
func (sr *SampledRunStats) finish(stats CoreStats, lastMeasured, lastDetailed uint64) CoreStats {
	sr.MeasuredCycles = lastMeasured + 1
	sr.DetailedCycles = lastDetailed + 1
	sr.EstimatedCycles = sr.MeasuredCycles + sr.FFRepresentedCycles + sr.WarmupRepresentedCycles
	stats.Cycles = sr.EstimatedCycles
	stats.Committed += sr.FFInstructions
	return stats
}

// runSampledCore is the serial sampled producer: one core alternates
// detailed legs (emitted to consumer on a contiguous renumbered clock) with
// functional fast-forward legs sized by the preceding window's CPI. Each leg
// after a fast-forward opens with a discarded detailed warmup prefix. On
// success the caller must deliver Finish(sr.MeasuredCycles) itself.
func runSampledCore(ctx context.Context, w *Workload, rc RunConfig, consumer trace.Consumer) (CoreStats, *SampledRunStats, error) {
	core := newCore(rc.Core, w)
	ff := program.NewFastForward(w.Prog)
	var rec trace.Record
	sr := &SampledRunStats{}
	clock := measuredClock{consumer: consumer}
	coreCycle := uint64(0) // the core's own clock, warmup included
	lastCommitCore := uint64(0)
	jitter := xrand.New(samplingSeed ^ 0x5a3c9d71)
	// Unmeasured spans are priced trapezoidally by the windows that bracket
	// them; see stitcher.
	st := stitcher{sr: sr}

	// Window 0, and any window that follows another with no fast-forward
	// leg between them, runs without warmup.
	warmup := uint64(0)
	for {
		// Warmup cycles are neither emitted nor charged to the estimate:
		// the pipeline restarts empty, so they include a fill ramp the
		// uninterrupted execution never paid. The instructions they
		// commit are real, and are settled at the price of the window
		// they run into.
		leg, err := runLeg(ctx, core, &rec, coreCycle, warmup, rc.WindowCycles, rc.Core.MaxCycles, clock.emit)
		if err != nil {
			return core.Stats(), sr, err
		}
		if leg.lastCommit >= 0 {
			lastCommitCore = coreCycle + uint64(leg.lastCommit)
		}
		coreCycle += leg.warmSteps + leg.winSteps
		sr.WarmupCyclesRun += leg.warmSteps
		st.pendingWarm = leg.warmCom
		if leg.winSteps > 0 {
			sr.Windows++
			st.settle(leg.winSteps, leg.winCom, true)
		}
		if leg.done {
			break
		}
		warmup = 0
		gap := rc.WindowInterval - rc.WindowCycles
		if gap == 0 {
			// Fraction 1: back-to-back windows degenerate to full
			// simulation; no checkpoint, no warmup, no estimate.
			continue
		}
		ffCycles := gap - rc.WarmupCycles
		// De-phase the schedule: a strictly periodic window placement
		// aliases against cycle-deterministic loops — the same failure
		// mode sampling.NextPrime guards the sample interval against —
		// repeatedly measuring the same loop phase and biasing the CPI
		// estimate by tens of percent. A deterministic ±50% jitter on
		// each leg keeps the mean detailed fraction on target while
		// spreading windows across program phases.
		ffCycles = ffCycles/2 + jitter.Uint64n(ffCycles+1)
		// The leg skips the instructions the window's IPC says fit in
		// ffCycles. A window that retired nothing (one long stall)
		// falls back to IPC 1 so the run still makes progress.
		skip := ffCycles
		if leg.winCom > 0 {
			skip = mulDiv(ffCycles, leg.winCom, leg.winSteps)
		}
		if skip == 0 {
			// The window predicts nothing would execute in the gap;
			// keep simulating in detail rather than checkpointing
			// for an empty leg.
			continue
		}
		core.ArchCheckpoint(coreCycle)
		exec, ffDone := core.FastForward(ff, skip)
		sr.FFInstructions += exec
		st.pend(exec, 0, leg.winSteps, leg.winCom)
		if ffDone {
			// The program ended inside the leg; the checkpoint left
			// the pipeline empty, so there is nothing to drain.
			break
		}
		core.ResumeFrom(coreCycle)
		warmup = rc.WarmupCycles
	}
	// A leg or warmup the program ended inside has no bracketing window on
	// the right; settle it against the left window alone.
	st.settle(0, 0, false)
	return sr.finish(core.Stats(), clock.lastCommit, lastCommitCore), sr, nil
}

// RunSampled evaluates rc's profiler matrix under sampled simulation: one
// core alternates detailed measurement windows with functional fast-forward
// (see RunConfig.Sampled), streaming the measured windows through the same
// bounded ring and replay shards as RunStreaming. Profilers therefore
// observe a contiguous, renumbered trace covering roughly
// WindowCycles/WindowInterval of the execution; Result.Stats reports the
// stitched full-run estimate and Result.Sampling the schedule. With
// WindowCycles == WindowInterval the run is bit-identical to RunStreaming
// (and to the two-pass captured path) at every layer. rc's geometry is
// validated, not defaulted (see ConfigureSampled). A nil ctx means
// context.Background().
//
// With WindowWorkers >= 1 (and a non-zero gap) the windows are produced by
// the checkpoint-parallel scheduler instead (see runSampledParallel): a
// serial functional sweep snapshots warmed state at each window's warmup
// start and a bounded worker pool runs the detailed legs concurrently. Its
// output is byte-identical for every WindowWorkers value >= 1; it differs
// slightly from the serial schedule (WindowWorkers == 0), which sizes each
// fast-forward leg from the latest window's CPI and runs every leg on one
// continued core, where the parallel sweep places checkpoints at the CPI of
// a window sampledConvLag back and runs each leg on a restored core. Both
// producers step every detailed cycle through runLeg and emit through a
// measuredClock.
func RunSampled(ctx context.Context, w *Workload, rc RunConfig) (*Result, error) {
	if err := validateSampled(rc); err != nil {
		return nil, fmt.Errorf("tip: %s: %w", w.Name, err)
	}
	produce := runSampledCore
	if rc.WindowWorkers >= 1 && rc.WindowCycles < rc.WindowInterval {
		produce = runSampledParallel
	}
	return one(runFused(ctx, []*Workload{w}, rc, DefaultPilotCycles, func(ctx context.Context, ss []*trace.Stream) ([]CoreStats, *SampledRunStats, error) {
		st, sr, err := produce(ctx, w, rc, ss[0])
		if err != nil {
			ss[0].Fail(err)
		} else {
			ss[0].Finish(sr.MeasuredCycles)
		}
		return []CoreStats{st}, sr, err
	}))
}
