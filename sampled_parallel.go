package tip

import (
	"context"
	"sync"
	"time"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/xrand"
)

// winJob is one scheduled measurement window travelling from the sweep to a
// worker (over jobs) and, in schedule order, to the sequencer (over pendingC).
type winJob struct {
	index  int    // window number; window 0 runs inline before the sweep starts
	pos    uint64 // committed-instruction position of the checkpoint
	cp     *cpu.Checkpoint
	interp *program.Interp // positioned at pos; becomes the worker's stream
	result chan winResult  // buffered (cap 1): a worker never blocks reporting
}

// sampledConvLag is the feedback pipeline depth of the parallel schedule:
// checkpoint k's placement converts cycle budgets into instruction counts at
// the CPI of window k-sampledConvLag, the most recent window a k-deep
// schedule can have settled without stalling the sweep. Serial sizing uses
// the immediately preceding window (lag 1); a fixed lag keeps up to
// sampledConvLag detailed legs in flight — the concurrency ceiling — while
// still tracking program phase changes, and because the lag is a constant
// (never derived from WindowWorkers) the schedule is byte-identical for
// every worker count. Early windows ramp in at half depth (idx = k/2) so
// short runs don't price every placement at window 0's cold CPI. Six was
// picked empirically: lag 8 overshot a 4.9M-cycle mcf estimate by 2.2%
// where lag 6 lands within 0.1%, and six in-flight legs still saturate the
// four workers a CI runner offers.
const sampledConvLag = 6

// convTrack carries settled window CPIs from the sequencer back to the
// sweep. Entry i is window i's pricing pair (cycles, commits); a window that
// committed nothing carries the previous entry forward, mirroring the serial
// schedule's IPC-1 fallback chain. ratioFor blocks until the entry the lag
// allows exists, which is what bounds how far the sweep can run ahead.
type convTrack struct {
	mu     sync.Mutex
	cond   sync.Cond
	cycles []uint64
	coms   []uint64
	failed bool
}

func newConvTrack(w0Cycles, c0 uint64) *convTrack {
	t := &convTrack{cycles: []uint64{w0Cycles}, coms: []uint64{c0}}
	t.cond.L = &t.mu
	return t
}

// publish appends the next window's settled pricing pair, in window order.
func (t *convTrack) publish(winCycles, winCom uint64) {
	t.mu.Lock()
	if winCom == 0 {
		winCycles = t.cycles[len(t.cycles)-1]
		winCom = t.coms[len(t.coms)-1]
	}
	t.cycles = append(t.cycles, winCycles)
	t.coms = append(t.coms, winCom)
	t.cond.Broadcast()
	t.mu.Unlock()
}

// fail wakes any waiting sweep so it can abandon the schedule.
func (t *convTrack) fail() {
	t.mu.Lock()
	t.failed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// ratioFor returns window k's placement pricing pair — exactly window
// max(k/2, k-sampledConvLag)'s, regardless of how many newer windows happen
// to have settled — blocking until it exists. The lag ramps in (window 2
// waits for window 1, window 4 for window 2, ...) so short runs don't place
// most of their schedule at window 0's cold-start CPI — a ramping program's
// worst possible conversion — at the cost of reduced concurrency over the
// first ~2*sampledConvLag windows. ok is false when the run failed.
func (t *convTrack) ratioFor(k int) (cyc, com uint64, ok bool) {
	idx := k / 2
	if lagged := k - sampledConvLag; lagged > idx {
		idx = lagged
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.cycles) <= idx && !t.failed {
		t.cond.Wait()
	}
	if t.failed {
		return 0, 0, false
	}
	return t.cycles[idx], t.coms[idx], true
}

// winResult is one worker leg's outcome.
type winResult struct {
	legResult
	runs    recordRuns // the window's records as runs, on the leg-local clock
	stats   cpu.Stats  // the whole leg's stats, read as a pure delta
	seconds float64    // leg wall-clock (restore + warmup + window)
}

// runSampledParallel is the checkpoint-parallel sampled producer
// (RunConfig.WindowWorkers >= 1): where runSampledCore interleaves windows and
// fast-forward legs on one core, this scheduler separates them so the
// detailed legs — the expensive part — run concurrently.
//
// Window 0 runs inline first, on a fresh core from cycle 0, exactly as the
// serial producer would run it; its committed count and cycle length give the
// IPC that converts cycle budgets into instruction positions. A single
// functional sweep then walks the whole program once (cache/TLB/predictor
// warming on, timing off), and at each window's warmup start snapshots a
// Checkpoint plus an interpreter clone. A pool of WindowWorkers workers
// restores each checkpoint onto a private core and runs the warmup+window
// detailed leg at leg-local cycle 0; the sequencer re-emits the windows'
// records in schedule order on the contiguous measured clock, so downstream
// consumers see the same kind of stream the serial producer feeds them.
//
// Determinism: checkpoint positions derive only from (window 0, jitter seed);
// each leg's output depends only on (checkpoint, interpreter position, window
// number) — Restore gives the core a per-window identity (FID base, handler
// seed) and a zero-cycle clock — and the sequencer consumes results in
// schedule order regardless of which worker finished first. The output is
// therefore byte-identical for every WindowWorkers value >= 1.
//
// The estimate this scheduler produces is deliberately a different estimator
// from the serial one: serial sizes each fast-forward leg from the
// immediately preceding window's CPI, while the sweep must place checkpoints
// ahead of the detailed legs, so window k's placement uses the CPI of window
// k-sampledConvLag — the same feedback loop, delayed by the pipeline depth
// that keeps the workers busy (see convTrack). Stitching (trapezoidal
// pricing of unmeasured spans) reuses the serial stitcher unchanged.
func runSampledParallel(ctx context.Context, w *Workload, rc RunConfig, consumer trace.Consumer) (CoreStats, *SampledRunStats, error) {
	workers := rc.WindowWorkers
	if workers < 1 {
		workers = 1
	}
	sr := &SampledRunStats{WindowWorkers: workers}
	clock := measuredClock{consumer: consumer}
	lastCommitDetailed := uint64(0)

	// --- Window 0: inline on a fresh core, byte-for-byte the serial
	// producer's first window (same FIDs, same handler seed, same clock).
	w0Start := time.Now()
	w0core := newCore(rc.Core, w)
	var rec trace.Record
	w0, err := runLeg(ctx, w0core, &rec, 0, 0, rc.WindowCycles, rc.Core.MaxCycles, clock.emit)
	if err != nil {
		return w0core.Stats(), sr, err
	}
	sr.Windows++
	sr.MeasureSeconds += time.Since(w0Start).Seconds()
	if w0.lastCommit >= 0 {
		lastCommitDetailed = uint64(w0.lastCommit)
	}
	w0Cycles, c0 := w0.winSteps, w0.winCom
	vd := w0Cycles // virtual detailed clock: window 0 plus every leg
	stats := w0core.Stats()
	if w0.done {
		// The program fits inside one window: nothing to sweep.
		return sr.finish(stats, clock.lastCommit, lastCommitDetailed), sr, nil
	}

	gap := rc.WindowInterval - rc.WindowCycles // > 0: the caller gates on it
	ffBase := gap - rc.WarmupCycles
	track := newConvTrack(w0Cycles, c0)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// pendingC's bound is what caps checkpoint memory: at most
	// 2*workers+workers snapshots (queued + in flight) exist at a time.
	pendingC := make(chan *winJob, workers*2)
	jobs := make(chan *winJob)
	cpPool := make(chan *cpu.Checkpoint, workers*3)
	itpPool := make(chan *program.Interp, workers*3)
	bufPool := make(chan recordRuns, workers*3)

	var total uint64 // program's total committed instructions; set before pendingC closes
	var sweepSeconds float64
	var wg sync.WaitGroup

	// --- Functional sweep: one serial walk of the whole program with
	// warming on, snapshotting at each scheduled warmup start. Defers run
	// LIFO: the timing and `total` writes land before close(pendingC), whose
	// close is the sequencer's happens-before edge for reading them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		defer close(pendingC)
		start := time.Now()
		defer func() { sweepSeconds = time.Since(start).Seconds() }()

		interp := program.NewInterp(w.Prog, w.Seed)
		score := cpu.New(rc.Core, w.Prog, interp)
		for _, reg := range w.Prefault {
			score.MMU().PrefaultRange(reg.Base, reg.Size)
		}
		ff := program.NewFastForward(w.Prog)
		// Same seed derivation as the serial schedule; draws happen in
		// schedule order, so positions are independent of worker count.
		jitter := xrand.New(samplingSeed ^ 0x5a3c9d71)
		pos := uint64(0)
		for index := 1; ; index++ {
			// Block until the lag-delayed feedback window has settled;
			// this is also what bounds the sweep's run-ahead.
			cyc, com, ok := track.ratioFor(index)
			if !ok {
				return
			}
			// conv turns a cycle budget into instructions at the feedback
			// window's IPC (IPC 1 when it committed nothing — same
			// fallback as the serial skip sizing).
			conv := func(cycles uint64) uint64 {
				if com == 0 {
					return cycles
				}
				return mulDiv(cycles, com, cyc)
			}
			ffCycles := ffBase/2 + jitter.Uint64n(ffBase+1)
			skip := conv(ffCycles)
			var target uint64
			if index == 1 {
				target = c0 + skip
			} else {
				// estWW approximates the previous leg's instruction
				// span (its warmup+window cycles at the feedback IPC).
				estWW := conv(rc.WarmupCycles + rc.WindowCycles)
				if estWW == 0 {
					estWW = 1
				}
				target = pos + estWW + skip
			}
			if target <= pos {
				target = pos + 1 // always advance
			}
			exec, ffDone := score.FastForward(ff, target-pos)
			pos += exec
			if ffDone {
				total = pos
				return
			}
			var cp *cpu.Checkpoint
			select {
			case cp = <-cpPool:
			default:
				cp = &cpu.Checkpoint{}
			}
			score.CheckpointInto(cp)
			var itp *program.Interp
			select {
			case itp = <-itpPool:
			default:
				itp = &program.Interp{}
			}
			itp.CopyFrom(interp)
			job := &winJob{index: index, pos: pos, cp: cp, interp: itp,
				result: make(chan winResult, 1)}
			select {
			case pendingC <- job:
			case <-runCtx.Done():
				return
			}
			select {
			case jobs <- job:
			case <-runCtx.Done():
				return
			}
		}
	}()

	// --- Workers: each owns one core for its lifetime and restores every
	// checkpoint it draws onto it.
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcore := newCore(rc.Core, w)
			for {
				var job *winJob
				select {
				case j, ok := <-jobs:
					if !ok {
						return
					}
					job = j
				case <-runCtx.Done():
					return
				}
				job.result <- runWindowLeg(runCtx, wcore, job, rc, cpPool, bufPool)
				// The interpreter was the leg's live stream; it is idle
				// again once the leg returns.
				select {
				case itpPool <- job.interp:
				default:
				}
			}
		}()
	}

	// --- Sequencer: consume results in schedule order and re-emit each
	// window on the contiguous measured clock.
	st := stitcher{sr: sr}
	st.prevCycles, st.prevCommits = w0Cycles, c0
	prevEnd := c0 // committed-instruction position of detailed coverage so far
	var runErr error
	failRun := func(err error) {
		if runErr == nil {
			runErr = err
		}
		track.fail()
		cancel()
	}
	for job := range pendingC {
		if runErr != nil {
			continue // draining; workers may never produce these results
		}
		var res winResult
		select {
		case res = <-job.result:
		case <-runCtx.Done():
		}
		if err := runCtx.Err(); err != nil {
			failRun(cpu.AbortError(vd, err))
			continue
		}
		// The sweep places checkpoints from lagged CPI feedback, so a
		// checkpoint can land before the previous window's committed end.
		// Such a leg re-measures instructions the previous window already
		// covered: it is discarded — not emitted, stitched or counted — and
		// the next leg's leftover span covers the gap. Its CPI is still
		// published: placement indexes the track by leg number, so skipping
		// it would shift every later checkpoint.
		track.publish(res.winSteps, res.winCom)
		sr.MeasureSeconds += res.seconds
		if job.pos < prevEnd {
			recycleRuns(bufPool, res.runs)
			continue
		}
		legStart := vd
		vd += res.warmSteps + res.winSteps
		// A leg steps at least one cycle, so vd-1 is its last on the
		// virtual clock.
		if err := cpu.Check(nil, vd-1, rc.Core.MaxCycles, func() uint64 { return stats.Committed }); err != nil {
			failRun(err)
			continue
		}
		// The unmeasured span between the previous window's committed end
		// and this checkpoint was covered functionally; price it plus this
		// leg's warmup commits against the bracketing windows.
		leftover := job.pos - prevEnd
		sr.FFInstructions += leftover
		st.pend(leftover, res.warmCom, st.prevCycles, st.prevCommits)
		st.settle(res.winSteps, res.winCom, true)
		if res.winSteps > 0 {
			sr.Windows++
			st.prevCycles, st.prevCommits = res.winSteps, res.winCom
		}
		sr.WarmupCyclesRun += res.warmSteps
		if res.lastCommit >= 0 {
			lastCommitDetailed = legStart + uint64(res.lastCommit)
		}
		for i := range res.runs {
			clock.emitRun(&res.runs[i])
		}
		addLegStats(&stats, &res.stats)
		prevEnd = job.pos + res.warmCom + res.winCom
		recycleRuns(bufPool, res.runs)
	}
	wg.Wait()
	if runErr != nil {
		return stats, sr, runErr
	}
	// Trailing functional coverage: instructions past the last leg's
	// committed end that the sweep executed but no window measured.
	var leftover uint64
	if total > prevEnd {
		leftover = total - prevEnd
	}
	sr.FFInstructions += leftover
	st.pend(leftover, 0, st.prevCycles, st.prevCommits)
	st.settle(0, 0, false)
	sr.SweepSeconds = sweepSeconds
	return sr.finish(stats, clock.lastCommit, lastCommitDetailed), sr, nil
}

// runWindowLeg restores job's checkpoint onto wcore and runs the detailed
// warmup+window leg at leg-local cycle 0. The window's records are added as
// runs (on the local clock — the sequencer renumbers) to a pooled buffer. The
// leg runs unbounded: the sequencer checks MaxCycles on the virtual clock.
func runWindowLeg(ctx context.Context, wcore *cpu.Core, job *winJob, rc RunConfig, cpPool chan *cpu.Checkpoint, bufPool chan recordRuns) winResult {
	start := time.Now()
	wcore.Restore(job.cp, job.interp, uint64(job.index))
	// The checkpoint's contents now live in wcore; recycle it immediately so
	// the sweep can snapshot ahead without allocating.
	select {
	case cpPool <- job.cp:
	default:
	}
	// A new buffer grows to what the legs it serves need: a stalled
	// window's runs are far fewer than its cycles.
	var runs recordRuns
	select {
	case runs = <-bufPool:
	default:
	}
	var res winResult
	var rec trace.Record
	// With no MaxCycles bound, runLeg fails only when ctx is cancelled,
	// and the sequencer reads that from ctx itself.
	res.legResult, _ = runLeg(ctx, wcore, &rec, 0, rc.WarmupCycles, rc.WindowCycles, 0, runs.add)
	res.runs = runs
	res.stats = wcore.Stats()
	res.seconds = time.Since(start).Seconds()
	return res
}

// recycleRuns returns a leg's run buffer to the pool, if it has room.
func recycleRuns(bufPool chan recordRuns, runs recordRuns) {
	select {
	case bufPool <- runs[:0]:
	default:
	}
}

// addLegStats folds a leg's stats delta into the run totals. Cycles is
// excluded: legs run on local clocks, and the run's Cycles is the stitched
// estimate set at finalize.
func addLegStats(dst *cpu.Stats, d *cpu.Stats) {
	dst.Committed += d.Committed
	dst.Fetched += d.Fetched
	dst.Mispredicts += d.Mispredicts
	dst.CSRFlushes += d.CSRFlushes
	dst.Exceptions += d.Exceptions
	dst.BTBBubbles += d.BTBBubbles
	dst.StoreStallCycles += d.StoreStallCycles
	dst.PMUInterrupts += d.PMUInterrupts
}
