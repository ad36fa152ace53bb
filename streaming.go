package tip

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/tipprof/tip/internal/trace"
)

// DefaultPilotCycles is the streaming calibration window. At the suite's
// simulated IPC it covers a few hundred thousand instructions, while the
// captured prefix stays a few megabytes of encoded trace. A run that ends
// inside the window calibrates the interval Run's Exact policy does; a
// longer run gets an extrapolation from the window's cycles per
// instruction, which is only as good as the prefix is typical: mcf at scale
// 2 000 000 starts slower than it runs on and calibrates 2617 cycles
// against the two-pass 2011 (+30%). Even at the
// worst-case encoded record size the window stays below
// trace.DefaultSpillBytes, so the pilot capture never spills to disk.
const DefaultPilotCycles = 1 << 17

// pilotEstimateCycles extrapolates a run's total cycle count from its pilot
// window: the pilot's cycles-per-instruction scaled to the workload's
// dynamic-instruction budget (Workload.TargetDynInsts). Exact pilot stats —
// the run ended inside the window — are returned as-is, making the estimate
// (and therefore the calibrated interval) identical to the two-pass path.
// The estimate saturates instead of overflowing and is never smaller than
// the pilot itself.
func pilotEstimateCycles(ps trace.PilotStats, targetDynInsts uint64) uint64 {
	if ps.Exact || ps.Committed == 0 || targetDynInsts == 0 {
		return ps.Cycles
	}
	return max(mulDiv(ps.Cycles, targetDynInsts, ps.Committed), ps.Cycles)
}

// RunStreaming evaluates rc's profiler matrix in a single fused pass: the
// cycle-level simulation streams trace chunks through a bounded ring
// into the replay shards while it is still running, instead of capturing the
// whole trace first. Peak memory stays bounded by the pilot window plus the
// ring regardless of run length, and wall-clock approaches
// max(simulate, replay).
//
// With rc.SampleInterval zero the interval is calibrated from a pilot window
// of DefaultPilotCycles: the pilot prefix is captured, its
// cycles-per-instruction extrapolated against the workload's TargetDynInsts
// to estimate the total cycle count, and the captured prefix replayed first
// so profilers observe every cycle. The chosen interval is therefore an
// estimate — identical to Run's exact calibration only when the run ends
// inside the pilot window; profiler output is byte-identical between the two
// whenever the interval matches.
//
// A caller that also needs the encoded trace passes a trace.Capture in
// rc.ExtraConsumers and owns its Close and Err. A nil ctx means
// context.Background().
func RunStreaming(ctx context.Context, w *Workload, rc RunConfig) (*Result, error) {
	ws := []*Workload{w}
	return one(runFused(ctx, ws, rc, DefaultPilotCycles, lockstep(ws, rc.Core, nil)))
}

// producer runs a simulation into ss on its own goroutine, stream i carrying
// workload i's records. It ends every stream: Finish as its run completes
// and, if the run fails, Fail on each stream it did not Finish.
type producer func(ctx context.Context, ss []*trace.Stream) ([]CoreStats, *SampledRunStats, error)

// one unpacks the Result of a single-core run.
func one(res []*Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runFused is the one orchestrator behind every simulation: Run,
// RunStreaming and RunSampled over one stream, the multicore runs over one
// per core. The producer goroutine feeds the streams; each stream is
// calibrated from its own pilot window, builds its own profiler matrix over
// max(1, rc.ReplayWorkers/len(ws)) shards and replays through it on its own
// goroutine (see eachCore and evaluate). The calibration policy is nothing
// more than that window: pilotCycles is wholeRunPilot for Exact (the whole
// run is captured and calibrated from its exact cycle count),
// DefaultPilotCycles for Pilot (a prefix is extrapolated to the whole run),
// and an explicit rc.SampleInterval makes it Fixed (no window: records flow
// straight into the ring). A producer failure surfaces as its stream's run
// error, a shard consumer failure as the replay error, and any failure stops
// every stream and the producer, releasing unreplayed pilots.
func runFused(ctx context.Context, ws []*Workload, rc RunConfig, pilotCycles uint64, produce producer) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rc.SampleInterval != 0 {
		pilotCycles = 0
	}
	rc.ReplayWorkers = max(1, rc.ReplayWorkers/len(ws))
	ss := make([]*trace.Stream, len(ws))
	for i := range ss {
		ss[i] = trace.NewStream(trace.StreamConfig{PilotCycles: pilotCycles})
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var stats []CoreStats
	var sampling *SampledRunStats
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		stats, sampling, _ = produce(runCtx, ss)
	}()

	res, err := eachCore(ctx, ws, func(ctx context.Context, i int) (*Result, error) {
		return evaluate(ctx, ws[i], rc, func() (uint64, error) {
			ps, err := ss[i].Pilot(ctx)
			if err != nil {
				return 0, err
			}
			est := pilotEstimateCycles(ps, ws[i].TargetDynInsts)
			if rc.Sampled && !ps.Exact {
				// The pilot extrapolates the full run, but profilers see
				// only its measured fraction (exact stats already are that).
				est = mulDiv(est, rc.WindowCycles, rc.WindowInterval)
			}
			return est, nil
		}, ss[i].ReplayShards)
	})
	if err != nil {
		// Stop both sides: no stream accepts more records (each releases a
		// pilot nothing replayed), and the producer's context is cancelled.
		for _, s := range ss {
			s.Abort()
		}
		cancelRun()
	}
	// After a clean replay the producer already Finished every stream; the
	// wait is for its stats. After a failure it keeps anything from racing
	// the return.
	<-prodDone
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		r.Stats, r.Sampling = stats[i], sampling
	}
	return res, nil
}

// eachCore runs eval for every core i of ws on its own goroutine, under one
// derived context that the first failure cancels. An error names its core's
// workload; of several, the first in core order that is not such a
// cancellation is returned, also naming its core when there are several.
func eachCore(ctx context.Context, ws []*Workload, eval func(ctx context.Context, i int) (*Result, error)) ([]*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := make([]*Result, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = ctx.Err(); errs[i] == nil {
				res[i], errs[i] = eval(ctx, i)
			}
			if errs[i] != nil {
				errs[i] = fmt.Errorf("tip: %s: %w", ws[i].Name, errs[i])
				cancel()
			}
		}()
	}
	wg.Wait()
	failed := -1
	for i, err := range errs {
		if err != nil && (failed < 0 || errors.Is(errs[failed], context.Canceled) && !errors.Is(err, context.Canceled)) {
			failed = i
		}
	}
	switch {
	case failed < 0:
		return res, nil
	case len(ws) == 1:
		return nil, errs[0]
	}
	return nil, fmt.Errorf("tip: core %d: %w", failed, errs[failed])
}
