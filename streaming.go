package tip

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"github.com/tipprof/tip/internal/trace"
)

// DefaultPilotCycles is the streaming calibration window. At the suite's
// simulated IPC it covers a few hundred thousand instructions — enough pilot
// signal that the cycles-per-instruction extrapolation lands the sampling
// interval within a few percent of the two-pass calibration, while bounding
// the captured prefix to a few megabytes of encoded trace. Even at the
// worst-case encoded record size the window stays below
// trace.DefaultSpillBytes, so the pilot capture never spills to disk.
const DefaultPilotCycles = 1 << 17

// PilotEstimateCycles extrapolates a run's total cycle count from its pilot
// window: the pilot's cycles-per-instruction scaled to the workload's
// dynamic-instruction budget (Workload.TargetDynInsts). Exact pilot stats —
// the run ended inside the window — are returned as-is, making the estimate
// (and therefore the calibrated interval) identical to the two-pass path.
// The estimate saturates instead of overflowing and is never smaller than
// the pilot itself.
func PilotEstimateCycles(ps trace.PilotStats, targetDynInsts uint64) uint64 {
	if ps.Exact || ps.Committed == 0 || targetDynInsts == 0 {
		return ps.Cycles
	}
	hi, lo := bits.Mul64(ps.Cycles, targetDynInsts)
	if hi >= ps.Committed {
		return math.MaxUint64
	}
	est, _ := bits.Div64(hi, lo, ps.Committed)
	if est < ps.Cycles {
		est = ps.Cycles
	}
	return est
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
// estimate — identical to the captured path's (Run with a zero interval)
// only when the run ends inside the pilot window; profiler output is
// byte-identical between the two paths whenever the interval matches.
//
// A caller that also needs the encoded trace passes a trace.Capture in
// rc.ExtraConsumers and owns its Close and Err. A nil ctx means
// context.Background().
func RunStreaming(ctx context.Context, w *Workload, rc RunConfig) (*Result, error) {
	return runFused(ctx, w, rc, false, func(ctx context.Context, s *trace.Stream) (CoreStats, *SampledRunStats, error) {
		// RunContext delivers Finish itself on success.
		st, err := newCore(rc.Core, w).RunContext(ctx, s)
		return st, nil, err
	})
}

// producer runs a simulation into s on its own goroutine. On success the
// producer side must already be Finished; on error runFused Fails it.
type producer func(ctx context.Context, s *trace.Stream) (CoreStats, *SampledRunStats, error)

// runFused is the fused simulate→replay orchestrator behind RunStreaming and
// RunSampled. The producer goroutine feeds the stream; the calling goroutine
// calibrates from the pilot window, builds the profiler matrix, and replays
// the stream through it. With sampled set the pilot's full-run estimate is
// shrunk to the measured fraction the profilers actually observe. Error
// precedence follows the captured path: a producer failure surfaces as the
// run error, a shard consumer failure as the replay error, and any failure
// cancels the other side before returning.
func runFused(ctx context.Context, w *Workload, rc RunConfig, sampled bool, produce producer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fail := func(err error) (*Result, error) {
		return nil, fmt.Errorf("tip: %s: %w", w.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	var pilotCycles uint64
	if rc.SampleInterval == 0 {
		pilotCycles = DefaultPilotCycles
	}
	s := trace.NewStream(trace.StreamConfig{PilotCycles: pilotCycles})

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var stats CoreStats
	var sampling *SampledRunStats
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		st, sr, err := produce(runCtx, s)
		if err != nil {
			// The producer delivered no Finish; Fail closes the producer
			// side so the replay drains and then observes this error.
			s.Fail(err)
			return
		}
		stats, sampling = st, sr
	}()
	// stop tears down both sides on a consumer-side failure: the stream stops
	// accepting records, the producer's context is cancelled, and the
	// producer goroutine is awaited so nothing races the return.
	stop := func() {
		s.Abort()
		cancelRun()
		<-prodDone
	}

	interval := rc.SampleInterval
	estCycles := uint64(0)
	if interval == 0 {
		ps, err := s.Pilot(ctx)
		if err != nil {
			stop()
			return fail(err)
		}
		estCycles = PilotEstimateCycles(ps, w.TargetDynInsts)
		if sampled && !ps.Exact {
			// The pilot extrapolates the full run, but the profilers only
			// see the measured fraction of it — shrink the estimate so the
			// interval still collects ~TargetSamples from the measured
			// stream. (Exact pilot stats already are the measured total.)
			estCycles = mulDiv(estCycles, rc.WindowCycles, rc.WindowInterval)
		}
		interval = CalibrateInterval(estCycles, rc.TargetSamples)
	}
	m := buildMatrix(w, rc, interval, estCycles)

	workers := rc.ReplayWorkers
	if workers < 1 {
		workers = 1
	}
	if _, _, err := s.ReplayShards(ctx, m.shards(workers)...); err != nil {
		stop()
		return fail(err)
	}
	// A clean replay means the producer already Finished; the wait is only
	// for the stats publication.
	<-prodDone
	res, err := m.result(w, stats, interval)
	if err != nil {
		return fail(err)
	}
	res.Sampling = sampling
	return res, nil
}
