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
// estimate — identical to Run's exact calibration only when the run ends
// inside the pilot window; profiler output is byte-identical between the two
// whenever the interval matches.
//
// A caller that also needs the encoded trace passes a trace.Capture in
// rc.ExtraConsumers and owns its Close and Err. A nil ctx means
// context.Background().
func RunStreaming(ctx context.Context, w *Workload, rc RunConfig) (*Result, error) {
	return runFused(ctx, w, rc, DefaultPilotCycles, simulate(w, rc.Core))
}

// producer runs a simulation into s on its own goroutine. On success the
// producer side must already be Finished; on error runFused Fails it.
type producer func(ctx context.Context, s *trace.Stream) (CoreStats, *SampledRunStats, error)

// simulate is the full-detail producer: one cycle-level run of w, which
// RunContext Finishes itself on success.
func simulate(w *Workload, cfg CoreConfig) producer {
	return func(ctx context.Context, s *trace.Stream) (CoreStats, *SampledRunStats, error) {
		st, err := newCore(cfg, w).RunContext(ctx, s)
		return st, nil, err
	}
}

// runFused is the one orchestrator behind every single-core simulation (Run,
// RunStreaming, RunSampled). The producer goroutine feeds a trace.Stream; the
// calling goroutine calibrates from the stream's pilot window, builds the
// profiler matrix, and replays the stream through it (see evaluate). The
// calibration policy is nothing more than that window: pilotCycles is
// wholeRunPilot for Exact (the whole run is captured and calibrated from its
// exact cycle count), DefaultPilotCycles for Pilot (a prefix is extrapolated
// to the whole run), and an explicit rc.SampleInterval makes it Fixed (no
// window: records flow straight into the ring). For an rc.Sampled run the
// pilot's full-run estimate is shrunk to the measured fraction the profilers
// actually observe. Error precedence follows the captured path: a producer
// failure surfaces as the run error, a shard consumer failure as the replay
// error, and any failure stops the other side, releasing an unreplayed pilot,
// before returning.
func runFused(ctx context.Context, w *Workload, rc RunConfig, pilotCycles uint64, produce producer) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tip: %s: %w", w.Name, err)
	}
	if rc.SampleInterval != 0 {
		pilotCycles = 0
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

	res, err := evaluate(ctx, w, rc, func() (uint64, error) {
		ps, err := s.Pilot(ctx)
		if err != nil {
			return 0, err
		}
		est := pilotEstimateCycles(ps, w.TargetDynInsts)
		if rc.Sampled && !ps.Exact {
			// The pilot extrapolates the full run, but the profilers only
			// see the measured fraction of it — shrink the estimate so the
			// interval still collects ~TargetSamples from the measured
			// stream. (Exact pilot stats already are the measured total.)
			est = mulDiv(est, rc.WindowCycles, rc.WindowInterval)
		}
		return est, nil
	}, s.ReplayShards)
	if err != nil {
		// Stop both sides: the stream accepts no more records (and
		// releases a pilot nothing replayed), and the producer's context
		// is cancelled.
		s.Abort()
		cancelRun()
	}
	// After a clean replay the producer already Finished; the wait is for
	// its stats publication. After a failure it keeps anything from racing
	// the return.
	<-prodDone
	if err != nil {
		return nil, fmt.Errorf("tip: %s: %w", w.Name, err)
	}
	res.Stats, res.Sampling = stats, sampling
	return res, nil
}
