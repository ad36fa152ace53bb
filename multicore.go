package tip

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/tipprof/tip/internal/multicore"
	"github.com/tipprof/tip/internal/trace"
)

// errMulticoreSampled rejects RunConfig.Sampled on the multicore routes:
// the lockstep system runs every core in full detail, and no sampled
// schedule steps several cores' fast-forward and window legs together.
var errMulticoreSampled = errors.New("tip: multicore runs do not support sampled simulation (RunConfig.Sampled)")

// errMulticoreExtras rejects extra consumers on the multicore routes: each
// core's matrix replays that core's own capture, so an extra consumer would
// see one core's stream per matrix it joined, never the single stream its
// caller wired it for.
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
// Result per core, each validated against that core's own Oracle (§3.2 —
// every physical core has its own TIP unit; a co-runner changes a
// benchmark's timing but not its profile's accuracy).
type MulticoreResult struct {
	// Cores holds one Result per core, in spec order.
	Cores []*Result
	// TotalCycles is the lockstep run's length: the last committing cycle
	// across all cores, plus one.
	TotalCycles uint64
}

// CaptureMulticore runs ws lockstep on one shared-LLC system — workload i
// on core i — and records each core's commit-stage records into a capture
// of its own, as that core's TIP unit would (§3.2). Capture i is exactly
// the trace CaptureWorkload would write for core i's record stream. It
// returns the captures (the caller must Close each) and each core's run
// statistics. Cancelling ctx aborts the simulation; a nil ctx disables
// cancellation.
func CaptureMulticore(ctx context.Context, ws []*Workload, cfg CoreConfig) ([]*TraceCapture, []CoreStats, error) {
	if len(ws) == 0 {
		return nil, nil, errors.New("tip: multicore capture needs at least one workload")
	}
	capts := make([]*TraceCapture, len(ws))
	specs := make([]multicore.CoreSpec, len(ws))
	for i, w := range ws {
		capts[i] = trace.NewCapture()
		specs[i] = multicore.CoreSpec{Workload: w, Consumers: []trace.Consumer{capts[i]}}
	}
	results, err := multicore.New(cfg, specs).Run(ctx)
	for i := 0; err == nil && i < len(capts); i++ {
		if cerr := capts[i].Err(); cerr != nil {
			err = fmt.Errorf("tip: core %d (%s) capture: %w", i, ws[i].Name, cerr)
		}
	}
	if err != nil {
		if cerr := closeCaptures(capts); cerr != nil {
			err = errors.Join(err, fmt.Errorf("tip: close multicore capture: %w", cerr))
		}
		return nil, nil, err
	}
	stats := make([]CoreStats, len(results))
	for i := range results {
		stats[i] = results[i].Stats
	}
	return capts, stats, nil
}

// closeCaptures closes every capture of a multicore run.
func closeCaptures(capts []*TraceCapture) error {
	var errs []error
	for _, c := range capts {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// RunMulticoreCaptured evaluates rc's profiler matrix per core by replaying
// capture i of a CaptureMulticore run through RunCaptured with workload i
// and stats[i], the capture run's statistics for core i. Each core is thus
// a single-core replay: with rc.SampleInterval zero its interval is
// calibrated from its own cycle count, and with rc.Check its own invariant
// checker audits its stream.
//
// The cores replay concurrently, each over max(1, ReplayWorkers/len(ws))
// shards, so worker count never changes profile output and an n-core
// replay runs at least n shards. A failure on one core cancels the others;
// the first error in core order that is not such a cancellation is
// returned. rc.Sampled, rc.ExtraConsumers and rc.ExtraConsumersAt are
// rejected: an extra consumer would observe one core's stream per matrix
// it was added to, which is never what a caller wiring a single-stream
// consumer expects.
func RunMulticoreCaptured(ctx context.Context, ws []*Workload, capts []*TraceCapture, stats []CoreStats, rc RunConfig) (*MulticoreResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkMulticore(&rc); err != nil {
		return nil, err
	}
	if len(ws) == 0 || len(ws) != len(capts) || len(ws) != len(stats) {
		return nil, fmt.Errorf("tip: multicore replay: %d workloads, %d captures, %d stats", len(ws), len(capts), len(stats))
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tip: multicore replay: %w", err)
	}

	rc.ReplayWorkers = max(1, rc.ReplayWorkers/len(ws))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := &MulticoreResult{Cores: make([]*Result, len(ws))}
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res.Cores[i], errs[i] = RunCaptured(ctx, ws[i], capts[i], stats[i], rc); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	failed := -1
	for i, err := range errs {
		if err != nil && (failed < 0 || errors.Is(errs[failed], context.Canceled) && !errors.Is(err, context.Canceled)) {
			failed = i
		}
	}
	if failed >= 0 {
		return nil, fmt.Errorf("tip: core %d: %w", failed, errs[failed])
	}
	for _, cr := range res.Cores {
		res.TotalCycles = max(res.TotalCycles, cr.Stats.Cycles)
	}
	return res, nil
}

// RunMulticore captures a lockstep multi-programmed run of ws and evaluates
// the per-core profiler matrices from the captures — the whole-pipeline
// multicore entry point behind tipsim -cores, tipbench -figures multicore,
// and tipd "cores" jobs. The settings RunMulticoreCaptured rejects are
// rejected before anything is simulated.
func RunMulticore(ctx context.Context, ws []*Workload, rc RunConfig) (*MulticoreResult, error) {
	if err := checkMulticore(&rc); err != nil {
		return nil, err
	}
	capts, stats, err := CaptureMulticore(ctx, ws, rc.Core)
	if err != nil {
		return nil, err
	}
	defer closeCaptures(capts)
	return RunMulticoreCaptured(ctx, ws, capts, stats, rc)
}
