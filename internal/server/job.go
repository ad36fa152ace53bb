package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/experiments"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// Job states.
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// CoreJobSpec names one core's workload in a multicore job.
type CoreJobSpec struct {
	// Bench is the benchmark name (required; see tipsim -list).
	Bench string `json:"bench"`
	// Seed is the workload seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the approximate dynamic-instruction budget (0 = full).
	Scale uint64 `json:"scale,omitempty"`
}

// JobSpec is the body of POST /v1/jobs: which benchmark to profile and how.
type JobSpec struct {
	// Bench is the benchmark name (required unless Cores is set; see
	// tipsim -list).
	Bench string `json:"bench,omitempty"`
	// Seed is the workload seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the approximate dynamic-instruction budget (0 = full).
	Scale uint64 `json:"scale,omitempty"`
	// Profilers restricts the sampled-profiler set (default: all).
	Profilers []string `json:"profilers,omitempty"`
	// Granularity selects the error-reporting symbol level:
	// "instruction" (default), "block", or "function".
	Granularity string `json:"granularity,omitempty"`
	// TargetSamples calibrates the sampling interval (default 4096).
	TargetSamples uint64 `json:"target_samples,omitempty"`
	// ReplayWorkers fans the replay out over this many goroutines
	// (default 2 — sharded replays cancel between chunks, so DELETE
	// aborts promptly; results are byte-identical at any count).
	ReplayWorkers int `json:"replay_workers,omitempty"`
	// Sampled runs the job under sampled simulation: detailed measurement
	// windows alternating with functional fast-forward, with the cycle
	// total stitched from the window CPIs. Sampled jobs bypass the capture
	// cache — fast-forward legs emit no trace records, so there is no full
	// capture to store or reuse.
	Sampled bool `json:"sampled,omitempty"`
	// WindowCycles, WindowInterval, and WarmupCycles set the sampled
	// schedule geometry (0 = evaluation-harness defaults; all three
	// require "sampled").
	WindowCycles   uint64 `json:"window_cycles,omitempty"`
	WindowInterval uint64 `json:"window_interval,omitempty"`
	WarmupCycles   uint64 `json:"warmup_cycles,omitempty"`
	// WarmupAuto sizes the warmup from the fast-forward leg length
	// (tip.AutoWarmupCycles), overriding warmup_cycles; normalize resolves
	// it into warmup_cycles.
	WarmupAuto bool `json:"warmup_auto,omitempty"`
	// WindowWorkers runs the sampled windows checkpoint-parallel on up to
	// this many worker cores (clamped to [0, tip.MaxWindowWorkers]; 0 =
	// serial schedule; results are byte-identical at any count >= 1).
	WindowWorkers int `json:"window_workers,omitempty"`
	// Cores runs a multi-programmed lockstep job: workload i on core i of
	// one shared-LLC system, each core profiled from its own capture.
	// Mutually exclusive with Bench/Seed/Scale and Sampled. The captures
	// are cached keyed by the ordered core set — order matters, because
	// physical placement changes shared-cache arbitration.
	Cores []CoreJobSpec `json:"cores,omitempty"`
}

// normalize validates the spec, applies defaults, and resolves the parsed
// profiler kinds and granularity.
func (sp *JobSpec) normalize() ([]profiler.Kind, profile.Granularity, error) {
	if len(sp.Cores) > 0 {
		switch {
		case sp.Bench != "" || sp.Seed != 0 || sp.Scale != 0:
			return nil, 0, fmt.Errorf("cores is mutually exclusive with bench/seed/scale")
		case sp.Sampled:
			return nil, 0, fmt.Errorf("cores cannot be combined with sampled")
		case len(sp.Cores) > 4:
			return nil, 0, fmt.Errorf("at most 4 cores (got %d)", len(sp.Cores))
		}
		for i := range sp.Cores {
			c := &sp.Cores[i]
			if c.Bench == "" {
				return nil, 0, fmt.Errorf("cores[%d]: bench is required", i)
			}
			if !validBench(c.Bench) {
				return nil, 0, fmt.Errorf("cores[%d]: unknown benchmark %q", i, c.Bench)
			}
			if c.Seed == 0 {
				c.Seed = 1
			}
		}
	} else {
		if sp.Bench == "" {
			return nil, 0, fmt.Errorf("bench is required")
		}
		if !validBench(sp.Bench) {
			return nil, 0, fmt.Errorf("unknown benchmark %q", sp.Bench)
		}
		if sp.Seed == 0 {
			sp.Seed = 1
		}
	}
	if sp.ReplayWorkers == 0 {
		sp.ReplayWorkers = 2
	}
	if sp.ReplayWorkers < 1 || sp.ReplayWorkers > 16 {
		return nil, 0, fmt.Errorf("replay_workers %d out of range [1,16]", sp.ReplayWorkers)
	}
	if !sp.Sampled {
		switch {
		case sp.WindowCycles != 0:
			return nil, 0, fmt.Errorf("window_cycles requires sampled")
		case sp.WindowInterval != 0:
			return nil, 0, fmt.Errorf("window_interval requires sampled")
		case sp.WarmupCycles != 0:
			return nil, 0, fmt.Errorf("warmup_cycles requires sampled")
		case sp.WarmupAuto:
			return nil, 0, fmt.Errorf("warmup_auto requires sampled")
		case sp.WindowWorkers != 0:
			return nil, 0, fmt.Errorf("window_workers requires sampled")
		}
	} else {
		sp.WindowWorkers = min(max(sp.WindowWorkers, 0), tip.MaxWindowWorkers)
		warmup := ""
		if sp.WarmupAuto {
			warmup = "auto"
		} else if sp.WarmupCycles != 0 {
			warmup = strconv.FormatUint(sp.WarmupCycles, 10)
		}
		rc := tip.DefaultRunConfig()
		if err := tip.ConfigureSampled(&rc, sp.WindowCycles, sp.WindowInterval, warmup); err != nil {
			return nil, 0, err
		}
		sp.WindowCycles, sp.WindowInterval, sp.WarmupCycles = rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles
	}
	var kinds []profiler.Kind
	if len(sp.Profilers) > 0 {
		var err error
		if kinds, err = profiler.ParseKinds(sp.Profilers); err != nil {
			return nil, 0, err
		}
	}
	var gran profile.Granularity
	switch strings.ToLower(sp.Granularity) {
	case "", "instruction":
		gran = profile.GranInstruction
		sp.Granularity = "instruction"
	case "block", "basic-block":
		gran = profile.GranBlock
		sp.Granularity = "block"
	case "function":
		gran = profile.GranFunction
		sp.Granularity = "function"
	default:
		return nil, 0, fmt.Errorf("unknown granularity %q (instruction, block, function)", sp.Granularity)
	}
	return kinds, gran, nil
}

func validBench(name string) bool {
	if name == "imagick-opt" {
		return true
	}
	_, ok := workload.ByName(name)
	return ok
}

// job is one profiling job's full lifecycle. Mutable fields are guarded by
// the owning Server's mu.
type job struct {
	id   string
	spec JobSpec

	kinds []profiler.Kind
	gran  profile.Granularity

	state    string
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc

	// source records where the job's capture came from: "cache" (local LRU
	// or a shared singleflight), "store" (pulled from the capture store),
	// "simulated" (a fresh cycle-level simulation), or "sampled" (sampled
	// jobs always simulate their windows).
	source string
	// timing reuses the experiments phase-split struct: capture vs replay
	// wall-clock plus the replay worker count actually used.
	timing experiments.Timing

	outcome *jobOutcome
}

// Capture sources for job.source / jobOutcome.source.
const (
	sourceCache     = "cache"
	sourceStore     = "store"
	sourceSimulated = "simulated"
	sourceSampled   = "sampled"
)

// jobOutcome is what a successful execution hands back to the server.
// Exactly one of res (single-core) and multi (multicore) is set.
type jobOutcome struct {
	res    *tip.Result
	multi  *tip.MulticoreResult
	source string
	timing experiments.Timing
}

// executeJob is the real job runner. When the capture cache finds the trace
// (in memory or in the store), it is replayed through the job's profiler
// matrix; when the cache has to simulate, the whole job runs fused — the
// cycle-level simulation streams straight into the replay shards while the
// encoded trace is teed into the cache — so the miss costs
// max(simulate, replay) instead of their sum. A fused miss calibrates its
// sampling interval from the streaming pilot window, so its interval (and
// result) can differ marginally from a later cache-hit rerun of the same
// spec, which calibrates from the exact cycle count. Cancelling ctx aborts
// either path.
func (s *Server) executeJob(ctx context.Context, jb *job) (*jobOutcome, error) {
	spec := jb.spec
	out := &jobOutcome{}
	rc := tip.DefaultRunConfig()
	rc.Core = s.cfg.Core
	rc.Profilers = jb.kinds
	rc.TargetSamples = spec.TargetSamples
	rc.ReplayWorkers = spec.ReplayWorkers
	out.timing.ReplayWorkers = spec.ReplayWorkers

	if len(spec.Cores) > 0 {
		return s.executeMulticoreJob(ctx, spec, rc, out)
	}

	w, err := workload.LoadScaled(spec.Bench, spec.Seed, spec.Scale)
	if err != nil {
		return nil, err
	}
	key := captureKey{Bench: spec.Bench, Seed: spec.Seed, Scale: spec.Scale, Core: s.coreHash}

	if spec.Sampled {
		// Sampled jobs skip the capture cache: the fast-forward legs emit
		// no trace records, so there is no full capture to store, and
		// replaying someone else's cached full trace would charge this job
		// the full-simulation cost it asked to avoid. The whole run is
		// fused (simulate + profile in one pass), so its wall-clock is
		// reported as replay time like a fused miss.
		rc.Sampled = true
		rc.WindowCycles = spec.WindowCycles
		rc.WindowInterval = spec.WindowInterval
		rc.WarmupCycles = spec.WarmupCycles
		rc.WindowWorkers = spec.WindowWorkers
		start := time.Now()
		res, err := tip.RunSampled(ctx, w, rc)
		if err != nil {
			return nil, err
		}
		out.timing.Replay = time.Since(start)
		out.res = res
		out.source = sourceSampled
		return out, nil
	}

	var fusedRes *tip.Result
	start := time.Now()
	ent, source, err := s.cache.getOrCapture(ctx, key, func(ctx context.Context) ([]*tip.TraceCapture, []tip.CoreStats, error) {
		res, capt, err := runTee(ctx, w, rc)
		if err != nil {
			return nil, nil, err
		}
		s.met.simulationRan()
		fusedRes = res
		return []*tip.TraceCapture{capt}, []tip.CoreStats{res.Stats}, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.cache.release(ent)
	out.source = source

	if fusedRes != nil {
		// Fused miss: this worker was the capture leader and the streaming
		// run already evaluated the job's matrix. Simulation and replay
		// overlapped, so the whole wall-clock is reported as replay time.
		out.timing.Replay = time.Since(start)
		out.res = fusedRes
		return out, nil
	}
	out.timing.Capture = time.Since(start)

	repStart := time.Now()
	res, err := tip.RunCaptured(ctx, w, ent.captures[0], ent.stats[0], rc)
	out.timing.Replay = time.Since(repStart)
	if err != nil {
		return nil, err
	}
	out.res = res
	return out, nil
}

// runTee is a fused streaming run whose encoded trace is also captured as it
// streams past — the equivalent of CaptureWorkload followed by RunCaptured.
// On success the caller owns the capture and must Close it; on error no
// capture is returned and any spill file is released.
func runTee(ctx context.Context, w *tip.Workload, rc tip.RunConfig) (*tip.Result, *tip.TraceCapture, error) {
	capt := trace.NewCapture()
	rc.ExtraConsumers = []trace.Consumer{capt}
	res, err := tip.RunStreaming(ctx, w, rc)
	if err == nil && capt.Err() != nil {
		err = fmt.Errorf("tip: %s: capture: %w", w.Name, capt.Err())
	}
	if err != nil {
		return nil, nil, errors.Join(err, capt.Close())
	}
	return res, capt, nil
}

// executeMulticoreJob runs a "cores" job: on a capture-cache miss the whole
// core set is simulated lockstep into one capture per core; hit or miss,
// each core's capture is then replayed through that core's profiler
// matrix. Multicore jobs have no fused streaming path — capture and replay
// are reported as separate phases.
func (s *Server) executeMulticoreJob(ctx context.Context, spec JobSpec, rc tip.RunConfig, out *jobOutcome) (*jobOutcome, error) {
	ws := make([]*tip.Workload, len(spec.Cores))
	for i, c := range spec.Cores {
		w, err := workload.LoadScaled(c.Bench, c.Seed, c.Scale)
		if err != nil {
			return nil, fmt.Errorf("cores[%d]: %w", i, err)
		}
		ws[i] = w
	}
	key := captureKey{Cores: coreSetHash(spec.Cores), Core: s.coreHash, NCores: len(ws)}
	start := time.Now()
	ent, source, err := s.cache.getOrCapture(ctx, key, func(ctx context.Context) ([]*tip.TraceCapture, []tip.CoreStats, error) {
		capts, stats, err := tip.CaptureMulticore(ctx, ws, rc.Core)
		if err != nil {
			return nil, nil, err
		}
		s.met.simulationRan()
		return capts, stats, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.cache.release(ent)
	out.source = source
	out.timing.Capture = time.Since(start)

	repStart := time.Now()
	multi, err := tip.RunMulticoreCaptured(ctx, ws, ent.captures, ent.stats, rc)
	out.timing.Replay = time.Since(repStart)
	if err != nil {
		return nil, err
	}
	out.multi = multi
	return out, nil
}

// --- JSON views ------------------------------------------------------------

// TimingView is a job's phase split in seconds.
type TimingView struct {
	CaptureSeconds float64 `json:"capture_seconds"`
	ReplaySeconds  float64 `json:"replay_seconds"`
	ReplayWorkers  int     `json:"replay_workers"`
}

// SamplingView summarises a sampled job's schedule and stitching: how many
// measurement windows ran, how much of the estimate was actually simulated
// in detail, and how many instructions were fast-forwarded. The job's
// "cycles" field is the stitched estimate, not a measured count.
type SamplingView struct {
	Windows          uint64  `json:"windows"`
	MeasuredCycles   uint64  `json:"measured_cycles"`
	DetailedFraction float64 `json:"detailed_fraction"`
	FFInstructions   uint64  `json:"ff_instructions"`
	// WindowWorkers, SweepSeconds and MeasureSeconds describe the
	// checkpoint-parallel schedule when it ran (window_workers 0 = the
	// serial path; the wall-clock split is then omitted).
	WindowWorkers  int     `json:"window_workers,omitempty"`
	SweepSeconds   float64 `json:"sweep_seconds,omitempty"`
	MeasureSeconds float64 `json:"measure_seconds,omitempty"`
}

// FuncShare is one row of a function-granularity profile.
type FuncShare struct {
	Name   string  `json:"name"`
	Cycles float64 `json:"cycles"`
	Share  float64 `json:"share"`
}

// ResultView is a completed job's evaluation summary: run statistics, the
// Oracle cycle stack, per-profiler errors at the requested granularity, and
// function-granularity profiles for Oracle and every modelled profiler.
//
// A multicore job's top-level view carries only Cycles (the lockstep run's
// length) plus one full per-core view per entry of Cores, each tagged
// with its benchmark name.
type ResultView struct {
	Bench          string                 `json:"bench,omitempty"`
	Cycles         uint64                 `json:"cycles"`
	Committed      uint64                 `json:"committed,omitempty"`
	IPC            float64                `json:"ipc,omitempty"`
	SampleInterval uint64                 `json:"sample_interval,omitempty"`
	Class          string                 `json:"class,omitempty"`
	CycleStack     map[string]float64     `json:"cycle_stack,omitempty"`
	Errors         map[string]float64     `json:"errors,omitempty"`
	Profiles       map[string][]FuncShare `json:"profiles,omitempty"`
	Sampling       *SamplingView          `json:"sampling,omitempty"`
	Cores          []*ResultView          `json:"cores,omitempty"`
}

// JobView is the wire representation of a job.
type JobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Spec     JobSpec    `json:"spec"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	CacheHit bool       `json:"cache_hit"`
	// CaptureSource says where the capture came from: "cache", "store",
	// "simulated", or "sampled". Empty until the job finishes.
	CaptureSource string      `json:"capture_source,omitempty"`
	Timing        *TimingView `json:"timing,omitempty"`
	Result        *ResultView `json:"result,omitempty"`
}

// view renders jb; the caller holds s.mu.
func (s *Server) view(jb *job) JobView {
	v := JobView{
		ID:            jb.id,
		State:         jb.state,
		Spec:          jb.spec,
		Error:         jb.errMsg,
		Created:       jb.created,
		CacheHit:      jb.source == sourceCache,
		CaptureSource: jb.source,
	}
	if !jb.started.IsZero() {
		t := jb.started
		v.Started = &t
	}
	if !jb.finished.IsZero() {
		t := jb.finished
		v.Finished = &t
	}
	if jb.state == stateDone || jb.state == stateFailed {
		v.Timing = &TimingView{
			CaptureSeconds: jb.timing.Capture.Seconds(),
			ReplaySeconds:  jb.timing.Replay.Seconds(),
			ReplayWorkers:  jb.timing.ReplayWorkers,
		}
	}
	if jb.outcome != nil && jb.outcome.res != nil {
		v.Result = resultView(jb.outcome.res, jb.gran)
	}
	if jb.outcome != nil && jb.outcome.multi != nil {
		mv := &ResultView{Cycles: jb.outcome.multi.TotalCycles}
		for i, res := range jb.outcome.multi.Cores {
			cv := resultView(res, jb.gran)
			cv.Bench = jb.spec.Cores[i].Bench
			mv.Cores = append(mv.Cores, cv)
		}
		v.Result = mv
	}
	return v
}

func resultView(res *tip.Result, gran profile.Granularity) *ResultView {
	stack := res.Stack()
	norm := stack.Normalized()
	rv := &ResultView{
		Cycles:         res.Stats.Cycles,
		Committed:      res.Stats.Committed,
		IPC:            res.Stats.IPC(),
		SampleInterval: res.SampleInterval,
		Class:          stack.Class(),
		CycleStack:     map[string]float64{},
		Errors:         map[string]float64{},
		Profiles:       map[string][]FuncShare{},
	}
	for i, frac := range norm {
		rv.CycleStack[profile.Category(i).String()] = frac
	}
	for k := range res.Sampled {
		rv.Errors[k.String()] = res.Err(k, gran)
	}
	if sr := res.Sampling; sr != nil {
		rv.Sampling = &SamplingView{
			Windows:          sr.Windows,
			MeasuredCycles:   sr.MeasuredCycles,
			DetailedFraction: sr.DetailedFraction(),
			FFInstructions:   sr.FFInstructions,
			WindowWorkers:    sr.WindowWorkers,
			SweepSeconds:     sr.SweepSeconds,
			MeasureSeconds:   sr.MeasureSeconds,
		}
	}
	rv.Profiles["Oracle"] = funcShares(res.Oracle.Profile)
	for k, sp := range res.Sampled {
		rv.Profiles[k.String()] = funcShares(sp.Profile)
	}
	return rv
}

// funcShares aggregates a profile to function granularity (application code
// only, like the paper's evaluation).
func funcShares(p *profile.Profile) []FuncShare {
	agg := p.Aggregate(profile.GranFunction, true)
	total := 0.0
	for _, v := range agg {
		total += v
	}
	out := []FuncShare{}
	for i, v := range agg {
		if v == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = v / total
		}
		out = append(out, FuncShare{Name: p.Prog.Funcs[i].Name, Cycles: v, Share: share})
	}
	return out
}
