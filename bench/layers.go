package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/experiments"
	"github.com/tipprof/tip/internal/pprofenc"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Name   string  `json:"name"`
	Arg    string  `json:"arg,omitempty"` // the benchmark or job key
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Events uint64  `json:"events"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths can share the traced ones.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int) int { return t.startArg(name, "", parent) }

func (t *tracer) startArg(name, arg string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Arg: arg, StartS: time.Since(t.t0).Seconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, events uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndS = time.Since(t.t0).Seconds()
	t.spans[id].Events = events
}

// timed runs f in a span and returns its duration in seconds; f returns the
// span's event count.
func (t *tracer) timed(name string, parent int, f func() (uint64, error)) (float64, error) {
	id := t.start(name, parent)
	start := time.Now()
	ev, err := f()
	d := time.Since(start).Seconds()
	t.end(id, ev)
	return d, err
}

// layerSelf is one span name's total self time: its spans' durations minus
// the part of each interval its child spans cover.
type layerSelf struct {
	Name   string  `json:"name"`
	SelfS  float64 `json:"self_s"`
	Spans  int     `json:"spans"`
	Events uint64  `json:"events"`
}

func selfTimes(spans []span) []layerSelf {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerSelf{}
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartS < cs[j].StartS })
		covered, end := 0.0, s.StartS
		for _, c := range cs {
			lo, hi := max(c.StartS, end), min(c.EndS, s.EndS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		l := by[s.Name]
		if l == nil {
			l = &layerSelf{Name: s.Name}
			by[s.Name] = l
		}
		l.SelfS += s.EndS - s.StartS - covered
		l.Spans++
		l.Events += s.Events
	}
	out := make([]layerSelf, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// traceResult is a traced run's per-layer metrics and spans.
type traceResult struct {
	metrics map[string]float64
	spans   []span
}

// layerAcc sums what the traced pass and the probes measured.
type layerAcc struct {
	loadS, measureS, captureS, decodeS, b1S, b2S, ringS, replayS, errorS float64
	cycles, records, bytes, chunks, samples                              uint64
	encMS, encBytes                                                      []float64
	ffS                                                                  float64
	ffInsts                                                              uint64
	checkpointUS, restoreUS                                              []float64
	sampled                                                              tip.SampledRunStats
	sampledWallS                                                         float64
	expCaptureS, expReplayS                                              float64
}

func (a *layerAcc) ringNs() float64     { return (a.ringS - a.measureS) / float64(a.records) * 1e9 }
func (a *layerAcc) encodeNs() float64   { return (a.captureS - a.measureS) / float64(a.records) * 1e9 }
func (a *layerAcc) decodeNs() float64   { return a.decodeS / float64(a.records) * 1e9 }
func (a *layerAcc) dispatchNs() float64 { return (a.replayS - a.decodeS) / float64(a.records) * 1e9 }
func (a *layerAcc) cycleNs() float64    { return a.measureS / float64(a.cycles) * 1e9 }

// metrics derives the probe-measured per-layer metrics.
func (a *layerAcc) metrics(lm map[string]float64) {
	lm["workload.load_ms"] = a.loadS * 1e3
	lm["cpu.ns_per_cycle"] = a.cycleNs()
	lm["cpu.cycles"] = float64(a.cycles)
	lm["cpu.ff_ns_per_inst"] = a.ffS / float64(a.ffInsts) * 1e9
	lm["cpu.checkpoint_us"] = median(a.checkpointUS)
	lm["cpu.restore_us"] = median(a.restoreUS)
	lm["trace.encode_ns_per_record"] = a.encodeNs()
	lm["trace.decode_ns_per_record"] = a.decodeNs()
	lm["trace.records"] = float64(a.records)
	lm["trace.capture_bytes_per_record"] = float64(a.bytes) / float64(a.records)
	lm["trace.ring_ns_per_record"] = a.ringNs()
	lm["trace.broadcast_ns_per_chunk.1"] = (a.b1S - a.decodeS) / float64(a.chunks) * 1e9
	lm["trace.broadcast_ns_per_chunk.2"] = (a.b2S - a.decodeS) / float64(a.chunks) * 1e9
	lm["profiler.dispatch_ns_per_record"] = a.dispatchNs()
	lm["profiler.samples"] = float64(a.samples)
	lm["profile.error_ms"] = a.errorS * 1e3
	lm["pprofenc.encode_ms"] = median(a.encMS)
	lm["pprofenc.bytes"] = median(a.encBytes)
	lm["experiments.capture_s"] = a.expCaptureS
	lm["experiments.replay_s"] = a.expReplayS
	s := a.sampled
	lm["sampled.sweep_s"] = s.SweepSeconds
	lm["sampled.measure_s"] = s.MeasureSeconds
	lm["sampled.windows"] = float64(s.Windows)
	lm["sampled.ff_insts"] = float64(s.FFInstructions)
	lm["sampled.detailed_fraction"] = float64(s.DetailedCycles) / float64(s.EstimatedCycles)
	lm["sampled.leg_overlap"] = s.MeasureSeconds / a.sampledWallS
}

// prober runs layer probes, each in its own span.
type prober struct {
	ctx  context.Context
	tr   *tracer
	seed uint64
	acc  layerAcc
	// parent is the span the probes hang under.
	parent int
}

func (p *prober) load(parent int, name string, seed, scale uint64) (*workload.Workload, error) {
	var w *workload.Workload
	d, err := p.tr.timed("workload.LoadScaled", parent, func() (uint64, error) {
		var err error
		w, err = workload.LoadScaled(name, seed, scale)
		return 1, err
	})
	p.acc.loadS += d
	return w, err
}

// measure is an unprofiled run: the core's cost per cycle alone.
func (p *prober) measure(w *workload.Workload) error {
	d, err := p.tr.timed("tip.MeasureStats", p.parent, func() (uint64, error) {
		st, err := tip.MeasureStats(w, cpu.DefaultConfig())
		p.acc.cycles += st.Cycles
		return st.Cycles, err
	})
	p.acc.measureS += d
	return err
}

func (p *prober) capture(parent int, w *workload.Workload) (*tip.TraceCapture, tip.CoreStats, error) {
	var capt *tip.TraceCapture
	var stats tip.CoreStats
	d, err := p.tr.timed("tip.CaptureWorkload", parent, func() (uint64, error) {
		var err error
		capt, stats, err = tip.CaptureWorkload(w, cpu.DefaultConfig())
		if err != nil {
			return 0, err
		}
		return capt.Records(), nil
	})
	if err != nil {
		return nil, stats, err
	}
	p.acc.captureS += d
	p.acc.records += capt.Records()
	p.acc.bytes += capt.Bytes()
	p.acc.chunks += (capt.Records() + trace.DefaultChunkRecords - 1) / trace.DefaultChunkRecords
	return capt, stats, nil
}

// decodeAndBroadcast replays capt into counting consumers: sequentially
// (decode alone) and broadcast to one and to two shards.
func (p *prober) decodeAndBroadcast(capt *tip.TraceCapture) error {
	d, err := p.tr.timed("trace.Capture.Replay", p.parent, func() (uint64, error) {
		_, n, err := capt.Replay(&trace.CountingConsumer{})
		return n, err
	})
	if err != nil {
		return err
	}
	p.acc.decodeS += d
	for _, shards := range []int{1, 2} {
		cs := make([]trace.Consumer, shards)
		for i := range cs {
			cs[i] = &trace.CountingConsumer{}
		}
		d, err := p.tr.timed(fmt.Sprintf("trace.Capture.ReplayShards.%d", shards), p.parent, func() (uint64, error) {
			_, n, err := capt.ReplayShards(p.ctx, 0, cs...)
			return n, err
		})
		if err != nil {
			return err
		}
		if shards == 1 {
			p.acc.b1S += d
		} else {
			p.acc.b2S += d
		}
	}
	return nil
}

// ring runs w's core into a Stream drained by one counting shard.
func (p *prober) ring(w *workload.Workload) error {
	d, err := p.tr.timed("trace.Stream.ReplayShards", p.parent, func() (uint64, error) {
		s := trace.NewStream(trace.StreamConfig{})
		ctx, cancel := context.WithCancel(p.ctx)
		defer cancel()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := newCore(w).RunContext(ctx, s); err != nil {
				s.Fail(err)
			}
		}()
		_, n, err := s.ReplayShards(ctx, &trace.CountingConsumer{})
		cancel()
		<-done
		return n, err
	})
	p.acc.ringS += d
	return err
}

// replay evaluates a profiler matrix over capt.
func (p *prober) replay(parent int, w *workload.Workload, capt *tip.TraceCapture, stats tip.CoreStats, rc tip.RunConfig) (*tip.Result, error) {
	var res *tip.Result
	d, err := p.tr.timed("tip.RunCaptured", parent, func() (uint64, error) {
		var err error
		res, err = tip.RunCaptured(p.ctx, w, capt, stats, rc)
		return capt.Records(), err
	})
	p.acc.replayS += d
	return res, err
}

// extractErrors extracts every profiler's error against Oracle at the three
// granularities, plus the base-frequency cross-profiler differences the
// suite reports.
func (p *prober) extractErrors(parent int, oracle *profile.Profile, sampled []*profiler.Sampled, base map[profiler.Kind]*profiler.Sampled) {
	d, _ := p.tr.timed("profile.Error", parent, func() (uint64, error) {
		n := uint64(0)
		for _, sp := range sampled {
			for _, g := range []profile.Granularity{profile.GranInstruction, profile.GranBlock, profile.GranFunction} {
				sp.Profile.Error(oracle, g, true)
				n++
			}
		}
		for a, sa := range base {
			for b, sb := range base {
				if a != b {
					profile.DistributionError(sa.Profile.Aggregate(profile.GranInstruction, true),
						sb.Profile.Aggregate(profile.GranInstruction, true))
					n++
				}
			}
		}
		return n, nil
	})
	p.acc.errorS += d
	for _, sp := range sampled {
		p.acc.samples += sp.Samples
	}
}

// encode times the pprof encoding of a TIP profile.
func (p *prober) encode(prof *profile.Profile, k jobKey, period uint64) error {
	var n int
	d, err := p.tr.timed("pprofenc.Encode", p.parent, func() (uint64, error) {
		data, err := pprofenc.Encode(prof, pprofenc.JobOptions(k.bench, k.seed, k.scale, "TIP", period))
		n = len(data)
		return uint64(n), err
	})
	p.acc.encMS = append(p.acc.encMS, d*1e3)
	p.acc.encBytes = append(p.acc.encBytes, float64(n))
	return err
}

// ffLegInsts is the fast-forward probe's leg length: about one default
// sampled gap of instructions, so predictor warming runs once per leg as it
// does in sampled mode.
const ffLegInsts = 100_000

// checkpointReps is how many snapshots and restores the checkpoint probe
// times.
const checkpointReps = 8

// fastForward runs w's whole stream functionally in legs, then times
// snapshots of the warmed state and restores of them into a second core.
func (p *prober) fastForward(w *workload.Workload) {
	core := newCore(w)
	ff := program.NewFastForward(w.Prog)
	d, _ := p.tr.timed("cpu.FastForward", p.parent, func() (uint64, error) {
		n := uint64(0)
		for done := false; !done; {
			core.ArchCheckpoint(0)
			var k uint64
			k, done = core.FastForward(ff, ffLegInsts)
			n += k
		}
		p.acc.ffInsts += n
		return n, nil
	})
	p.acc.ffS += d
	var cp cpu.Checkpoint
	core.CheckpointInto(&cp) // first snapshot allocates
	other := newCore(w)
	for i := 0; i < checkpointReps; i++ {
		d, _ := p.tr.timed("cpu.CheckpointInto", p.parent, func() (uint64, error) {
			core.CheckpointInto(&cp)
			return 1, nil
		})
		p.acc.checkpointUS = append(p.acc.checkpointUS, d*1e6)
		d, _ = p.tr.timed("cpu.Restore", p.parent, func() (uint64, error) {
			other.Restore(&cp, w.Stream(), 0)
			return 1, nil
		})
		p.acc.restoreUS = append(p.acc.restoreUS, d*1e6)
	}
}

// sampledRuns runs ws under sampled-long's schedule and sums the schedules.
func (p *prober) sampledRuns(parent int, ws []*workload.Workload) ([]*tip.Result, error) {
	var out []*tip.Result
	for _, w := range ws {
		var res *tip.Result
		d, err := p.tr.timed("tip.RunSampled", parent, func() (uint64, error) {
			var err error
			res, err = tip.RunSampled(p.ctx, w, sampledConfig())
			if err != nil {
				return 0, err
			}
			return res.Sampling.Windows, nil
		})
		if err != nil {
			return nil, err
		}
		s, a := res.Sampling, &p.acc.sampled
		a.Windows += s.Windows
		a.MeasuredCycles += s.MeasuredCycles
		a.DetailedCycles += s.DetailedCycles
		a.FFInstructions += s.FFInstructions
		a.EstimatedCycles += s.EstimatedCycles
		a.SweepSeconds += s.SweepSeconds
		a.MeasureSeconds += s.MeasureSeconds
		p.acc.sampledWallS += d
		out = append(out, res)
	}
	return out, nil
}

// suiteTiming runs the experiments driver over names and keeps its
// capture/replay split.
func (p *prober) suiteTiming(names []string, scale uint64) error {
	_, err := p.tr.timed("experiments.EvalSuiteTimed", p.parent, func() (uint64, error) {
		_, st, err := experiments.EvalSuiteTimed(p.ctx, experiments.Options{
			Seed: p.seed, Scale: scale, TargetSamples: suiteTargetSamples,
			Benchmarks: names, Parallelism: 1, ReplayWorkers: 1,
		})
		p.acc.expCaptureS += st.Capture.Seconds()
		p.acc.expReplayS += st.Replay.Seconds()
		return uint64(len(names)), err
	})
	return err
}

// fullProbes runs the full-detail probes on w that the traced pass did not
// already measure: an unprofiled run, counting replays and broadcasts, and
// a counting Stream. A nil capt is captured and replayed through rc here,
// and that replay's result returned.
func (p *prober) fullProbes(w *workload.Workload, capt *tip.TraceCapture, rc tip.RunConfig) (*tip.Result, error) {
	if err := p.measure(w); err != nil {
		return nil, err
	}
	var res *tip.Result
	if capt == nil {
		c, stats, err := p.capture(p.parent, w)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if res, err = p.replay(p.parent, w, c, stats, rc); err != nil {
			return nil, err
		}
		capt = c
	}
	if err := p.decodeAndBroadcast(capt); err != nil {
		return nil, err
	}
	return res, p.ring(w)
}

func resultSampled(res *tip.Result) []*profiler.Sampled {
	var out []*profiler.Sampled
	for _, k := range profiler.AllKinds() {
		if sp, ok := res.Sampled[k]; ok {
			out = append(out, sp)
		}
	}
	return out
}

// evalMatrix is the profiler matrix the experiments driver builds for one
// benchmark, rebuilt here so the traced run can replay through the same
// work from outside: every profiler at the base frequency, the sweep
// profilers at the other frequencies, random sampling and the non-primed
// base-frequency tier.
type evalMatrix struct {
	all  []*profiler.Sampled
	base map[profiler.Kind]*profiler.Sampled
}

func newEvalMatrix(w *workload.Workload, interval4k, estCycles, seed uint64) *evalMatrix {
	m := &evalMatrix{base: map[profiler.Kind]*profiler.Sampled{}}
	for _, freq := range experiments.DefaultFrequencies {
		interval := interval4k * experiments.BaseFrequency / freq
		if interval < 4 {
			interval = 4
		}
		interval = sampling.NextPrime(interval)
		kinds := []profiler.Kind{profiler.KindNCI, profiler.KindTIPILP, profiler.KindTIP}
		if freq == experiments.BaseFrequency {
			kinds = profiler.AllKinds()
		}
		for _, k := range kinds {
			sp := profiler.NewSampled(k, w.Prog, sampling.NewPeriodic(interval))
			m.all = append(m.all, sp)
			if freq == experiments.BaseFrequency {
				m.base[k] = sp
			}
		}
	}
	raw := estCycles / suiteTargetSamples
	if raw < 16 {
		raw = 16
	}
	for _, k := range profiler.AllKinds() {
		m.all = append(m.all,
			profiler.NewSampled(k, w.Prog, sampling.NewRandom(interval4k, seed^0x5eed)),
			profiler.NewSampled(k, w.Prog, sampling.NewPeriodic(raw)))
	}
	return m
}

func (m *evalMatrix) consumers() []trace.Consumer {
	out := make([]trace.Consumer, len(m.all))
	for i, sp := range m.all {
		out[i] = sp
	}
	return out
}

// capturedEvalConfig is the run configuration experiments replays a
// capture with.
func capturedEvalConfig(m *evalMatrix, interval uint64) tip.RunConfig {
	rc := tip.DefaultRunConfig()
	rc.Profilers = []profiler.Kind{}
	rc.SampleInterval = interval
	rc.ExtraConsumers = m.consumers()
	rc.ReplayWorkers = 1
	return rc
}

// finish computes the attribution metrics and the remaining layer metrics.
func finish(tr *tracer, acc *layerAcc, lm map[string]float64, explainedS, tracedWallS float64, u *runResult) *traceResult {
	acc.metrics(lm)
	wall := u.raw["wall_s"] // the traced pass ran on the same host, uncorrected
	lm["attributed_share"] = explainedS / wall
	lm["unexplained_s"] = wall - explainedS
	lm["trace_overhead_pct"] = 100 * (tracedWallS - wall) / wall
	return &traceResult{metrics: lm, spans: tr.spans}
}

// --- traced passes ------------------------------------------------------------

// traceSuite re-runs one suite pass decomposed into public calls — load,
// capture (or stream) and replay through the evaluation matrix, error
// extraction — with each benchmark's probes run right after it, outside the
// pass's time.
func traceSuite(ctx context.Context, seed uint64, sz sizes, u *runResult, streaming bool) (*traceResult, error) {
	tr := newTracer()
	p := &prober{ctx: ctx, tr: tr, seed: seed}
	tracedWall := 0.0
	var ws []*workload.Workload
	for _, b := range sz.suite() {
		// The previous benchmark's probes leave garbage the untraced pass
		// never makes.
		runtime.GC()
		op := tr.startArg("op", b, -1)
		opStart := time.Now()
		w, err := p.load(op, b, seed, sz.suiteScale)
		if err != nil {
			return nil, err
		}
		var m *evalMatrix
		var res *tip.Result
		var capt *tip.TraceCapture
		if streaming {
			rc := tip.DefaultRunConfig()
			rc.Profilers = []profiler.Kind{}
			rc.TargetSamples = suiteTargetSamples
			rc.ReplayWorkers = 1
			rc.ExtraConsumersAt = func(interval, est uint64) []trace.Consumer {
				m = newEvalMatrix(w, interval, est, seed)
				return m.consumers()
			}
			_, err = tr.timed("tip.RunStreaming", op, func() (uint64, error) {
				var err error
				res, err = tip.RunStreaming(ctx, w, rc)
				return 0, err
			})
		} else {
			var stats tip.CoreStats
			if capt, stats, err = p.capture(op, w); err == nil {
				interval := tip.CalibrateInterval(stats.Cycles, suiteTargetSamples)
				m = newEvalMatrix(w, interval, stats.Cycles, seed)
				if res, err = p.replay(op, w, capt, stats, capturedEvalConfig(m, interval)); err != nil {
					capt.Close()
				}
			}
		}
		if err != nil {
			return nil, err
		}
		p.extractErrors(op, res.Oracle.Profile, m.all, m.base)
		tr.end(op, 1)
		tracedWall += time.Since(opStart).Seconds()

		p.parent = tr.startArg("probe", b, -1)
		key := jobKey{bench: b, seed: seed, scale: sz.suiteScale}
		err = p.encode(m.base[profiler.KindTIP].Profile, key, res.SampleInterval)
		if err == nil && streaming {
			// The stream's own layers are not separable from outside: the
			// probes capture and replay the same matrix to price them.
			err = p.streamProbes(w)
		} else if err == nil {
			_, err = p.fullProbes(w, capt, tip.RunConfig{})
		}
		if capt != nil {
			capt.Close()
		}
		if err != nil {
			return nil, err
		}
		p.fastForward(w)
		tr.end(p.parent, 0)
		ws = append(ws, w)
	}
	p.acc.expCaptureS, p.acc.expReplayS = u.last.expCapture, u.last.expReplay
	p.parent = tr.start("probes", -1)
	if _, err := p.sampledRuns(p.parent, ws); err != nil {
		return nil, err
	}
	lm := map[string]float64{}
	if err := miniFleet(ctx, p, sz.suite(), seed, sz, lm); err != nil {
		return nil, err
	}
	tr.end(p.parent, 0)

	a := &p.acc
	perRecord := a.encodeNs() + a.decodeNs() + a.dispatchNs()
	if streaming {
		perRecord = a.ringNs() + a.dispatchNs()
	}
	explained := a.loadS + float64(a.cycles)*a.cycleNs()/1e9 + float64(a.records)*perRecord/1e9 + a.errorS
	return finish(tr, a, lm, explained, tracedWall, u), nil
}

// streamProbes prices a streamed benchmark's layers: capture and replay
// through a fresh evaluation matrix (encode, decode, dispatch), then the
// counting probes.
func (p *prober) streamProbes(w *workload.Workload) error {
	capt, stats, err := p.capture(p.parent, w)
	if err != nil {
		return err
	}
	defer capt.Close()
	interval := tip.CalibrateInterval(stats.Cycles, suiteTargetSamples)
	m := newEvalMatrix(w, interval, stats.Cycles, p.seed)
	if _, err := p.replay(p.parent, w, capt, stats, capturedEvalConfig(m, interval)); err != nil {
		return err
	}
	_, err = p.fullProbes(w, capt, tip.RunConfig{})
	return err
}

// traceSampled re-runs one sampled-long pass with spans, then prices its
// layers: full-detail probes at the probe scale, fast-forward and
// checkpoints over the full streams.
func traceSampled(ctx context.Context, seed uint64, sz sizes, u *runResult) (*traceResult, error) {
	tr := newTracer()
	p := &prober{ctx: ctx, tr: tr, seed: seed}
	// Like the measured pass, the traced one starts from loaded inputs.
	var ws []*workload.Workload
	for _, b := range sz.sampledBenches {
		w, err := p.load(-1, b, seed, sz.sampledScale)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	pass := tr.start("pass", -1)
	passStart := time.Now()
	results, err := p.sampledRuns(pass, ws)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(passStart).Seconds()
	tr.end(pass, uint64(len(ws)))
	loadS, sr := p.acc.loadS, p.acc.sampled

	p.parent = tr.start("probes", -1)
	rc := sampledConfig()
	rc.Sampled, rc.WindowWorkers = false, 0
	for i, w := range ws {
		p.extractErrors(p.parent, results[i].Oracle.Profile, resultSampled(results[i]), nil)
		k := jobKey{bench: w.Name, seed: seed, scale: sz.sampledScale}
		if err := p.encode(results[i].Sampled[profiler.KindTIP].Profile, k, results[i].SampleInterval); err != nil {
			return nil, err
		}
		pw, err := p.load(p.parent, w.Name, seed, sz.sampledProbeScale)
		if err != nil {
			return nil, err
		}
		if _, err := p.fullProbes(pw, nil, rc); err != nil {
			return nil, err
		}
		p.fastForward(w)
	}
	if err := p.suiteTiming(sz.sampledBenches, sz.sampledProbeScale); err != nil {
		return nil, err
	}
	lm := map[string]float64{}
	if err := miniFleet(ctx, p, sz.sampledBenches, seed, sz, lm); err != nil {
		return nil, err
	}
	tr.end(p.parent, 0)

	a := &p.acc
	a.loadS = loadS // the full-scale inputs' loads, not the probes'
	explained := float64(sr.DetailedCycles)*a.cycleNs()/1e9 +
		float64(sr.FFInstructions)*a.ffS/float64(a.ffInsts) +
		float64(sr.Windows)*(median(a.checkpointUS)+median(a.restoreUS))/1e6 +
		float64(sr.MeasuredCycles)*(a.ringNs()+a.dispatchNs())/1e9
	return finish(tr, a, lm, explained, tracedWall, u), nil
}

// traceFleet re-runs one tipd pass with client-side spans on a fresh
// fleet, then probes every key through the library directly.
func traceFleet(ctx context.Context, seed uint64, sz sizes, u *runResult) (*traceResult, error) {
	tr := newTracer()
	p := &prober{ctx: ctx, tr: tr, seed: seed}
	keys := fleetKeys(seed, sz)
	f, err := startFleet(fleetWorkers)
	if err != nil {
		return nil, err
	}
	sess, err := runSession(ctx, f, keys, jobOrder(seed, len(keys), sz.fleetJobs), tr, func() {})
	if err != nil {
		f.close()
		return nil, err
	}
	lm := map[string]float64{}
	sess.layerMetrics(lm)
	hop, err := sess.proxyHop(sz.proxyGets)
	f.close()
	if err != nil {
		return nil, err
	}
	lm["fleet.proxy_hop_ms"] = hop

	// Per key, what the library alone spends: a warm job replays the
	// capture and encodes the pprof; a cold one streams its simulation into
	// the matrix while teeing the capture, priced as the unprofiled run plus
	// per-record encode, ring and dispatch.
	p.parent = tr.start("probes", -1)
	warmS := make([]float64, len(keys))
	coldS := make([]float64, len(keys))
	var ws []*workload.Workload
	for i, k := range keys {
		w, err := p.load(p.parent, k.bench, k.seed, k.scale)
		if err != nil {
			return nil, err
		}
		b := p.acc
		res, err := p.fullProbes(w, nil, jobRunConfig())
		if err != nil {
			return nil, err
		}
		p.extractErrors(p.parent, res.Oracle.Profile, resultSampled(res), nil)
		if err := p.encode(res.Sampled[profiler.KindTIP].Profile, k, res.SampleInterval); err != nil {
			return nil, err
		}
		p.fastForward(w)
		a := &p.acc
		measure := a.measureS - b.measureS
		dispatch := (a.replayS - b.replayS) - (a.decodeS - b.decodeS)
		enc := a.encMS[len(a.encMS)-1] / 1e3
		warmS[i] = a.replayS - b.replayS + enc
		coldS[i] = (a.captureS - b.captureS) + (a.ringS - b.ringS) - measure + dispatch + enc
		if k.seed == seed {
			ws = append(ws, w)
		}
	}
	if _, err := p.sampledRuns(p.parent, ws); err != nil {
		return nil, err
	}
	if err := p.suiteTiming(sz.fleetBenches, sz.fleetScale); err != nil {
		return nil, err
	}
	tr.end(p.parent, 0)

	var warmLat, warmLib []float64
	explained := 0.0
	for _, j := range sess.jobs {
		if j.err != nil {
			continue
		}
		v := j.view
		lib := coldS[j.key]
		if v.warm() {
			lib = warmS[j.key]
			warmLat = append(warmLat, ms(j.latency))
			warmLib = append(warmLib, lib*1e3)
		}
		client := j.latency - v.Finished.Sub(v.Created) - j.fetch
		explained += lib + v.Started.Sub(v.Created).Seconds() + client.Seconds() + j.fetch.Seconds()
	}
	lm["server.job_overhead_ms"] = median(warmLat) - median(warmLib)
	// The clients overlap, so the session's wall is its summed job time
	// over the client count.
	explained /= fleetClients
	return finish(tr, &p.acc, lm, explained, sess.wall.Seconds(), u), nil
}

// miniFleetJobsPerKey sizes the short tipd session a traced run of a
// workload that serves no jobs uses to measure the server and fleet layers.
const miniFleetJobsPerKey = 6

// miniFleet measures the server and fleet layers with a short session over
// the workload's first two benchmarks.
func miniFleet(ctx context.Context, p *prober, benches []string, seed uint64, sz sizes, lm map[string]float64) error {
	n := min(2, len(benches))
	keys := make([]jobKey, n)
	for i := range keys {
		keys[i] = jobKey{bench: benches[i], seed: seed, scale: sz.fleetScale}
	}
	f, err := startFleet(fleetWorkers)
	if err != nil {
		return err
	}
	defer f.close()
	sess, err := runSession(ctx, f, keys, jobOrder(seed, n, n*miniFleetJobsPerKey), p.tr, func() {})
	if err != nil {
		return err
	}
	sess.layerMetrics(lm)
	if lm["fleet.proxy_hop_ms"], err = sess.proxyHop(sz.proxyGets); err != nil {
		return err
	}
	var warmLat []float64
	for _, j := range sess.jobs {
		if j.err == nil && j.view.warm() {
			warmLat = append(warmLat, ms(j.latency))
		}
	}
	var direct []float64
	for _, k := range keys {
		_, _, d, err := directWarm(ctx, k)
		if err != nil {
			return err
		}
		direct = append(direct, ms(d))
	}
	lm["server.job_overhead_ms"] = median(warmLat) - median(direct)
	return nil
}
