package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/experiments"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/workload"
	"github.com/tipprof/tip/internal/xrand"
)

// sizes fixes how much work one pass does. defaultSizes is the benchmark;
// the smoke test shrinks it.
type sizes struct {
	suiteScale   uint64
	suiteBenches []string // nil = all 27, in Fig. 7 order
	// tipErrCeilingPct bounds the suite-mean TIP instruction-level error.
	// At the default sizes it measured 1.88-1.98% on the two-pass route
	// and 2.06-2.16% streaming over seeds 1-20 (the paper reports 1.6%);
	// shifting TIP's attribution by one instruction doubles it.
	tipErrCeilingPct float64

	sampledScale   uint64
	sampledBenches []string
	// sampledProbeScale sizes the traced run's full-detail probes of the
	// sampled inputs: a full-detail run at sampledScale takes minutes.
	sampledProbeScale uint64

	fleetScale   uint64
	fleetBenches []string
	fleetJobs    int // per pass, spread evenly over the keys
	// proxyGets is the number of job reads the proxy-hop probe makes each
	// way.
	proxyGets int

	// pinned says testdata/reference.json applies: it was generated at
	// these sizes.
	pinned bool
}

var defaultSizes = sizes{
	suiteScale:        200_000,
	tipErrCeilingPct:  2.5,
	sampledScale:      24_000_000,
	sampledBenches:    []string{"mcf", "x264"},
	sampledProbeScale: 500_000,
	fleetScale:        200_000,
	// Class-balanced: three Compute, three Flush, two Stall benchmarks.
	fleetBenches: []string{"x264", "deepsjeng", "leela", "imagick", "gcc", "perlbench", "mcf", "omnetpp"},
	fleetJobs:    160,
	proxyGets:    200,
	pinned:       true,
}

func (sz sizes) suite() []string {
	if sz.suiteBenches != nil {
		return sz.suiteBenches
	}
	return workload.Names()
}

// Fixed run parameters. The suites run the paper-regeneration route exactly
// as tipbench does, one benchmark at a time on one replay worker; sampled
// runs use the default 8K/128K geometry with a warmup sized for 24M-
// instruction legs; tipd jobs ask for the two profilers users compare, with
// one replay worker each: the two clients' jobs already keep both cores busy,
// and sharding inside a job would only add cross-core hand-offs.
const (
	suiteTargetSamples   = 32768
	sampledTargetSamples = 2048
	sampledWarmup        = 16384
	sampledWindowWorkers = 2
	fleetWorkers         = 2
	fleetClients         = 2
	fleetTargetSamples   = 4096
	fleetPoll            = 2 * time.Millisecond
	// fleetSegment is the number of jobs between two host-speed timings in
	// a tipd pass.
	fleetSegment = 16
	// setupReps is the least number of set-ups a run times: set-up takes
	// milliseconds, and single timings jitter by a quarter.
	setupReps = 11
)

var fleetProfilers = []string{"TIP", "NCI"}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// setup prepares one pass (its wall time is setup_s).
	setup func(ctx context.Context, seed uint64, sz sizes) (instance, error)
	// verify makes checks that need the whole run's outputs, untimed.
	verify func(ctx context.Context, seed uint64, sz sizes, digests map[string]string) []check
	// trace runs the traced pass and the layer probes.
	trace func(ctx context.Context, seed uint64, sz sizes, untraced *runResult) (*traceResult, error)
}

var workloads = []workloadDef{
	{
		name:  "suite-twopass",
		why:   "the paper-regeneration route: core Step, trace encode/decode and the 33-profiler matrix do almost all the work",
		setup: suiteSetup(false),
		trace: func(ctx context.Context, seed uint64, sz sizes, u *runResult) (*traceResult, error) {
			return traceSuite(ctx, seed, sz, u, false)
		},
	},
	{
		name:  "suite-stream",
		why:   "same inputs through the Stream ring instead of capture encode/decode: the memory-bounded route",
		setup: suiteSetup(true),
		trace: func(ctx context.Context, seed uint64, sz sizes, u *runResult) (*traceResult, error) {
			return traceSuite(ctx, seed, sz, u, true)
		},
	},
	{
		name:  "sampled-long",
		why:   "24M-instruction mcf and x264: fast-forward, checkpoint/restore and stitching dominate; the only route 2 cores shorten",
		setup: sampledSetup,
		trace: traceSampled,
	},
	{
		name:   "tipd-fleet",
		why:    "coordinator plus 2 tipd workers under 2 closed-loop clients: replay, JSON, pprof, HTTP and the proxy hop set the median",
		setup:  fleetSetup,
		verify: fleetVerify,
		trace:  traceFleet,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instance is one set-up pass. A pass calls between wherever it can pause
// between operations, but not after the last, so that the host speed is
// sampled while it runs.
type instance interface {
	pass(ctx context.Context, between func()) (*passResult, error)
	close()
}

// check is one correctness check; a failed check counts as a failed
// operation.
type check struct {
	name   string
	ok     bool
	detail string
}

// passResult is what one pass produced.
type passResult struct {
	mcycles float64  // simulated Mcycles (sampled: the stitched estimate)
	ops     []opTime // each operation that succeeded
	// checks include one failed check per operation that errored.
	// digests identify the pass's outputs; they must repeat across passes
	// and match testdata/reference.json on pinned seeds.
	digests map[string]string
	checks  []check
	// accuracy are simulated-model results, reported but not bounded: they
	// are deterministic per seed and differ between seeds.
	accuracy map[string]float64
	// expCapture/expReplay are the suite's SuiteTiming split.
	expCapture, expReplay float64
}

// opTime is when one operation started and ended.
type opTime struct{ start, end time.Time }

// timeOp records the operation that started at start and has just ended.
func timeOp(start time.Time) opTime { return opTime{start, time.Now()} }

// runResult is one workload's measured run.
type runResult struct {
	passes    int
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64 // end-to-end medians, host-corrected
	raw       map[string]float64 // the timings' medians as measured
	// hostFactor is the whole run's host factor.
	hostFactor float64
	perPass    map[string][]float64
	accuracy   map[string]float64
	tail       tailStat
	last       *passResult
	// digests are the first pass's output digests.
	digests map[string]string
}

// tailStat summarises the run's operation latencies, host-corrected: their
// median, and the tail the reporting rule picks (see tailPercentile).
type tailStat struct {
	p50, pct, value float64
	beyond, n       int
	ok              bool
}

// measure runs passes of w until the time budget is spent (at least one)
// and checks every output. Each pass is set up, garbage-collected, preceded
// by a block of reference-kernel timings, run with its heap sampled and the
// kernel timed between its operations, and torn down; set-up is repeated
// until it has at least setupReps samples. Each pass and each operation is
// divided by the host factor of its own interval (see hostspeed.go); the
// time the kernel ran inside a pass is not part of the pass's wall time.
func measure(ctx context.Context, w workloadDef, seed uint64, sz sizes, budget time.Duration) (*runResult, error) {
	r := &runResult{perPass: map[string][]float64{}, accuracy: map[string]float64{}}
	var setups []float64
	var ops, passTimes []opTime
	host := &hostLog{}
	start := time.Now()
	var lastPass time.Duration
	for {
		if r.passes > 0 && time.Since(start)+lastPass > budget {
			break
		}
		passStart := time.Now()
		inst, err := w.setup(ctx, seed, sz)
		setups = append(setups, time.Since(passStart).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		runtime.GC()
		host.block(refBlock)
		hs := startHeapSampler()
		spent := host.spent
		t := time.Now()
		pr, err := inst.pass(ctx, host.catchUp)
		pt := timeOp(t)
		wall := (pt.end.Sub(t) - (host.spent - spent)).Seconds()
		heap := hs.stop()
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, r.passes+1, err)
		}
		lastPass = time.Since(passStart)
		r.passes++
		r.last = pr
		passTimes = append(passTimes, pt)
		pp := r.perPass
		pp["wall_s"] = append(pp["wall_s"], wall)
		pp["sim_mcycles_per_s"] = append(pp["sim_mcycles_per_s"], pr.mcycles/wall)
		pp["heap_p90_mb"] = append(pp["heap_p90_mb"], heap/1e6)
		ops = append(ops, pr.ops...)
		r.attempted += len(pr.ops)
		checks := pr.checks
		if r.digests == nil {
			r.digests = pr.digests
		} else {
			checks = append(checks, compareDigests(fmt.Sprintf("pass %d repeats pass 1", r.passes), r.digests, pr.digests)...)
		}
		r.record(checks)
		for k, v := range pr.accuracy {
			r.accuracy[k] = v
		}
	}
	for len(setups) < setupReps {
		t := time.Now()
		inst, err := w.setup(ctx, seed, sz)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		inst.close()
	}
	runtime.GC()
	host.block(refBlock)
	if sz.pinned {
		r.record(checkPins(seed, w.name, r.digests, r.accuracy))
	}
	if w.verify != nil {
		r.record(w.verify(ctx, seed, sz, r.digests))
	}

	// The last timings are taken: correct each pass and each operation by
	// its own interval's factor, and set-up by the whole run's.
	pp := r.perPass
	pp["setup_s"] = setups
	pp["ref_s"] = host.dur
	var walls, rates, opMS []float64
	for i, pt := range passTimes {
		f := host.factor(pt.start, pt.end)
		pp["pass_factor"] = append(pp["pass_factor"], f)
		walls = append(walls, pp["wall_s"][i]/f)
		rates = append(rates, pp["sim_mcycles_per_s"][i]*f)
	}
	for _, o := range ops {
		f := host.factor(o.start, o.end)
		pp["op_ms"] = append(pp["op_ms"], ms(o.end.Sub(o.start)))
		pp["op_factor"] = append(pp["op_factor"], f)
		opMS = append(opMS, ms(o.end.Sub(o.start))/f)
	}
	r.hostFactor = host.overall()
	r.raw = map[string]float64{
		"setup_s":           median(setups),
		"wall_s":            median(pp["wall_s"]),
		"sim_mcycles_per_s": median(pp["sim_mcycles_per_s"]),
		"op_geomean_ms":     geomean(pp["op_ms"]),
	}
	r.metrics = map[string]float64{
		"setup_s":           r.raw["setup_s"] / r.hostFactor,
		"wall_s":            median(walls),
		"sim_mcycles_per_s": median(rates),
		"heap_p90_mb":       median(pp["heap_p90_mb"]),
		"op_geomean_ms":     geomean(opMS),
	}
	r.tail.pct, r.tail.value, r.tail.beyond, r.tail.ok = tailPercentile(opMS)
	r.tail.p50, r.tail.n = median(opMS), len(ops)
	return r, nil
}

// record counts checks as operations and keeps the failures' descriptions.
func (r *runResult) record(checks []check) {
	for _, c := range checks {
		r.attempted++
		if !c.ok {
			r.failed++
			r.failures = append(r.failures, c.name+": "+c.detail)
		}
	}
}

func (r *runResult) failedPct() float64 {
	if r.attempted == 0 {
		return 0
	}
	return 100 * float64(r.failed) / float64(r.attempted)
}

// compareDigests checks that got reproduces every digest of want.
func compareDigests(what string, want, got map[string]string) []check {
	var out []check
	for _, k := range sortedKeys(want) {
		c := check{name: what + ": " + k, ok: got[k] == want[k]}
		if !c.ok {
			c.detail = fmt.Sprintf("got %s, want %s", short(got[k]), short(want[k]))
		}
		out = append(out, c)
	}
	return out
}

func short(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	if s == "" {
		return "(missing)"
	}
	return s
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// heapSampler reads the heap-object bytes every millisecond. Its result is
// the 90th percentile of those samples: the level the heap stays under for
// nine tenths of the pass. The maximum would be the last word on memory,
// but it is decided by where a few garbage-collection cycles happen to fall
// and moved by ±20% between identical passes.
type heapSampler struct {
	stopCh  chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopCh:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the 90th percentile in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	<-h.done
	s := sorted(h.samples)
	return s[len(s)*9/10]
}

// --- suites -----------------------------------------------------------------

// newCore builds a prefaulted core for w, as every simulation route does
// before its first cycle.
func newCore(w *workload.Workload) *cpu.Core {
	core := cpu.New(cpu.DefaultConfig(), w.Prog, w.Stream())
	for _, reg := range w.Prefault {
		core.MMU().PrefaultRange(reg.Base, reg.Size)
	}
	return core
}

// loadAll generates every input of a pass and builds its prefaulted core:
// the work each route does before simulating, measured from outside.
func loadAll(names []string, seed, scale uint64) ([]*workload.Workload, error) {
	ws := make([]*workload.Workload, len(names))
	for i, n := range names {
		w, err := workload.LoadScaled(n, seed, scale)
		if err != nil {
			return nil, err
		}
		newCore(w)
		ws[i] = w
	}
	return ws, nil
}

type suiteInstance struct {
	seed      uint64
	sz        sizes
	streaming bool
}

func suiteSetup(streaming bool) func(context.Context, uint64, sizes) (instance, error) {
	return func(ctx context.Context, seed uint64, sz sizes) (instance, error) {
		if _, err := loadAll(sz.suite(), seed, sz.suiteScale); err != nil {
			return nil, err
		}
		return &suiteInstance{seed: seed, sz: sz, streaming: streaming}, nil
	}
}

func (s *suiteInstance) close() {}

func (s *suiteInstance) pass(ctx context.Context, between func()) (*passResult, error) {
	pr := &passResult{digests: map[string]string{}, accuracy: map[string]float64{}}
	var evals []*experiments.BenchmarkEval
	for i, b := range s.sz.suite() {
		if i > 0 {
			between()
		}
		t := time.Now()
		evs, st, err := experiments.EvalSuiteTimed(ctx, s.options(b))
		op := timeOp(t)
		pr.expCapture += st.Capture.Seconds()
		pr.expReplay += st.Replay.Seconds()
		var data []byte
		if err == nil {
			data, err = json.Marshal(evs[0])
		}
		if err != nil {
			pr.checks = append(pr.checks, check{name: "evaluate " + b, detail: err.Error()})
			continue
		}
		pr.ops = append(pr.ops, op)
		ev := evs[0]
		pr.mcycles += float64(ev.Cycles) / 1e6
		pr.digests[b] = sha(data)
		evals = append(evals, ev)
	}
	pr.checks = append(pr.checks, suiteChecks(evals, s.sz.tipErrCeilingPct, pr.accuracy)...)
	return pr, nil
}

func (s *suiteInstance) options(bench string) experiments.Options {
	return experiments.Options{
		Seed:          s.seed,
		Scale:         s.sz.suiteScale,
		TargetSamples: suiteTargetSamples,
		Benchmarks:    []string{bench},
		Parallelism:   1,
		ReplayWorkers: 1,
		Streaming:     s.streaming,
	}
}

// suiteChecks are the paper's conclusions as seed-independent checks: over
// the suite, TIP's mean instruction-level error at the 4 kHz-equivalent
// period is below NCI's, NCI's is below Software's, and TIP's is under
// ceilingPct.
func suiteChecks(evals []*experiments.BenchmarkEval, ceilingPct float64, acc map[string]float64) []check {
	if len(evals) == 0 {
		return []check{{name: "suite evaluated", detail: "no evaluations"}}
	}
	mean := func(k profiler.Kind) float64 {
		s := 0.0
		for _, ev := range evals {
			s += ev.Periodic[experiments.BaseFrequency][k].Inst
		}
		return 100 * s / float64(len(evals))
	}
	t, n, sw := mean(profiler.KindTIP), mean(profiler.KindNCI), mean(profiler.KindSoftware)
	acc["tip_inst_err_pct"] = t
	return []check{
		{name: "ranking TIP < NCI < Software", ok: t < n && n < sw,
			detail: fmt.Sprintf("TIP %.3f%% NCI %.3f%% Software %.3f%%", t, n, sw)},
		{name: fmt.Sprintf("TIP error under %g%%", ceilingPct), ok: t < ceilingPct,
			detail: fmt.Sprintf("TIP %.3f%%", t)},
	}
}

// --- sampled-long -------------------------------------------------------------

type sampledInstance struct {
	seed uint64
	ws   []*workload.Workload
}

func sampledSetup(ctx context.Context, seed uint64, sz sizes) (instance, error) {
	ws, err := loadAll(sz.sampledBenches, seed, sz.sampledScale)
	if err != nil {
		return nil, err
	}
	return &sampledInstance{seed: seed, ws: ws}, nil
}

func (s *sampledInstance) close() {}

func sampledConfig() tip.RunConfig {
	rc := tip.DefaultRunConfig()
	rc.Sampled = true
	rc.WindowCycles = experiments.DefaultSampledWindow
	rc.WindowInterval = experiments.DefaultSampledInterval
	rc.WarmupCycles = sampledWarmup
	rc.WindowWorkers = sampledWindowWorkers
	rc.TargetSamples = sampledTargetSamples
	return rc
}

func (s *sampledInstance) pass(ctx context.Context, between func()) (*passResult, error) {
	pr := &passResult{digests: map[string]string{}}
	for i, w := range s.ws {
		if i > 0 {
			between()
		}
		t := time.Now()
		res, err := tip.RunSampled(ctx, w, sampledConfig())
		if err != nil {
			pr.checks = append(pr.checks, check{name: "sampled " + w.Name, detail: err.Error()})
			continue
		}
		pr.ops = append(pr.ops, timeOp(t))
		pr.mcycles += float64(res.Stats.Cycles) / 1e6
		pr.digests[w.Name] = strconv.FormatUint(res.Stats.Cycles, 10)
	}
	return pr, nil
}

// --- tipd-fleet -----------------------------------------------------------------

type fleetInstance struct {
	f     *loopbackFleet
	keys  []jobKey
	order []int
}

func fleetSetup(ctx context.Context, seed uint64, sz sizes) (instance, error) {
	f, err := startFleet(fleetWorkers)
	if err != nil {
		return nil, err
	}
	keys := fleetKeys(seed, sz)
	return &fleetInstance{f: f, keys: keys, order: jobOrder(seed, len(keys), sz.fleetJobs)}, nil
}

func (fi *fleetInstance) close() { fi.f.close() }

func (fi *fleetInstance) pass(ctx context.Context, between func()) (*passResult, error) {
	sess, err := runSession(ctx, fi.f, fi.keys, fi.order, nil, between)
	if err != nil {
		return nil, err
	}
	return sess.passResult(), nil
}

// fleetKeys is the tipd key set: every fleet benchmark at seeds s and s+1.
func fleetKeys(seed uint64, sz sizes) []jobKey {
	var keys []jobKey
	for _, b := range sz.fleetBenches {
		for _, s := range []uint64{seed, seed + 1} {
			keys = append(keys, jobKey{bench: b, seed: s, scale: sz.fleetScale})
		}
	}
	return keys
}

// fleetVerify recomputes two keys' profiles (chosen by the seed) through the
// library directly — the warm path as capture then replay, the cold path as
// a streaming run — and checks tipd served byte-identical pprof files.
func fleetVerify(ctx context.Context, seed uint64, sz sizes, digests map[string]string) []check {
	keys := fleetKeys(seed, sz)
	var out []check
	for i := 0; i < 2 && i < len(keys); i++ {
		k := keys[(int(seed)+i*len(keys)/2)%len(keys)]
		warm, cold, err := directPprofs(ctx, k)
		if err != nil {
			out = append(out, check{name: "direct " + k.id(), detail: err.Error()})
			continue
		}
		for _, c := range []struct {
			kind, got string
		}{{"warm", warm}, {"cold", cold}} {
			want := digests[k.id()+"."+c.kind]
			ck := check{name: "tipd " + c.kind + " pprof equals library " + k.id(), ok: c.got == want}
			if !ck.ok {
				ck.detail = fmt.Sprintf("library %s, tipd %s", short(c.got), short(want))
			}
			out = append(out, ck)
		}
	}
	return out
}

// jobRunConfig is the run configuration tipd builds for a fleet job.
func jobRunConfig() tip.RunConfig {
	rc := tip.DefaultRunConfig()
	rc.Profilers = []profiler.Kind{profiler.KindTIP, profiler.KindNCI}
	rc.TargetSamples = fleetTargetSamples
	rc.ReplayWorkers = 1
	return rc
}

// directPprofs computes a key's warm and cold TIP pprof digests without
// tipd.
func directPprofs(ctx context.Context, k jobKey) (warm, cold string, err error) {
	w, wb, _, err := directWarm(ctx, k)
	if err != nil {
		return "", "", err
	}
	res, err := tip.RunStreaming(ctx, w, jobRunConfig())
	if err != nil {
		return "", "", err
	}
	cb, err := encodeTIP(res, k)
	if err != nil {
		return "", "", err
	}
	return sha(wb), sha(cb), nil
}

// jobOrder spreads jobs evenly over the keys in a seeded order.
func jobOrder(seed uint64, keys, jobs int) []int {
	order := make([]int, jobs)
	for i := range order {
		order[i] = i % keys
	}
	rng := xrand.New(seed)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
