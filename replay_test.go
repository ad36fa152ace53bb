package tip

import (
	"bytes"
	"testing"

	"github.com/tipprof/tip/internal/check"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// perCycle hides a consumer's OnRepeat, so a producer hands it every cycle
// through OnCycle: wrapped around a capture it is the per-cycle reference
// encoding the repeat paths are checked against.
type perCycle struct{ trace.Consumer }

// encoded returns a finished capture's bytes.
func encoded(t *testing.T, c *TraceCapture) []byte {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newChecker builds an invariant checker matching the default core.
func newReplayChecker(name string) *check.Checker {
	cfg := DefaultCoreConfig()
	return check.New(check.Options{
		Benchmark:       name,
		CommitWidth:     cfg.CommitWidth,
		ROBEntries:      cfg.ROBEntries,
		FetchBufEntries: cfg.FetchBufEntries,
	})
}

// TestTraceReplayEquivalence captures a run's commit-stage trace to the
// binary format, replays it through fresh profiler instances, and checks
// the profiles match the live run exactly — the paper's capture-once,
// evaluate-many-configs workflow (§4).
func TestTraceReplayEquivalence(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 150_000)
	if err != nil {
		t.Fatal(err)
	}

	const interval = 127
	mkProfilers := func() (*profiler.Oracle, map[Kind]*profiler.Sampled, []trace.Consumer) {
		or := profiler.NewOracle(w.Prog, false)
		consumers := []trace.Consumer{or}
		byKind := map[Kind]*profiler.Sampled{}
		for _, k := range AllKinds() {
			sp := profiler.NewSampled(k, w.Prog, sampling.NewPeriodic(interval))
			byKind[k] = sp
			consumers = append(consumers, sp)
		}
		return or, byKind, consumers
	}

	// Live run: profilers plus a per-cycle capture and an invariant
	// checker on the same stream.
	liveOracle, liveSampled, consumers := mkProfilers()
	tw := trace.NewCapture()
	defer tw.Close()
	liveCheck := newReplayChecker(w.Name)
	consumers = append(consumers, perCycle{tw}, liveCheck)

	core := newCore(DefaultCoreConfig(), w)
	stats, err := core.Run(&trace.Tee{Consumers: consumers})
	if err != nil {
		t.Fatal(err)
	}
	if tw.Records() < stats.Cycles {
		t.Fatalf("trace has %d records for %d cycles", tw.Records(), stats.Cycles)
	}

	if err := liveCheck.Err(); err != nil {
		t.Fatalf("live trace violates invariants: %v", err)
	}

	// Replay the stored trace through fresh profiler instances and a fresh
	// checker: the decoded golden trace must satisfy the same invariants.
	data := encoded(t, tw)
	repOracle, repSampled, repConsumers := mkProfilers()
	repCheck := newReplayChecker(w.Name)
	repConsumers = append(repConsumers, repCheck)
	cycles, _, err := trace.ReplayBytes(data, repConsumers...)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != stats.Cycles {
		t.Fatalf("replay cycles %d != live %d", cycles, stats.Cycles)
	}
	repCheck.AuditOracle("Oracle", repOracle)
	for k, sp := range repSampled {
		repCheck.AuditSampled(k.String(), sp)
	}
	if err := repCheck.Err(); err != nil {
		t.Fatalf("replayed trace violates invariants: %v", err)
	}

	if e := profile.DistributionError(liveOracle.Profile.InstCycles, repOracle.Profile.InstCycles); e > 1e-12 {
		t.Fatalf("Oracle profiles differ after replay: TV=%v", e)
	}
	for _, k := range AllKinds() {
		live, rep := liveSampled[k], repSampled[k]
		if live.Samples != rep.Samples {
			t.Fatalf("%v: sample counts differ: %d vs %d", k, live.Samples, rep.Samples)
		}
		if e := profile.DistributionError(live.Profile.InstCycles, rep.Profile.InstCycles); e > 1e-12 {
			t.Fatalf("%v profiles differ after replay: TV=%v", k, e)
		}
	}

	// Replaying against a previously unmodelled configuration also works
	// (the "evaluate a new profiler from an old trace" workflow).
	newCfg := profiler.NewSampled(profiler.KindTIP, w.Prog, sampling.NewPeriodic(311))
	if _, _, err := trace.ReplayBytes(data, newCfg); err != nil {
		t.Fatal(err)
	}
	if newCfg.Samples == 0 {
		t.Fatal("new configuration collected no samples from the stored trace")
	}
}

// TestCaptureReplayByteIdenticalStream pins the tentpole property of the
// single-pass evaluation pipeline: replaying a CaptureWorkload capture and
// re-encoding the decoded records reproduces the live encoding byte for
// byte. Profilers fed by replay therefore observe the exact record stream
// the live core emitted — which is why capture/replay results must (and do,
// per the experiments golden test) match dual-simulation results exactly.
func TestCaptureReplayByteIdenticalStream(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 150_000)
	if err != nil {
		t.Fatal(err)
	}

	// Live encoding: run the core once into a capture that takes every
	// cycle through OnCycle, never a repeat.
	lw := trace.NewCapture()
	defer lw.Close()
	stats, err := newCore(DefaultCoreConfig(), w).Run(perCycle{lw})
	if err != nil {
		t.Fatal(err)
	}
	live := encoded(t, lw)

	// Capture pass (fresh stream, deterministic), then re-encode the
	// replayed records.
	capture, capStats, err := CaptureWorkload(w, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer capture.Close()
	if capStats != stats {
		t.Fatalf("capture run stats diverged from live run:\nlive %+v\ncap  %+v", stats, capStats)
	}
	rw := trace.NewCapture()
	defer rw.Close()
	cycles, records, err := capture.Replay(perCycle{rw})
	if err != nil {
		t.Fatal(err)
	}
	reencoded := encoded(t, rw)
	if cycles != stats.Cycles {
		t.Fatalf("replay Finish cycles %d != live %d", cycles, stats.Cycles)
	}
	if records != capture.Records() {
		t.Fatalf("replay delivered %d records, capture holds %d", records, capture.Records())
	}
	if !bytes.Equal(live, reencoded) {
		t.Fatalf("capture->replay->re-encode differs from the live encoding: %d vs %d bytes",
			len(live), len(reencoded))
	}
}

// TestSamplingPolicyDoesNotPerturbExecution is a metamorphic check on the
// out-of-band methodology (§4): profilers only observe the trace, so
// switching between periodic and random sampling must leave the underlying
// execution — and therefore the encoded trace — byte-identical.
func TestSamplingPolicyDoesNotPerturbExecution(t *testing.T) {
	capture := func(random bool) []byte {
		w, err := workload.LoadScaled("x264", 1, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		tw := trace.NewCapture()
		defer tw.Close()
		rc := DefaultRunConfig()
		rc.TargetSamples = 512
		rc.RandomSampling = random
		rc.Check = true
		rc.ExtraConsumers = []trace.Consumer{perCycle{tw}}
		if _, err := Run(w, rc); err != nil {
			t.Fatal(err)
		}
		return encoded(t, tw)
	}
	periodic := capture(false)
	random := capture(true)
	if !bytes.Equal(periodic, random) {
		t.Fatalf("sampling policy perturbed the execution trace: %d vs %d bytes",
			len(periodic), len(random))
	}
}

// TestSameSeedByteIdenticalTraces is the base determinism property: two runs
// from the same seed encode byte-identical traces.
func TestSameSeedByteIdenticalTraces(t *testing.T) {
	capture := func() []byte {
		w, err := workload.LoadScaled("imagick", 1, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		tw := trace.NewCapture()
		defer tw.Close()
		rc := DefaultRunConfig()
		rc.TargetSamples = 512
		rc.ExtraConsumers = []trace.Consumer{perCycle{tw}}
		if _, err := Run(w, rc); err != nil {
			t.Fatal(err)
		}
		return encoded(t, tw)
	}
	a, b := capture(), capture()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different traces: %d vs %d bytes", len(a), len(b))
	}
}
