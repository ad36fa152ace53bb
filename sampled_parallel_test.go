package tip

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// normalizeSampling strips the fields that legitimately differ across
// worker counts and runs — the worker count itself and the wall-clock
// measurements — so the rest of the schedule can be compared deeply.
func normalizeSampling(sr *SampledRunStats) SampledRunStats {
	n := *sr
	n.WindowWorkers = 0
	n.SweepSeconds = 0
	n.MeasureSeconds = 0
	return n
}

// TestRunSampledWindowWorkersIdentity is the tentpole invariant: the
// checkpoint-parallel scheduler's output must be byte-identical for every
// WindowWorkers value >= 1 — same profiler state, same stats, same schedule,
// and the same encoded trace bytes. Run under -race this also exercises the
// sweep/worker/sequencer handoff for data races.
func TestRunSampledWindowWorkersIdentity(t *testing.T) {
	w, err := workload.LoadScaled("x264", 1, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Result
	var refBytes []byte
	for _, workers := range []int{1, 2, 4, 7} {
		rc := DefaultRunConfig()
		rc.Sampled = true
		rc.WindowCycles = 1 << 11
		rc.WindowInterval = 1 << 13
		rc.WarmupCycles = 1 << 9
		rc.Check = true
		rc.WindowWorkers = workers
		capt := trace.NewCapture()
		rc.ExtraConsumers = []trace.Consumer{capt}
		res, err := RunSampled(context.Background(), w, rc)
		if err != nil {
			capt.Close()
			t.Fatalf("windowworkers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if _, err := capt.WriteTo(&buf); err != nil {
			capt.Close()
			t.Fatal(err)
		}
		capt.Close()
		if res.Sampling.WindowWorkers != workers {
			t.Fatalf("windowworkers=%d: Sampling reports %d workers",
				workers, res.Sampling.WindowWorkers)
		}
		if ref == nil {
			ref, refBytes = res, buf.Bytes()
			continue
		}
		label := fmt.Sprintf("windowworkers=%d", workers)
		assertResultsIdentical(t, label, ref, res)
		if ref.Stats != res.Stats {
			t.Fatalf("%s: stats %+v, want %+v", label, res.Stats, ref.Stats)
		}
		if got, want := normalizeSampling(res.Sampling), normalizeSampling(ref.Sampling); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sampling %+v, want %+v", label, got, want)
		}
		if !bytes.Equal(refBytes, buf.Bytes()) {
			t.Fatalf("%s: encoded trace bytes differ from windowworkers=1", label)
		}
	}
}

// TestRunSampledParallelConvergence bounds the parallel estimator's accuracy:
// its stitched cycle estimate must stay close to the full run's, and detailed
// commits plus fast-forwarded instructions must cover the whole program. A
// leg whose checkpoint lands inside the previous window's coverage is
// discarded, so coverage is exact (TestRunSampledParallelDiscardsOverlappedLegs
// pins equality); the bounds here only guard the estimator.
func TestRunSampledParallelConvergence(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MeasureStats(w, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Sampled = true
	rc.Check = true
	rc.WindowCycles = 1 << 12
	rc.WindowInterval = 1 << 14
	rc.WarmupCycles = 1 << 10
	rc.WindowWorkers = 4
	res, err := RunSampled(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	cpiErr := absFrac(res.Stats.Cycles, full.Cycles)
	t.Logf("parallel 1/4 fraction: est %d cycles vs full %d (err %.4f, windows %d, ff %d insts)",
		res.Stats.Cycles, full.Cycles, cpiErr, res.Sampling.Windows, res.Sampling.FFInstructions)
	if cpiErr > 0.10 {
		t.Fatalf("parallel estimate off by %.1f%% (est %d, full %d)",
			100*cpiErr, res.Stats.Cycles, full.Cycles)
	}
	if res.Stats.Committed < full.Committed {
		t.Fatalf("committed %d lost instructions vs full run's %d",
			res.Stats.Committed, full.Committed)
	}
	if absFrac(res.Stats.Committed, full.Committed) > 0.02 {
		t.Fatalf("committed %d over-counts full run's %d by more than 2%%",
			res.Stats.Committed, full.Committed)
	}
	if res.Sampling.Windows < 2 {
		t.Fatalf("only %d windows ran; geometry too lax to exercise the sweep", res.Sampling.Windows)
	}
}

// TestRunSampledParallelFullFractionServesSerial pins the mode select:
// window == interval has no gap to sweep, so even with WindowWorkers set the
// run must take the serial path — whose full-fraction output is bit-identical
// to RunStreaming — and report WindowWorkers 0.
func TestRunSampledParallelFullFractionServesSerial(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Check = true
	stream, err := RunStreaming(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	src := rc
	src.Sampled = true
	src.WindowCycles = 4096
	src.WindowInterval = 4096
	src.WindowWorkers = 4
	got, err := RunSampled(context.Background(), w, src)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampling.WindowWorkers != 0 {
		t.Fatalf("full-fraction run reports %d window workers, want the serial path (0)",
			got.Sampling.WindowWorkers)
	}
	assertResultsIdentical(t, "full fraction with workers", stream, got)
	if got.Stats != stream.Stats {
		t.Fatalf("stats %+v, want %+v", got.Stats, stream.Stats)
	}
}

// TestRunSampledParallelPublishesTiming checks the wall-clock split the
// scaling tools consume: a real parallel run must report a positive sweep
// and measurement time.
func TestRunSampledParallelPublishesTiming(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Sampled = true
	rc.WindowCycles = 1 << 11
	rc.WindowInterval = 1 << 13
	rc.WarmupCycles = 1 << 9
	rc.WindowWorkers = 2
	res, err := RunSampled(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Sampling
	if sr.SweepSeconds <= 0 || sr.MeasureSeconds <= 0 {
		t.Fatalf("parallel run published no timing split: sweep %v measure %v",
			sr.SweepSeconds, sr.MeasureSeconds)
	}
}

// TestRunSampledParallelHonorsCancel checks a canceled context aborts the
// parallel scheduler promptly and surfaces the cancellation.
func TestRunSampledParallelHonorsCancel(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Sampled = true
	rc.WindowCycles = 1 << 11
	rc.WindowInterval = 1 << 13
	rc.WarmupCycles = 1 << 9
	rc.WindowWorkers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSampled(ctx, w, rc); err == nil {
		t.Fatal("canceled parallel sampled run returned nil error")
	}
}

// TestAutoWarmupCycles pins the -warmup auto heuristic: gap/16 with an 8192
// floor, capped at half the gap, zero when there is no gap — and exactly the
// historical 8192 default at the default geometry.
func TestAutoWarmupCycles(t *testing.T) {
	cases := []struct {
		window, interval, want uint64
	}{
		{8 << 10, 128 << 10, 8192}, // default geometry: the long-time fixed default
		{4096, 4096, 0},            // no gap, no warmup
		{1 << 11, 1 << 13, 3072},   // small gap: capped at gap/2
		{8 << 10, 1 << 21, 130560}, // big gap: gap/16
		{8 << 10, 160 << 10, 9728}, // mid gap: gap/16 above the floor
		{1 << 10, 100 << 10, 8192}, // gap/16 below the floor: floored
	}
	for _, tc := range cases {
		if got := AutoWarmupCycles(tc.window, tc.interval); got != tc.want {
			t.Errorf("AutoWarmupCycles(%d, %d) = %d, want %d", tc.window, tc.interval, got, tc.want)
		}
		rc := DefaultRunConfig()
		rc.WindowCycles = tc.window
		rc.WindowInterval = tc.interval
		rc.WarmupCycles = AutoWarmupCycles(tc.window, tc.interval)
		if err := validateSampled(rc); err != nil {
			t.Errorf("auto warmup for (%d, %d) fails validation: %v", tc.window, tc.interval, err)
		}
	}
}

// TestRunSampledParallelDiscardsOverlappedLegs pins instruction conservation
// for the checkpoint-parallel scheduler on a schedule whose lagged placement
// lands checkpoints before the previous window's committed end: such a leg
// re-measures instructions already covered, so it must be discarded rather
// than stitched, leaving detailed commits plus fast-forwarded instructions
// equal to the full run's at every worker count.
func TestRunSampledParallelDiscardsOverlappedLegs(t *testing.T) {
	w, err := workload.LoadScaled("gcc", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MeasureStats(w, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rc := DefaultRunConfig()
		rc.Sampled = true
		rc.Check = true
		rc.WindowCycles = 4096
		rc.WindowInterval = 8192
		rc.WarmupCycles = 1024
		rc.WindowWorkers = workers
		res, err := RunSampled(context.Background(), w, rc)
		if err != nil {
			t.Fatalf("windowworkers=%d: %v", workers, err)
		}
		t.Logf("windowworkers=%d: est %d cycles vs full %d (err %.4f), committed %d vs %d, windows %d",
			workers, res.Stats.Cycles, full.Cycles, absFrac(res.Stats.Cycles, full.Cycles),
			res.Stats.Committed, full.Committed, res.Sampling.Windows)
		if res.Stats.Committed != full.Committed {
			t.Fatalf("windowworkers=%d: committed %d (detailed+ff), full run %d",
				workers, res.Stats.Committed, full.Committed)
		}
	}
}
