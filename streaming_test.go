package tip

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// assertResultsIdentical deep-compares every profiler artifact of two runs.
func assertResultsIdentical(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if ref.SampleInterval != got.SampleInterval {
		t.Fatalf("%s: interval %d vs %d", label, ref.SampleInterval, got.SampleInterval)
	}
	if !reflect.DeepEqual(ref.Oracle.Profile, got.Oracle.Profile) {
		t.Fatalf("%s: Oracle profile differs", label)
	}
	if !reflect.DeepEqual(ref.Oracle.Stack, got.Oracle.Stack) {
		t.Fatalf("%s: cycle stack differs", label)
	}
	for _, k := range AllKinds() {
		a, b := ref.Sampled[k], got.Sampled[k]
		if a.Samples != b.Samples {
			t.Fatalf("%s: %v sample count %d vs %d", label, k, a.Samples, b.Samples)
		}
		if !reflect.DeepEqual(a.Profile, b.Profile) {
			t.Fatalf("%s: %v profile differs", label, k)
		}
	}
}

// TestRunStreamingMatchesCaptured is the metamorphic identity pin for the
// fused path: at a fixed sampling interval, streaming and capture-then-replay
// must produce deeply equal profiler state at ReplayWorkers 1 and 4, with
// the conservation checker attached throughout.
func TestRunStreamingMatchesCaptured(t *testing.T) {
	w, capture, stats := captureForTest(t)
	for _, workers := range []int{1, 4} {
		rc := DefaultRunConfig()
		rc.SampleInterval = 1009
		rc.Check = true
		rc.WithBreakdown = true
		rc.ReplayWorkers = workers

		ref, err := RunCaptured(context.Background(), w, capture, stats, rc)
		if err != nil {
			t.Fatalf("RunCaptured workers=%d: %v", workers, err)
		}
		got, err := RunStreaming(context.Background(), w, rc)
		if err != nil {
			t.Fatalf("RunStreaming workers=%d: %v", workers, err)
		}
		assertResultsIdentical(t, "workers="+string(rune('0'+workers)), ref, got)
		if got.Stats != stats {
			t.Fatalf("workers=%d: streaming stats %+v, want %+v", workers, got.Stats, stats)
		}
	}
}

// TestRunStreamingPilotParityOnGolden pins pilot-window calibration against
// CalibrateInterval on the committed golden capture's workload: the run ends
// inside the default pilot window, so the pilot stats are exact and the
// streamed run must pick the identical interval — and therefore produce
// identical profiles — to the two-pass path.
func TestRunStreamingPilotParityOnGolden(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.TargetSamples = 512
	rc.Check = true

	capt, stats, err := CaptureWorkload(w, rc.Core)
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()
	if stats.Cycles >= DefaultPilotCycles {
		t.Fatalf("golden workload runs %d cycles, expected to end inside the %d-cycle pilot window",
			stats.Cycles, uint64(DefaultPilotCycles))
	}
	ref, err := RunCaptured(context.Background(), w, capt, stats, rc)
	if err != nil {
		t.Fatal(err)
	}

	got, err := RunStreaming(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	want := CalibrateInterval(stats.Cycles, rc.TargetSamples)
	if got.SampleInterval != want {
		t.Fatalf("streamed interval %d, want CalibrateInterval's %d", got.SampleInterval, want)
	}
	assertResultsIdentical(t, "golden pilot parity", ref, got)
}

// TestRunStreamingTeeMatchesCapture checks a capture fed as an extra
// consumer of a streamed run (how tipd's cold miss fills its cache) holds the
// byte-identical encoded stream CaptureWorkload produces, and that the
// committed golden capture validates it end to end.
func TestRunStreamingTeeMatchesCapture(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.TargetSamples = 512
	capt := trace.NewCapture()
	defer capt.Close()
	rc.ExtraConsumers = []trace.Consumer{capt}
	res, err := RunStreaming(context.Background(), w, rc)
	if err == nil {
		err = capt.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats
	if res == nil || stats.Cycles == 0 || capt.Cycles() != stats.Cycles {
		t.Fatalf("tee bookkeeping: stats=%+v capture cycles=%d", stats, capt.Cycles())
	}
	var got bytes.Buffer
	if _, err := capt.WriteTo(&got); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(goldenCapturePath)
	if err != nil {
		t.Skipf("golden capture unavailable: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("teed capture diverged from the committed golden capture")
	}
}

// TestRunStreamingConsumerFault checks a failing extra consumer aborts the
// fused run — including the still-simulating core — and surfaces its error.
func TestRunStreamingConsumerFault(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	bad := &faultingEveryCycle{failAt: 500}
	rc := DefaultRunConfig()
	rc.SampleInterval = 1009
	rc.ReplayWorkers = 4
	rc.ExtraConsumers = []trace.Consumer{bad}
	_, err = RunStreaming(context.Background(), w, rc)
	if err == nil || !strings.Contains(err.Error(), "injected mid-replay failure") {
		t.Fatalf("err = %v, want the injected failure", err)
	}
}

// TestRunStreamingContextCancelled checks an already cancelled context stops
// the fused run before results are delivered.
func TestRunStreamingContextCancelled(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := DefaultRunConfig()
	rc.TargetSamples = 512
	res, err := RunStreaming(ctx, w, rc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("got a result from a cancelled streamed run")
	}
}

// TestRunStreamingExtraConsumersAt checks the post-calibration hook runs
// exactly once with the calibrated interval and its consumers join the
// matrix.
func TestRunStreamingExtraConsumersAt(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.TargetSamples = 512
	var calls int
	var hookInterval, hookEst uint64
	counter := &trace.CountingConsumer{}
	rc.ExtraConsumersAt = func(interval, estCycles uint64) []trace.Consumer {
		calls++
		hookInterval, hookEst = interval, estCycles
		return []trace.Consumer{counter}
	}
	res, err := RunStreaming(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("hook ran %d times, want once", calls)
	}
	if hookInterval != res.SampleInterval || hookEst != res.Stats.Cycles {
		t.Fatalf("hook saw interval=%d est=%d, want %d/%d (exact pilot)",
			hookInterval, hookEst, res.SampleInterval, res.Stats.Cycles)
	}
	if counter.Cycles != res.Stats.Cycles || !counter.Finished {
		t.Fatalf("hook consumer saw %d records (finished=%v), want every one of %d cycles",
			counter.Cycles, counter.Finished, res.Stats.Cycles)
	}
}

// TestPilotEstimateCycles covers the extrapolation arithmetic.
func TestPilotEstimateCycles(t *testing.T) {
	cases := []struct {
		name string
		ps   trace.PilotStats
		dyn  uint64
		want uint64
	}{
		{"exact", trace.PilotStats{Cycles: 123, Committed: 456, Exact: true}, 1 << 20, 123},
		{"no-budget", trace.PilotStats{Cycles: 100, Committed: 50}, 0, 100},
		{"no-commits", trace.PilotStats{Cycles: 100}, 1000, 100},
		{"proportional", trace.PilotStats{Cycles: 1000, Committed: 500}, 5000, 10_000},
		{"never-below-pilot", trace.PilotStats{Cycles: 1000, Committed: 500}, 100, 1000},
		{"saturates", trace.PilotStats{Cycles: math.MaxUint64 / 2, Committed: 1}, math.MaxUint64 / 2, math.MaxUint64},
	}
	for _, tc := range cases {
		if got := PilotEstimateCycles(tc.ps, tc.dyn); got != tc.want {
			t.Errorf("%s: PilotEstimateCycles(%+v, %d) = %d, want %d", tc.name, tc.ps, tc.dyn, got, tc.want)
		}
	}
}
