package tip

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// captureForTest captures one small imagick run shared by the parallel-replay
// tests.
func captureForTest(t *testing.T) (*Workload, *TraceCapture, CoreStats) {
	t.Helper()
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	capture, stats, err := CaptureWorkload(w, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { capture.Close() })
	return w, capture, stats
}

// TestRunCapturedWorkerCountIdentity pins the tentpole invariant at the API
// level: RunCaptured must produce deeply equal profiler state at any worker
// count, with the conservation checker attached throughout.
func TestRunCapturedWorkerCountIdentity(t *testing.T) {
	w, capture, stats := captureForTest(t)

	run := func(workers int) *Result {
		rc := DefaultRunConfig()
		rc.TargetSamples = 512
		rc.Check = true
		rc.WithBreakdown = true
		rc.ReplayWorkers = workers
		res, err := RunCaptured(context.Background(), w, capture, stats, rc)
		if err != nil {
			t.Fatalf("ReplayWorkers=%d: %v", workers, err)
		}
		return res
	}

	ref := run(1)
	for _, workers := range []int{2, 3, 16} {
		got := run(workers)
		if !reflect.DeepEqual(ref.Oracle.Profile, got.Oracle.Profile) {
			t.Fatalf("Oracle profile differs at ReplayWorkers=%d", workers)
		}
		if !reflect.DeepEqual(ref.Oracle.Stack, got.Oracle.Stack) {
			t.Fatalf("cycle stack differs at ReplayWorkers=%d", workers)
		}
		for _, k := range AllKinds() {
			a, b := ref.Sampled[k], got.Sampled[k]
			if a.Samples != b.Samples {
				t.Fatalf("%v: sample count %d vs %d at ReplayWorkers=%d",
					k, a.Samples, b.Samples, workers)
			}
			if !reflect.DeepEqual(a.Profile, b.Profile) {
				t.Fatalf("%v profile differs at ReplayWorkers=%d", k, workers)
			}
		}
	}
}

// faultingEveryCycle is an extra consumer that reports a failure mid-stream
// through the trace.Faultable interface.
type faultingEveryCycle struct {
	seen   uint64
	failAt uint64
	err    error
}

func (f *faultingEveryCycle) OnCycle(*trace.Record) {
	f.seen++
	if f.seen >= f.failAt && f.err == nil {
		f.err = errors.New("injected mid-replay failure")
	}
}
func (f *faultingEveryCycle) Finish(uint64) {}
func (f *faultingEveryCycle) Err() error    { return f.err }

// TestRunCapturedAbortsOnConsumerFault injects a failing consumer into the
// every-cycle tier and checks the replay surfaces its error instead of
// streaming the rest of the capture into a dead pipeline — at one worker as
// at four.
func TestRunCapturedAbortsOnConsumerFault(t *testing.T) {
	w, capture, stats := captureForTest(t)
	for _, workers := range []int{1, 4} {
		bad := &faultingEveryCycle{failAt: 500}
		rc := DefaultRunConfig()
		rc.TargetSamples = 512
		rc.ReplayWorkers = workers
		rc.ExtraConsumers = []trace.Consumer{bad}
		res, err := RunCaptured(context.Background(), w, capture, stats, rc)
		if err == nil || !strings.Contains(err.Error(), "injected mid-replay failure") {
			t.Fatalf("ReplayWorkers=%d: err = %v, want the injected failure", workers, err)
		}
		if res != nil {
			t.Fatalf("ReplayWorkers=%d: got a result from a failed replay", workers)
		}
		if bad.seen == capture.Records() {
			t.Fatalf("ReplayWorkers=%d: replay streamed the full capture despite the mid-stream failure", workers)
		}
	}
}

// TestRunCapturedContextCancelled checks both replay paths reject an already
// cancelled context without delivering results.
func TestRunCapturedContextCancelled(t *testing.T) {
	w, capture, stats := captureForTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		rc := DefaultRunConfig()
		rc.TargetSamples = 512
		rc.ReplayWorkers = workers
		res, err := RunCaptured(ctx, w, capture, stats, rc)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ReplayWorkers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("ReplayWorkers=%d: got a result from a cancelled run", workers)
		}
	}
}
