package experiments

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	tip "github.com/tipprof/tip"
)

// detOpts keeps the metamorphic runs small: determinism does not get more
// deterministic at scale.
func detOpts(benchmarks ...string) Options {
	return Options{
		Scale:         60_000,
		TargetSamples: 512,
		frequencies:   []uint64{100, BaseFrequency},
		Benchmarks:    benchmarks,
	}
}

// TestEvalBenchmarkDeterministic is the metamorphic identity check: the same
// seed must reproduce the evaluation bit for bit.
func TestEvalBenchmarkDeterministic(t *testing.T) {
	a, err := EvalBenchmark("x264", detOpts("x264"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvalBenchmark("x264", detOpts("x264"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different evaluations:\n%+v\nvs\n%+v", a, b)
	}
}

// TestEvalSuiteParallelismInvariant asserts the suite result is independent
// of the worker count: sequential and parallel evaluation must agree exactly.
func TestEvalSuiteParallelismInvariant(t *testing.T) {
	benchmarks := []string{"x264", "imagick", "lbm"}

	seqOpt := detOpts(benchmarks...)
	seqOpt.Parallelism = 1
	seq, err := EvalSuite(seqOpt)
	if err != nil {
		t.Fatal(err)
	}

	parOpt := detOpts(benchmarks...)
	parOpt.Parallelism = runtime.GOMAXPROCS(0)
	par, err := EvalSuite(parOpt)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seq, par) {
		t.Fatal("suite evaluation depends on Parallelism")
	}
}

// TestEvalReplayWorkersInvariant is the metamorphic worker-count check for
// sharded replay: evaluating with 1, 2, and GOMAXPROCS replay workers — with
// the conservation checker attached — must produce byte-identical results.
// Every worker decodes the same capture bytes into the same record stream,
// so the only thing allowed to vary is which goroutine a profiler runs on.
func TestEvalReplayWorkersInvariant(t *testing.T) {
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	var ref *BenchmarkEval
	for _, w := range workers {
		opt := detOpts("imagick")
		opt.Checked = true
		// Grant exactly the slots the replay wants so the borrow is
		// deterministic and the run really fans out over w workers.
		opt.Parallelism = w
		opt.ReplayWorkers = w
		ev, err := EvalBenchmark("imagick", opt)
		if err != nil {
			t.Fatalf("ReplayWorkers=%d: %v", w, err)
		}
		if ref == nil {
			ref = ev
			continue
		}
		if !reflect.DeepEqual(ref, ev) {
			t.Fatalf("evaluation differs between ReplayWorkers=%d and ReplayWorkers=%d",
				workers[0], w)
		}
	}
}

// TestEvalSuiteReplayWorkersInvariant repeats the worker-count check at the
// suite level, where replay workers are borrowed from the shared parallelism
// budget while several benchmarks evaluate at once.
func TestEvalSuiteReplayWorkersInvariant(t *testing.T) {
	benchmarks := []string{"x264", "lbm"}

	seqOpt := detOpts(benchmarks...)
	seqOpt.Parallelism = 1
	seqOpt.ReplayWorkers = 1
	seq, err := EvalSuite(seqOpt)
	if err != nil {
		t.Fatal(err)
	}

	parOpt := detOpts(benchmarks...)
	parOpt.Parallelism = 4
	parOpt.ReplayWorkers = 3
	par, err := EvalSuite(parOpt)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seq, par) {
		t.Fatal("suite evaluation depends on ReplayWorkers")
	}
}

// TestEvalSuiteChecked runs the suite with the invariant checker attached to
// every profiled run.
func TestEvalSuiteChecked(t *testing.T) {
	opt := detOpts("imagick", "gcc")
	opt.Checked = true
	if _, err := EvalSuite(opt); err != nil {
		t.Fatalf("checked suite failed: %v", err)
	}
}

// TestEvalSuiteReportsError asserts a failing benchmark surfaces as an error
// rather than a hang or a silent hole in the results.
func TestEvalSuiteReportsError(t *testing.T) {
	if _, err := EvalSuite(detOpts("x264", "no-such-benchmark", "lbm")); err == nil {
		t.Fatal("unknown benchmark accepted by EvalSuite")
	}
}

// TestEvalBenchmarkStreamingParity pins the fused evaluation to the
// capture-then-replay one. The test workload finishes inside the default
// pilot window, so streaming calibration is exact and the two paths must
// agree bit for bit — including with the checker attached and the replay
// sharded.
func TestEvalBenchmarkStreamingParity(t *testing.T) {
	opt := detOpts("x264")
	opt.Checked = true
	ref, err := EvalBenchmark("x264", opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cycles >= tip.DefaultPilotCycles {
		t.Fatalf("test workload runs %d cycles, expected to end inside the %d-cycle pilot window",
			ref.Cycles, uint64(tip.DefaultPilotCycles))
	}
	for _, workers := range []int{1, 4} {
		sOpt := detOpts("x264")
		sOpt.Checked = true
		sOpt.Streaming = true
		sOpt.Parallelism = workers
		sOpt.ReplayWorkers = workers
		got, err := EvalBenchmark("x264", sOpt)
		if err != nil {
			t.Fatalf("streaming workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("streaming evaluation differs from captured at ReplayWorkers=%d", workers)
		}
	}
}

// TestEvalMulticoreFollowsStreaming pins that EvalMulticore takes the route
// Options.Streaming names, as EvalBenchmark does. mcf runs well past the
// pilot window here, so its pilot-calibrated interval differs from the
// exact one: the streamed evaluation must report the pilot's interval, and
// the default evaluation the exact one.
func TestEvalMulticoreFollowsStreaming(t *testing.T) {
	pair := []string{"mcf", "x264"}
	exact, err := EvalMulticore(context.Background(), pair, detOpts())
	if err != nil {
		t.Fatal(err)
	}
	sOpt := detOpts()
	sOpt.Streaming = true
	streamed, err := EvalMulticore(context.Background(), pair, sOpt)
	if err != nil {
		t.Fatal(err)
	}
	if c := exact.Cores[0].Stats.Cycles; c < 2*tip.DefaultPilotCycles {
		t.Fatalf("mcf runs %d cycles; the test needs a run well past the pilot window", c)
	}
	e, s := exact.Cores[0].SampleInterval, streamed.Cores[0].SampleInterval
	if e == s {
		t.Fatalf("mcf's interval is %d under both routes; the streamed route did not calibrate from its pilot", e)
	}
	if exact.Cores[0].Stats != streamed.Cores[0].Stats {
		t.Fatal("mcf's run statistics differ between the routes")
	}
	t.Logf("mcf interval: exact %d, pilot %d", e, s)
}
