package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_eval.txt from the current implementation")

// goldenOpts pins every evaluation knob so the golden file is a function of
// the implementation only.
func goldenOpts(benchmarks ...string) Options {
	return Options{
		Seed:          1,
		Scale:         60_000,
		TargetSamples: 512,
		frequencies:   []uint64{100, BaseFrequency},
		Benchmarks:    benchmarks,
		Parallelism:   1,
	}
}

// renderEval serializes a BenchmarkEval with full float64 precision and a
// deterministic field order, so byte-equality of the rendering is
// bit-equality of the results.
func renderEval(ev *BenchmarkEval) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark %s class %s\n", ev.Name, ev.Class)
	fmt.Fprintf(&b, "cycles %d committed %d ipc %.17g interval4k %d\n",
		ev.Cycles, ev.Committed, ev.IPC, ev.Interval4k)
	fmt.Fprintf(&b, "stack total %.17g", ev.Stack.Total)
	for c := 0; c < profile.NumCategories; c++ {
		fmt.Fprintf(&b, " %.17g", ev.Stack.Cycles[c])
	}
	b.WriteString("\n")

	freqs := make([]uint64, 0, len(ev.Periodic))
	for f := range ev.Periodic {
		freqs = append(freqs, f)
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] < freqs[j] })
	writeKinds := func(label string, m map[profiler.Kind]GranErrors) {
		kinds := make([]int, 0, len(m))
		for k := range m {
			kinds = append(kinds, int(k))
		}
		sort.Ints(kinds)
		for _, ki := range kinds {
			g := m[profiler.Kind(ki)]
			fmt.Fprintf(&b, "%s %v %.17g %.17g %.17g\n",
				label, profiler.Kind(ki), g.Inst, g.Block, g.Func)
		}
	}
	for _, f := range freqs {
		writeKinds(fmt.Sprintf("periodic@%d", f), ev.Periodic[f])
	}
	writeKinds("random", ev.Random)
	writeKinds("periodic-raw", ev.PeriodicRaw)

	as := make([]int, 0, len(ev.CrossProfiler))
	for a := range ev.CrossProfiler {
		as = append(as, int(a))
	}
	sort.Ints(as)
	for _, ai := range as {
		bs := make([]int, 0, len(ev.CrossProfiler[profiler.Kind(ai)]))
		for bk := range ev.CrossProfiler[profiler.Kind(ai)] {
			bs = append(bs, int(bk))
		}
		sort.Ints(bs)
		for _, bi := range bs {
			fmt.Fprintf(&b, "cross %v %v %.17g\n", profiler.Kind(ai), profiler.Kind(bi),
				ev.CrossProfiler[profiler.Kind(ai)][profiler.Kind(bi)])
		}
	}
	return b.String()
}

// TestEvalBenchmarkGolden pins EvalBenchmark's complete numeric output for
// three benchmarks (one per Fig. 7 class) against a golden file, at full
// float64 precision. Any change to the evaluation pipeline — including the
// capture/replay restructuring — must keep these bytes identical.
func TestEvalBenchmarkGolden(t *testing.T) {
	benchmarks := []string{"x264", "imagick", "lbm"}
	var b strings.Builder
	for _, name := range benchmarks {
		ev, err := EvalBenchmark(name, goldenOpts(benchmarks...))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(renderEval(ev))
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_eval.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("evaluation results diverged from golden file %s.\n"+
			"If the change is intentional, regenerate with: go test ./internal/experiments -run Golden -update-golden\n"+
			"first differing line: %s", path, firstDiffLine(got, string(want)))
	}
}

// TestEvalBenchmarkGoldenParallelReplay re-renders the same evaluations with
// sharded replay turned on and pins them to the unchanged golden file: two
// shards, each decoding the capture itself, must be byte-identical to one.
func TestEvalBenchmarkGoldenParallelReplay(t *testing.T) {
	benchmarks := []string{"x264", "imagick", "lbm"}
	var b strings.Builder
	for _, name := range benchmarks {
		opt := goldenOpts(benchmarks...)
		opt.Parallelism = 2
		opt.ReplayWorkers = 2
		ev, err := EvalBenchmark(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(renderEval(ev))
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_eval.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run TestEvalBenchmarkGolden with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("parallel replay diverged from the sequential golden file %s.\n"+
			"first differing line: %s", path, firstDiffLine(got, string(want)))
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: got %q want %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(al), len(bl))
}
