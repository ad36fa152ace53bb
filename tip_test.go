package tip

import (
	"context"
	"testing"

	"github.com/tipprof/tip/internal/workload"
)

// smallRun runs a benchmark at reduced scale with all profilers.
func smallRun(t *testing.T, name string, scale uint64) *Result {
	t.Helper()
	w, err := workload.LoadScaled(name, 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.TargetSamples = 2048
	res, err := Run(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 27 {
		t.Fatalf("suite has %d benchmarks", len(names))
	}
	for _, n := range names {
		if _, ok := BenchmarkClass(n); !ok {
			t.Fatalf("no class for %s", n)
		}
	}
}

func TestRunProducesAllProfilers(t *testing.T) {
	res := smallRun(t, "x264", 150_000)
	if len(res.Sampled) != len(AllKinds()) {
		t.Fatalf("got %d profilers", len(res.Sampled))
	}
	if res.Oracle == nil {
		t.Fatal("no oracle")
	}
	if res.SampleInterval == 0 {
		t.Fatal("no calibrated interval")
	}
}

func TestOracleAccountsAllCycles(t *testing.T) {
	res := smallRun(t, "leela", 150_000)
	attributed := res.Oracle.Profile.Attributed()
	total := float64(res.Stats.Cycles)
	if diff := attributed - total; diff > 1 || diff < -1 {
		t.Fatalf("Oracle attributed %.1f of %.1f cycles", attributed, total)
	}
	if res.Oracle.Stack.Total != total {
		t.Fatalf("stack total %v != cycles %v", res.Oracle.Stack.Total, total)
	}
	var stackSum float64
	for _, v := range res.Oracle.Stack.Cycles {
		stackSum += v
	}
	if diff := stackSum - total; diff > 1 || diff < -1 {
		t.Fatalf("stack sums to %.1f of %.1f cycles", stackSum, total)
	}
}

func TestErrorsWithinRange(t *testing.T) {
	res := smallRun(t, "deepsjeng", 150_000)
	for _, k := range AllKinds() {
		for _, g := range []Granularity{GranInstruction, GranBlock, GranFunction} {
			e := res.Err(k, g)
			if e < 0 || e > 1 {
				t.Fatalf("%v at %v: error %v out of range", k, g, e)
			}
		}
	}
}

func TestTIPBeatsBaselinesAtInstructionLevel(t *testing.T) {
	for _, name := range []string{"x264", "imagick", "lbm"} {
		res := smallRun(t, name, 200_000)
		tipErr := res.Err(KindTIP, GranInstruction)
		for _, k := range []Kind{KindSoftware, KindDispatch, KindLCI, KindNCI} {
			if other := res.Err(k, GranInstruction); other < tipErr {
				t.Errorf("%s: %v error %.3f < TIP %.3f", name, k, other, tipErr)
			}
		}
	}
}

func TestErrorGrowsWithFinerGranularity(t *testing.T) {
	res := smallRun(t, "imagick", 200_000)
	for _, k := range []Kind{KindNCI, KindLCI} {
		fe := res.Err(k, GranFunction)
		ie := res.Err(k, GranInstruction)
		if fe > ie+0.01 {
			t.Errorf("%v: function error %.3f > instruction error %.3f", k, fe, ie)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := smallRun(t, "nab", 120_000)
	b := smallRun(t, "nab", 120_000)
	if a.Stats != b.Stats {
		t.Fatalf("stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Err(KindTIP, GranInstruction) != b.Err(KindTIP, GranInstruction) {
		t.Fatal("profiles differ between identical runs")
	}
}

func TestImagickSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale imagick comparison")
	}
	cfg := DefaultCoreConfig()
	w, err := LoadWorkload("imagick", 1)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := MeasureStats(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wOpt, err := LoadWorkload("imagick-opt", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := MeasureStats(wOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Committed != opt.Committed {
		t.Fatalf("instruction counts differ: %d vs %d", orig.Committed, opt.Committed)
	}
	speedup := float64(orig.Cycles) / float64(opt.Cycles)
	if speedup < 1.7 || speedup > 2.2 {
		t.Fatalf("speedup %.2fx outside the paper's 1.93x ballpark", speedup)
	}
	if opt.CSRFlushes != 0 {
		t.Fatalf("optimized variant still flushes %d times", opt.CSRFlushes)
	}
	if orig.CSRFlushes == 0 {
		t.Fatal("original variant never flushed")
	}
}

func TestImagickCaseStudyAttribution(t *testing.T) {
	res := smallRun(t, "imagick", 400_000)
	// TIP puts significant ceil time on fsflags; NCI puts it on ret.
	get := func(k Kind, mnemonic string) float64 {
		for _, r := range res.Sampled[k].Profile.FunctionInstProfile("ceil") {
			if len(r.Name) >= len(mnemonic) && r.Name[len(r.Name)-len(mnemonic):] == mnemonic {
				return r.Share
			}
		}
		return 0
	}
	if s := get(KindTIP, "fsflags"); s < 0.15 {
		t.Errorf("TIP gives fsflags only %.1f%% of ceil", s*100)
	}
	if s := get(KindNCI, "fsflags"); s > 0.15 {
		t.Errorf("NCI gives fsflags %.1f%% of ceil; expected misattribution", s*100)
	}
	if s := get(KindNCI, "ret"); s < 0.15 {
		t.Errorf("NCI gives ret only %.1f%% of ceil; expected the blame", s*100)
	}
}

func TestRandomSamplingRuns(t *testing.T) {
	w, err := workload.LoadScaled("bwaves", 1, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.TargetSamples = 1024
	rc.RandomSampling = true
	rc.Profilers = []Kind{KindTIP}
	res, err := Run(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Err(KindTIP, GranInstruction); e > 0.3 {
		t.Fatalf("random-sampling TIP error %.3f implausibly high", e)
	}
	// The digest pins the random-sampling seed's draws bit for bit.
	const want = "b7b74de9e82b45cd9758e147432e3d82f3b673d3e835823c7bcd46fa15399f1b"
	if got := profileDigest(res); got != want {
		t.Fatalf("profile digest:\n got  %s\n want %s", got, want)
	}
}

func TestFixedIntervalRespected(t *testing.T) {
	w, err := workload.LoadScaled("x264", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.SampleInterval = 997
	rc.Profilers = []Kind{KindTIP}
	res, err := Run(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleInterval != 997 {
		t.Fatalf("interval = %d, want 997", res.SampleInterval)
	}
	want := res.Stats.Cycles / 997
	got := res.Sampled[KindTIP].Samples
	if got < want-2 || got > want+2 {
		t.Fatalf("samples = %d, want ~%d", got, want)
	}
}

func TestClassificationMatchesSpecsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several benchmarks")
	}
	// A representative from each class keeps its class even at reduced
	// scale (the full suite is validated by cmd/tipbench).
	for _, name := range []string{"exchange2", "imagick", "mcf"} {
		res := smallRun(t, name, 300_000)
		want, _ := BenchmarkClass(name)
		if got := res.Stack().Class(); got != want {
			t.Errorf("%s classified %s, want %s", name, got, want)
		}
	}
}

func TestOverheadExported(t *testing.T) {
	o := Overhead{CommitWidth: 4, ClockHz: 3_200_000_000, SampleHz: 4000}
	if o.StorageBytes() != 57 {
		t.Fatal("overhead model broken through facade")
	}
}
