package experiments

import (
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
)

// quickOpts keeps test runs small; full scale is exercised by cmd/tipbench
// and the root bench harness.
func quickOpts(benchmarks ...string) Options {
	return Options{
		Scale:         150_000,
		TargetSamples: 2048,
		Benchmarks:    benchmarks,
	}
}

func evalQuick(t *testing.T, benchmarks ...string) []*BenchmarkEval {
	t.Helper()
	evals, err := EvalSuite(quickOpts(benchmarks...))
	if err != nil {
		t.Fatal(err)
	}
	return evals
}

func TestEvalBenchmarkPopulatesEverything(t *testing.T) {
	ev, err := EvalBenchmark("x264", quickOpts("x264"))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cycles == 0 || ev.Committed == 0 || ev.IPC <= 0 {
		t.Fatalf("run stats empty: %+v", ev)
	}
	if ev.Interval4k == 0 {
		t.Fatal("no calibrated interval")
	}
	for _, freq := range DefaultFrequencies {
		kinds := sweepKinds()
		if freq == BaseFrequency {
			kinds = profiler.AllKinds()
		}
		for _, k := range kinds {
			ge, ok := ev.Periodic[freq][k]
			if !ok {
				t.Fatalf("missing %v at %d Hz", k, freq)
			}
			for _, e := range []float64{ge.Inst, ge.Block, ge.Func} {
				if e < 0 || e > 1 {
					t.Fatalf("error %v out of range for %v@%d", e, k, freq)
				}
			}
		}
	}
	for _, k := range profiler.AllKinds() {
		if _, ok := ev.Random[k]; !ok {
			t.Fatalf("missing random errors for %v", k)
		}
		if _, ok := ev.PeriodicRaw[k]; !ok {
			t.Fatalf("missing raw periodic errors for %v", k)
		}
	}
	if _, ok := ev.CrossProfiler[profiler.KindSoftware][profiler.KindNCI]; !ok {
		t.Fatal("missing Software-vs-NCI cross difference")
	}
}

func TestEvalUnknownBenchmark(t *testing.T) {
	if _, err := EvalBenchmark("nope", quickOpts("nope")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestGranErrorsAt(t *testing.T) {
	g := GranErrors{Inst: 0.1, Block: 0.2, Func: 0.3}
	if g.At(profile.GranInstruction) != 0.1 || g.At(profile.GranBlock) != 0.2 || g.At(profile.GranFunction) != 0.3 {
		t.Fatal("At() mapping wrong")
	}
}

func TestFigureTablesRender(t *testing.T) {
	evals := evalQuick(t, "x264", "imagick")
	for _, tb := range []*Table{
		Fig01(evals), Fig07(evals), Fig08(evals), Fig09(evals),
		Fig10(evals), Fig11a(evals), Fig11b(evals), Fig11c(evals),
		Validation(evals),
	} {
		s := tb.String()
		if !strings.Contains(s, tb.Title) {
			t.Fatalf("render missing title: %q", tb.Title)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s has no rows", tb.Title)
		}
	}
}

func TestFig07RowsPerBenchmark(t *testing.T) {
	evals := evalQuick(t, "x264", "lbm")
	tb := Fig07(evals)
	if len(tb.Rows) != 2 {
		t.Fatalf("Fig07 rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "x264" || tb.Rows[1][0] != "lbm" {
		t.Fatalf("Fig07 order wrong: %v", tb.Rows)
	}
}

func TestFig10HasAverageRows(t *testing.T) {
	evals := evalQuick(t, "x264", "lbm")
	tb := Fig10(evals)
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "avg:All" {
		t.Fatalf("last row = %v", last)
	}
	// 2 benchmarks + 3 class averages + 1 overall.
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig10 rows = %d", len(tb.Rows))
	}
}

func TestTable1MatchesConfig(t *testing.T) {
	tb := Table1()
	s := tb.String()
	for _, want := range []string{"128-entry ROB", "32 KB 8-way I-cache", "512 KB 8-way L2", "4 MB 8-way LLC", "3.2 GHz"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestOverheadTableMatchesPaper(t *testing.T) {
	s := OverheadTable().String()
	for _, want := range []string{"57 B", "179 GB/s", "352 KB/s", "224 KB/s", "192 KB/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("overhead table missing %q:\n%s", want, s)
		}
	}
}

func TestFig12QualitativeClaims(t *testing.T) {
	tb, err := Fig12(Options{Scale: 400_000, TargetSamples: 4096, Benchmarks: []string{"imagick"}})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	for _, want := range []string{"fsflags", "frflags", "ceil", "MeanShiftImage"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Fig12 missing %q", want)
		}
	}
}

func TestFig13SpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("two full imagick runs")
	}
	r, err := Fig13(Options{TargetSamples: 2048, Benchmarks: []string{"imagick"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 1.7 || r.Speedup > 2.2 {
		t.Fatalf("speedup %.2f outside ballpark", r.Speedup)
	}
	if r.OptIPC <= r.OrigIPC {
		t.Fatal("optimization did not raise IPC")
	}
	// Misc-flush cycles vanish from ceil in the optimized variant.
	origCeil := r.OrigStacks["ceil"]
	optCeil := r.OptStacks["ceil"]
	if origCeil.Cycles[profile.CatMiscFlush] == 0 {
		t.Fatal("original ceil shows no flush cycles")
	}
	if optCeil.Cycles[profile.CatMiscFlush] != 0 {
		t.Fatal("optimized ceil still shows flush cycles")
	}
	// ceil collapses; MorphologyApply stays roughly unchanged.
	if optCeil.Total > origCeil.Total/2 {
		t.Fatalf("ceil did not collapse: %v -> %v", origCeil.Total, optCeil.Total)
	}
	om, nm := r.OrigStacks["MorphologyApply"].Total, r.OptStacks["MorphologyApply"].Total
	if nm < om*0.8 || nm > om*1.2 {
		t.Fatalf("MorphologyApply changed: %v -> %v", om, nm)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tb.AddRow("x", "y")
	s := tb.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "note: n") {
		t.Fatalf("render: %q", s)
	}
}
