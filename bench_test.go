// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md's per-experiment index), plus ablation
// benches for the design choices DESIGN.md calls out.
//
// Each figure bench regenerates its experiment at a reduced scale and
// reports the headline numbers as benchmark metrics, so
//
//	go test -bench=Fig -benchtime=1x
//
// prints the same series the paper reports. cmd/tipbench regenerates the
// full-scale versions.
package tip_test

import (
	"testing"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/experiments"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// benchScale keeps figure benches to a few seconds each.
const benchScale = 200_000

// benchSubset is a class-balanced subset for the per-suite figures.
var benchSubset = []string{
	"exchange2", "deepsjeng", "namd", // Compute
	"imagick", "nab", "gcc", // Flush
	"lbm", "mcf", "streamcluster", // Stall
}

func benchOpts() experiments.Options {
	return experiments.Options{
		Scale:         benchScale,
		TargetSamples: 4096,
		Benchmarks:    benchSubset,
	}
}

func evalForBench(b *testing.B) []*experiments.BenchmarkEval {
	b.Helper()
	evals, err := experiments.EvalSuite(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return evals
}

func meanInstErr(evals []*experiments.BenchmarkEval, k profiler.Kind) float64 {
	s := 0.0
	for _, ev := range evals {
		s += ev.Periodic[experiments.BaseFrequency][k].Inst
	}
	return s / float64(len(evals))
}

// BenchmarkFig01aAverageError regenerates Figure 1a: average
// instruction-level error per profiler.
func BenchmarkFig01aAverageError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := evalForBench(b)
		b.ReportMetric(meanInstErr(evals, profiler.KindSoftware)*100, "%err-Software")
		b.ReportMetric(meanInstErr(evals, profiler.KindDispatch)*100, "%err-Dispatch")
		b.ReportMetric(meanInstErr(evals, profiler.KindLCI)*100, "%err-LCI")
		b.ReportMetric(meanInstErr(evals, profiler.KindNCI)*100, "%err-NCI")
		b.ReportMetric(meanInstErr(evals, profiler.KindTIP)*100, "%err-TIP")
	}
}

// BenchmarkFig01bImagick regenerates Figure 1b: imagick's per-profiler
// instruction-level error.
func BenchmarkFig01bImagick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpts()
		opt.Benchmarks = []string{"imagick"}
		opt.Scale = 0 // full scale: the case study needs its real shape
		ev, err := experiments.EvalBenchmark("imagick", opt)
		if err != nil {
			b.Fatal(err)
		}
		base := ev.Periodic[experiments.BaseFrequency]
		b.ReportMetric(base[profiler.KindNCI].Inst*100, "%err-NCI")
		b.ReportMetric(base[profiler.KindTIP].Inst*100, "%err-TIP")
	}
}

// BenchmarkFig07CycleStacks regenerates Figure 7 and reports the class
// shares.
func BenchmarkFig07CycleStacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := evalForBench(b)
		correct := 0
		for _, ev := range evals {
			if ev.Stack.Class() == ev.Class {
				correct++
			}
		}
		b.ReportMetric(float64(correct), "classes-correct")
		b.ReportMetric(float64(len(evals)), "classes-total")
	}
}

// BenchmarkFig08FunctionErrors regenerates Figure 8.
func BenchmarkFig08FunctionErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := evalForBench(b)
		sum := func(k profiler.Kind) float64 {
			s := 0.0
			for _, ev := range evals {
				s += ev.Periodic[experiments.BaseFrequency][k].Func
			}
			return s / float64(len(evals)) * 100
		}
		b.ReportMetric(sum(profiler.KindSoftware), "%err-Software")
		b.ReportMetric(sum(profiler.KindNCI), "%err-NCI")
		b.ReportMetric(sum(profiler.KindTIP), "%err-TIP")
	}
}

// BenchmarkFig09BasicBlockErrors regenerates Figure 9.
func BenchmarkFig09BasicBlockErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := evalForBench(b)
		sum := func(k profiler.Kind) float64 {
			s := 0.0
			for _, ev := range evals {
				s += ev.Periodic[experiments.BaseFrequency][k].Block
			}
			return s / float64(len(evals)) * 100
		}
		b.ReportMetric(sum(profiler.KindLCI), "%err-LCI")
		b.ReportMetric(sum(profiler.KindNCI), "%err-NCI")
		b.ReportMetric(sum(profiler.KindTIP), "%err-TIP")
	}
}

// BenchmarkFig10InstructionErrors regenerates Figure 10.
func BenchmarkFig10InstructionErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := evalForBench(b)
		b.ReportMetric(meanInstErr(evals, profiler.KindNCI)*100, "%err-NCI")
		b.ReportMetric(meanInstErr(evals, profiler.KindTIPILP)*100, "%err-TIP-ILP")
		b.ReportMetric(meanInstErr(evals, profiler.KindTIP)*100, "%err-TIP")
	}
}

// BenchmarkFig11aFrequencySweep regenerates Figure 11a: TIP error vs
// sampling frequency.
func BenchmarkFig11aFrequencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := evalForBench(b)
		for _, freq := range experiments.DefaultFrequencies {
			s := 0.0
			for _, ev := range evals {
				s += ev.Periodic[freq][profiler.KindTIP].Inst
			}
			b.ReportMetric(s/float64(len(evals))*100,
				"%err-TIP@"+itoa(freq)+"Hz")
		}
	}
}

// BenchmarkFig11bRandomSampling regenerates Figure 11b.
func BenchmarkFig11bRandomSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := evalForBench(b)
		p, pr, r := 0.0, 0.0, 0.0
		for _, ev := range evals {
			pr += ev.PeriodicRaw[profiler.KindTIP].Inst
			p += ev.Periodic[experiments.BaseFrequency][profiler.KindTIP].Inst
			r += ev.Random[profiler.KindTIP].Inst
		}
		n := float64(len(evals))
		b.ReportMetric(pr/n*100, "%err-periodic-raw")
		b.ReportMetric(p/n*100, "%err-periodic")
		b.ReportMetric(r/n*100, "%err-random")
	}
}

// BenchmarkFig11cNCIILP regenerates Figure 11c: commit-parallelism-aware
// NCI gets worse, not better.
func BenchmarkFig11cNCIILP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := evalForBench(b)
		b.ReportMetric(meanInstErr(evals, profiler.KindNCI)*100, "%err-NCI")
		b.ReportMetric(meanInstErr(evals, profiler.KindNCIILP)*100, "%err-NCI+ILP")
		b.ReportMetric(meanInstErr(evals, profiler.KindTIP)*100, "%err-TIP")
	}
}

// BenchmarkFig12CaseStudy regenerates Figure 12: within-ceil attribution.
func BenchmarkFig12CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig12(experiments.Options{TargetSamples: 8192})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "rows")
	}
}

// BenchmarkFig13Optimization regenerates Figure 13 and reports the headline
// speedup (paper: 1.93x).
func BenchmarkFig13Optimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(experiments.Options{TargetSamples: 2048})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup, "speedup-x")
		b.ReportMetric(r.OrigIPC, "IPC-orig")
		b.ReportMetric(r.OptIPC, "IPC-opt")
	}
}

// BenchmarkTable1Config renders the configuration table.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkOverheadModel evaluates the §3.2 overhead model.
func BenchmarkOverheadModel(b *testing.B) {
	o := tip.Overhead{CommitWidth: 4, ClockHz: 3_200_000_000, SampleHz: 4000}
	for i := 0; i < b.N; i++ {
		_ = o.OracleBytesPerSecond()
		_ = o.TIPBytesPerSecond()
	}
	b.ReportMetric(float64(o.StorageBytes()), "storage-B")
	b.ReportMetric(float64(o.TIPBytesPerSecond())/1000, "TIP-KB/s")
	b.ReportMetric(float64(o.OracleBytesPerSecond())/1e9, "Oracle-GB/s")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationCommitWidth sweeps the commit width: TIP's ILP
// accounting matters more as the machine gets wider.
func BenchmarkAblationCommitWidth(b *testing.B) {
	for _, cw := range []int{2, 4, 8} {
		b.Run(itoa(uint64(cw))+"wide", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := workload.LoadScaled("exchange2", 1, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				rc := tip.DefaultRunConfig()
				rc.Core.CommitWidth = cw
				rc.Core.DispatchWidth = cw
				rc.Core.ROBEntries = 32 * cw
				rc.Profilers = []tip.Kind{tip.KindNCI, tip.KindTIP}
				res, err := tip.Run(w, rc)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.IPC(), "IPC")
				b.ReportMetric(res.Err(tip.KindNCI, tip.GranInstruction)*100, "%err-NCI")
				b.ReportMetric(res.Err(tip.KindTIP, tip.GranInstruction)*100, "%err-TIP")
			}
		})
	}
}

// BenchmarkAblationConsumerCost measures the out-of-band profiler-matrix
// cost per simulated cycle (the trace-driven design's overhead).
func BenchmarkAblationConsumerCost(b *testing.B) {
	run := func(b *testing.B, kinds []tip.Kind) {
		for i := 0; i < b.N; i++ {
			w, err := workload.LoadScaled("x264", 1, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			rc := tip.DefaultRunConfig()
			rc.Profilers = kinds
			if _, err := tip.Run(w, rc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("oracle-only", func(b *testing.B) { run(b, []tip.Kind{}) })
	b.Run("all-profilers", func(b *testing.B) { run(b, nil) })
}

// BenchmarkAblationTraceEncode measures the binary trace codec (store once,
// replay against new profiler models).
func BenchmarkAblationTraceEncode(b *testing.B) {
	var rec trace.Record
	rec.NumBanks = 4
	rec.Banks[0] = trace.BankEntry{Valid: true, Committing: true, PC: 0x10000, FID: 1, InstIndex: 0}
	rec.Banks[1] = trace.BankEntry{Valid: true, PC: 0x10004, FID: 2, InstIndex: 1}
	rec.CommitCount = 1
	// A fresh capture every 1<<16 records keeps the benchmark in memory
	// however large b.N grows.
	capt := trace.NewCapture()
	var encoded uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(1<<16) == 0 {
			encoded += capt.Bytes()
			capt = trace.NewCapture()
		}
		rec.Cycle = uint64(i)
		capt.OnCycle(&rec)
	}
	capt.Finish(uint64(b.N))
	if err := capt.Err(); err != nil {
		b.Fatal(err)
	}
	encoded += capt.Bytes()
	b.ReportMetric(float64(encoded)/float64(b.N), "B/record")
}

// BenchmarkAblationTraceDecode replays real captures through a
// CountingConsumer, so the time is the trace reader's decode alone. A stalled
// core repeats its record byte for byte, and the reader skips decoding the
// repeats: 70% of mcf's (Stall) records are such repeats, 47% of x264's
// (Compute).
func BenchmarkAblationTraceDecode(b *testing.B) {
	for _, name := range []string{"mcf", "x264"} {
		b.Run(name, func(b *testing.B) {
			w, err := workload.LoadScaled(name, 1, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			capt, _, err := tip.CaptureWorkload(w, tip.DefaultCoreConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer capt.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var cc trace.CountingConsumer
				if _, _, err := capt.Replay(&cc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*capt.Records()), "ns/record")
		})
	}
}

// BenchmarkAblationErrorMetric measures the total-variation error
// computation over instruction-granularity profiles.
func BenchmarkAblationErrorMetric(b *testing.B) {
	w, err := workload.LoadScaled("gcc", 1, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	rc := tip.DefaultRunConfig()
	rc.Profilers = []tip.Kind{tip.KindTIP}
	res, err := tip.Run(w, rc)
	if err != nil {
		b.Fatal(err)
	}
	prof := res.Sampled[tip.KindTIP].Profile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prof.Error(res.Oracle.Profile, profile.GranInstruction, true)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationPrefetcher compares the L1D next-line prefetcher on/off
// on a streaming workload (Table 1 includes the prefetcher; this shows what
// it buys).
func BenchmarkAblationPrefetcher(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		for i := 0; i < b.N; i++ {
			w, err := workload.LoadScaled("bwaves", 1, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			rc := tip.DefaultRunConfig()
			rc.Core.Hierarchy.L1D.NextLinePrefetch = enabled
			rc.Profilers = []tip.Kind{}
			res, err := tip.Run(w, rc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Stats.IPC(), "IPC")
			b.ReportMetric(float64(res.Stats.Cycles), "cycles")
		}
	}
	b.Run("prefetch-on", func(b *testing.B) { run(b, true) })
	b.Run("prefetch-off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationSamplingInterval sweeps the sampling density on one
// benchmark (the per-benchmark view behind Fig. 11a).
func BenchmarkAblationSamplingInterval(b *testing.B) {
	for _, interval := range []uint64{4099, 1021, 251, 61} {
		b.Run("interval-"+itoa(interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := workload.LoadScaled("gcc", 1, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				rc := tip.DefaultRunConfig()
				rc.SampleInterval = interval
				rc.Profilers = []tip.Kind{tip.KindTIP}
				res, err := tip.Run(w, rc)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Err(tip.KindTIP, tip.GranInstruction)*100, "%err-TIP")
				b.ReportMetric(float64(res.Sampled[tip.KindTIP].Samples), "samples")
			}
		})
	}
}
