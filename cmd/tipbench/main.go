// Command tipbench regenerates every table and figure of the paper's
// evaluation and writes them as aligned-text tables.
//
// A full-scale run evaluates all 27 benchmarks with the complete profiler
// matrix (7 profilers x 5 sampling frequencies, periodic and random) in a
// single simulation pass per benchmark; on a laptop-class core this takes a
// few minutes. Use -scale to shrink the workloads for a quick look.
//
// Examples:
//
//	tipbench                        # everything, full scale
//	tipbench -scale 300000          # quick pass
//	tipbench -figures fig10,fig13   # a subset
//	tipbench -out results.txt
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cli"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/experiments"
)

func main() {
	var (
		scale       = flag.Uint64("scale", 0, "dynamic-instruction budget per benchmark (0 = full scale)")
		samples     = flag.Uint64("samples", 0, "4 kHz-equivalent sample count (0 = default 32768)")
		seed        = flag.Uint64("seed", 1, "workload seed")
		figures     = flag.String("figures", "", "comma-separated subset: fig1,fig7,fig8,fig9,fig10,fig11a,fig11b,fig11c,fig12,fig13,table1,overhead,sampling-overhead,validation,sampled,multicore")
		benchs      = flag.String("benchmarks", "", "comma-separated benchmark subset")
		out         = flag.String("out", "", "write output to this file instead of stdout")
		checked     = flag.Bool("check", false, "verify cycle-level trace invariants and profiler conservation on every run; fail on any violation")
		parallel    = flag.Int("parallelism", 0, "total worker budget shared by benchmark evaluations and replay workers (0 = GOMAXPROCS)")
		replayW     = flag.Int("replayworkers", 1, "replay worker goroutines per benchmark, borrowed from the -parallelism budget (each decodes the capture itself; results are byte-identical at any count)")
		streaming   = flag.Bool("streaming", false, "stream each simulation straight into its replay shards (fused capture+replay; peak memory bounded by the live chunk window)")
		benchjson   = flag.String("benchjson", "", "write machine-readable suite timing (wall-clock, cycles/sec, simulations) to this JSON file")
		sampledjson = flag.String("sampledjson", "", "write machine-readable sampled-vs-full comparison (CPI error, effective cycles/sec, speedup) to this JSON file; requires -figures sampled")
		prof        cli.Profiling
		sflags      cli.SampledFlags
	)
	prof.Register(flag.CommandLine)
	sflags.Register(flag.CommandLine, "-figures sampled")
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stop()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		// A full disk surfaces on Close: report it instead of silently
		// truncating results.
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = io.MultiWriter(os.Stdout, f)
	}

	want := map[string]bool{}
	if *figures != "" {
		for _, f := range strings.Split(*figures, ",") {
			want[strings.ToLower(strings.TrimSpace(f))] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }
	// The sampled comparison is opt-in (it reruns each benchmark in full as
	// its own ground truth), so "everything" (no -figures) does not imply it.
	sampledSel := want["sampled"]
	schedule, err := validateSampledFlags(sflags, sampledSel, *sampledjson)
	if err != nil {
		fatal(err)
	}

	opt := experiments.Options{
		Seed:          *seed,
		Scale:         *scale,
		TargetSamples: *samples,
		Checked:       *checked,
		Parallelism:   *parallel,
		ReplayWorkers: *replayW,
		Streaming:     *streaming,
	}
	if *benchs != "" {
		opt.Benchmarks = strings.Split(*benchs, ",")
	}

	// Static experiments need no simulation.
	if sel("table1") {
		fmt.Fprintln(w, experiments.Table1())
	}
	if sel("overhead") {
		fmt.Fprintln(w, experiments.OverheadTable())
	}
	if sel("sampling-overhead") {
		t, err := experiments.SamplingOverhead(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, t)
	}

	needSuite := sel("fig1") || sel("fig7") || sel("fig8") || sel("fig9") ||
		sel("fig10") || sel("fig11a") || sel("fig11b") || sel("fig11c") || sel("validation")
	if needSuite {
		runsBefore := cpu.RunsStarted()
		var heap *peakHeapTracker
		if *benchjson != "" {
			heap = startPeakHeapTracker()
		}
		fmt.Fprintf(w, "evaluating suite (%d benchmarks)...\n", len(suiteNames(opt)))
		evals, timing, err := experiments.EvalSuiteTimed(context.Background(), opt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "suite evaluated in %s (capture %s, replay %s across benchmarks, up to %d replay workers)\n\n",
			timing.Wall.Round(time.Second), timing.Capture.Round(time.Millisecond),
			timing.Replay.Round(time.Millisecond), timing.MaxReplayWorkers)
		if *benchjson != "" {
			if err := writeBenchJSON(*benchjson, evals, timing, cpu.RunsStarted()-runsBefore, *streaming, heap.Stop()); err != nil {
				fatal(err)
			}
		}
		if sel("fig1") {
			fmt.Fprintln(w, experiments.Fig01(evals))
		}
		if sel("fig7") {
			fmt.Fprintln(w, experiments.Fig07(evals))
		}
		if sel("fig8") {
			fmt.Fprintln(w, experiments.Fig08(evals))
		}
		if sel("fig9") {
			fmt.Fprintln(w, experiments.Fig09(evals))
		}
		if sel("fig10") {
			fmt.Fprintln(w, experiments.Fig10(evals))
		}
		if sel("fig11a") {
			fmt.Fprintln(w, experiments.Fig11a(evals))
		}
		if sel("fig11b") {
			fmt.Fprintln(w, experiments.Fig11b(evals))
		}
		if sel("fig11c") {
			fmt.Fprintln(w, experiments.Fig11c(evals))
		}
		if sel("validation") {
			fmt.Fprintln(w, experiments.Validation(evals))
		}
	}

	if sampledSel {
		// Sequential on purpose: each comparison times a full run against a
		// sampled run of the same workload, and concurrent simulations would
		// distort both wall-clocks (and so the reported speedup).
		var comps []*experiments.SampledCompare
		for _, name := range suiteNames(opt) {
			c, err := experiments.CompareSampled(context.Background(), name, opt, schedule)
			if err != nil {
				fatal(err)
			}
			comps = append(comps, c)
		}
		fmt.Fprintln(w, experiments.SampledTable(comps))
		if *sampledjson != "" {
			if err := writeSampledJSON(*sampledjson, comps); err != nil {
				fatal(err)
			}
		}
	}

	// The multicore experiment is opt-in like sampled: it simulates each
	// co-runner pair lockstep (roughly the cost of its workloads combined),
	// so "everything" does not imply it.
	if want["multicore"] {
		t, err := experiments.Multicore(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, t)
	}

	if sel("fig12") {
		t, err := experiments.Fig12(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, t)
	}
	if sel("fig13") {
		r, err := experiments.Fig13(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, r.Table)
	}
}

func suiteNames(opt experiments.Options) []string {
	if opt.Benchmarks != nil {
		return opt.Benchmarks
	}
	return tip.Benchmarks()
}

// benchJSONSchemaVersion versions the -benchjson report layout. Bump it when
// removing or re-meaning fields; consumers must tolerate unknown fields so
// additions don't need a bump.
const benchJSONSchemaVersion = 1

// writeBenchJSON emits the machine-readable suite timing consumed by the CI
// benchmark job (BENCH_3.json): wall-clock with its capture/replay phase
// split, simulated throughput, how many cycle-level simulations the
// evaluation performed, and the suite's peak live-heap high-water mark (the
// CI memory gate compares streaming vs non-streaming peaks).
func writeBenchJSON(path string, evals []*experiments.BenchmarkEval, timing experiments.SuiteTiming, sims uint64, streaming bool, peakAlloc uint64) error {
	var totalCycles uint64
	for _, ev := range evals {
		totalCycles += ev.Cycles
	}
	report := struct {
		SchemaVersion  int     `json:"schema_version"`
		Benchmarks     int     `json:"benchmarks"`
		Simulations    uint64  `json:"simulations"`
		Streaming      bool    `json:"streaming"`
		SuiteSeconds   float64 `json:"suite_seconds"`
		CaptureSeconds float64 `json:"capture_seconds"`
		ReplaySeconds  float64 `json:"replay_seconds"`
		ReplayWorkers  int     `json:"replay_workers"`
		TotalCycles    uint64  `json:"total_cycles"`
		CyclesPerSec   float64 `json:"cycles_per_sec"`
		SimsPerBench   float64 `json:"simulations_per_benchmark"`
		PeakAllocBytes uint64  `json:"peak_alloc_bytes"`
	}{
		SchemaVersion:  benchJSONSchemaVersion,
		Benchmarks:     len(evals),
		Simulations:    sims,
		Streaming:      streaming,
		SuiteSeconds:   timing.Wall.Seconds(),
		CaptureSeconds: timing.Capture.Seconds(),
		ReplaySeconds:  timing.Replay.Seconds(),
		ReplayWorkers:  timing.MaxReplayWorkers,
		TotalCycles:    totalCycles,
		CyclesPerSec:   float64(totalCycles) / timing.Wall.Seconds(),
		PeakAllocBytes: peakAlloc,
	}
	if len(evals) > 0 {
		report.SimsPerBench = float64(sims) / float64(len(evals))
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sampledJSONSchemaVersion versions the -sampledjson report layout, with the
// same bump policy as benchJSONSchemaVersion.
const sampledJSONSchemaVersion = 1

// writeSampledJSON emits the machine-readable sampled-vs-full comparison
// consumed by the CI sampled-accuracy gate: per benchmark, the full run's
// cycle count against the stitched estimate, the resulting CPI error, and
// the effective-throughput speedup.
func writeSampledJSON(path string, comps []*experiments.SampledCompare) error {
	type row struct {
		Name             string  `json:"name"`
		FullCycles       uint64  `json:"full_cycles"`
		EstimatedCycles  uint64  `json:"estimated_cycles"`
		CPIError         float64 `json:"cpi_error"`
		Speedup          float64 `json:"speedup"`
		FullCyclesPerSec float64 `json:"full_cycles_per_sec"`
		EffCyclesPerSec  float64 `json:"effective_cycles_per_sec"`
		Windows          uint64  `json:"windows"`
		DetailedFraction float64 `json:"detailed_fraction"`
		FFInstructions   uint64  `json:"ff_instructions"`
		WindowWorkers    int     `json:"window_workers"`
		SweepSeconds     float64 `json:"sweep_seconds"`
		MeasureSeconds   float64 `json:"measure_seconds"`
		WallSeconds      float64 `json:"wall_seconds"`
	}
	report := struct {
		SchemaVersion int   `json:"schema_version"`
		Benchmarks    []row `json:"benchmarks"`
	}{SchemaVersion: sampledJSONSchemaVersion}
	for _, c := range comps {
		report.Benchmarks = append(report.Benchmarks, row{
			Name:             c.Name,
			FullCycles:       c.FullCycles,
			EstimatedCycles:  c.EstCycles,
			CPIError:         c.CPIError,
			Speedup:          c.Speedup,
			FullCyclesPerSec: c.FullRate(),
			EffCyclesPerSec:  c.EffectiveRate(),
			Windows:          c.Windows,
			DetailedFraction: c.DetailedFraction,
			FFInstructions:   c.FFInstructions,
			WindowWorkers:    c.WindowWorkers,
			SweepSeconds:     c.SweepSeconds,
			MeasureSeconds:   c.MeasureSeconds,
			WallSeconds:      c.SampledWall.Seconds(),
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// peakHeapTracker polls the runtime's live-object heap size in the
// background and keeps the high-water mark. It measures what the streaming
// pipeline claims to bound — bytes simultaneously live — rather than
// cumulative allocation, which grows with trace length on every path.
type peakHeapTracker struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startPeakHeapTracker() *peakHeapTracker {
	t := &peakHeapTracker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > t.peak.Load() {
				t.peak.Store(v)
			}
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return t
}

// Stop ends the polling goroutine and returns the observed peak. The
// goroutine samples once immediately at startup, so even suites shorter
// than a polling tick report a nonzero peak.
func (t *peakHeapTracker) Stop() uint64 {
	close(t.stop)
	<-t.done
	return t.peak.Load()
}

// validateSampledFlags rejects the sampled-figure flags when the figure is
// not selected and otherwise resolves the schedule once, before any
// simulation, into the RunConfig every CompareSampled call takes.
func validateSampledFlags(sflags cli.SampledFlags, sampledSel bool, sampledjson string) (tip.RunConfig, error) {
	var rc tip.RunConfig
	if err := sflags.Apply(&rc, sampledSel, "-figures sampled"); err != nil {
		return rc, err
	}
	if sampledjson != "" && !sampledSel {
		return rc, fmt.Errorf("-sampledjson requires -figures sampled")
	}
	return rc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tipbench:", err)
	os.Exit(1)
}
