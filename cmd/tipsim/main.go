// Command tipsim runs one benchmark on the simulated BOOM-style core with
// any set of profilers and prints the resulting profiles, cycle stack, and
// profile errors against the Oracle reference.
//
// Examples:
//
//	tipsim -bench imagick -top 8
//	tipsim -bench imagick -fn ceil
//	tipsim -bench gcc -profilers NCI,TIP -samples 8192
//	tipsim -cores mcf,x264
//	tipsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cli"
	"github.com/tipprof/tip/internal/perfdata"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "imagick", "benchmark name (see -list)")
		cores     = flag.String("cores", "", "comma-separated benchmarks run lockstep on one shared-LLC system, workload i on core i, each core profiled from its own stream (incompatible with -record/-sampled)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		profilers = flag.String("profilers", "", "comma-separated profiler subset (default: all)")
		samples   = flag.Uint64("samples", 4096, "calibrated sample count (4 kHz-equivalent)")
		random    = flag.Bool("random", false, "random sampling within each interval")
		seed      = flag.Uint64("seed", 1, "workload seed")
		scale     = flag.Uint64("scale", 0, "approximate dynamic instruction budget (0 = default)")
		top       = flag.Int("top", 10, "functions to print")
		fn        = flag.String("fn", "", "print the instruction-level profile of this function")
		record    = flag.String("record", "", "record raw TIP samples (88 B/sample) to this file; post-process with tipreport")
		streaming = flag.Bool("streaming", false, "stream the simulation straight into the replay shards (fused capture+replay; interval calibrated from a pilot window)")
		sampled   = flag.Bool("sampled", false, "sampled simulation: detailed measurement windows alternating with functional fast-forward (see -window/-interval/-warmup)")
		checkInv  = flag.Bool("check", false, "verify cycle-level trace invariants and profiler conservation; fail on any violation")
		replayW   = flag.Int("replayworkers", 1, "worker goroutines the captured-trace replay fans the profilers out over (each decodes the capture itself; results are byte-identical at any count)")
		prof      cli.Profiling
		sflags    cli.SampledFlags
	)
	prof.Register(flag.CommandLine)
	sflags.Register(flag.CommandLine, "-sampled")
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stop()

	if *list {
		for _, name := range tip.Benchmarks() {
			class, _ := tip.BenchmarkClass(name)
			fmt.Printf("%-16s %s\n", name, class)
		}
		fmt.Printf("%-16s %s\n", "imagick-opt", "Flush (optimized §6 variant)")
		return
	}

	var kinds []tip.Kind
	if *profilers != "" {
		if kinds, err = profiler.ParseKinds(strings.Split(*profilers, ",")); err != nil {
			fatal(err)
		}
	}

	rc := tip.DefaultRunConfig()
	rc.TargetSamples = *samples
	rc.RandomSampling = *random
	rc.Profilers = kinds
	rc.WithBreakdown = true
	rc.Check = *checkInv
	rc.ReplayWorkers = *replayW
	if err := configure(&rc, sflags, *sampled, *cores, *record); err != nil {
		fatal(err)
	}

	if *cores != "" {
		if err := runMulticore(*cores, *seed, *scale, rc, *streaming, *top, *fn); err != nil {
			fatal(err)
		}
		return
	}

	w, err := workload.LoadScaled(*bench, *seed, *scale)
	if err != nil {
		fatal(err)
	}
	res, err := run(w, rc, *streaming, *record)
	if err != nil {
		fatal(err)
	}
	printResult(w.Name, res, *top, *fn)
}

// configure applies the sampled-schedule flags to rc and rejects the -record
// combinations no run route supports.
func configure(rc *tip.RunConfig, sflags cli.SampledFlags, sampled bool, cores, record string) error {
	if err := sflags.Apply(rc, sampled, "-sampled"); err != nil {
		return err
	}
	switch {
	case record != "" && sampled:
		return fmt.Errorf("-record is incompatible with -sampled (raw-sample recording needs the full trace)")
	case record != "" && cores != "":
		return fmt.Errorf("-record is incompatible with -cores (raw-sample recording is single-core)")
	}
	return nil
}

// run simulates w under rc, through tip.RunStreaming when streaming is set
// (and rc is not sampled, which streams anyway), otherwise through tip.Run. A
// non-empty record path also writes the raw TIP samples a perfdata collector
// gathers at the run's calibrated interval, whichever route the run takes to
// find it.
func run(w *tip.Workload, rc tip.RunConfig, streaming bool, record string) (*tip.Result, error) {
	route := tip.Run
	if streaming && !rc.Sampled {
		route = tip.RunStreaming
	}
	if record == "" {
		return route(context.Background(), w, rc)
	}
	f, err := os.Create(record)
	if err != nil {
		return nil, err
	}
	rw := perfdata.NewWriter(f)
	rc.ExtraConsumersAt = func(interval, _ uint64) []trace.Consumer {
		return []trace.Consumer{perfdata.NewCollector(rw, sampling.NewPeriodic(interval), 0, 1, 1)}
	}
	res, err := route(context.Background(), w, rc)
	if err == nil {
		err = rw.Err()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("recorded %d raw samples (%d bytes) to %s\n",
		rw.Count(), rw.Count()*perfdata.RecordBytes, record)
	return res, nil
}

// printResult renders one run's summary, error table, and top functions.
func printResult(name string, res *tip.Result, top int, fn string) {
	fmt.Printf("benchmark %s: %d cycles, %d instructions, IPC %.2f, sample interval %d cycles\n",
		name, res.Stats.Cycles, res.Stats.Committed, res.Stats.IPC(), res.SampleInterval)
	if sr := res.Sampling; sr != nil {
		fmt.Printf("sampled: %d windows, %d measured cycles (%.1f%% detailed), %d instructions fast-forwarded; cycle total is the stitched estimate\n",
			sr.Windows, sr.MeasuredCycles, sr.DetailedFraction()*100, sr.FFInstructions)
		if sr.WindowWorkers > 0 {
			fmt.Printf("parallel: %d window workers; sweep %.2fs, detailed legs %.2fs aggregate\n",
				sr.WindowWorkers, sr.SweepSeconds, sr.MeasureSeconds)
		}
	}
	fmt.Printf("mispredicts %d, CSR flushes %d, exceptions %d\n",
		res.Stats.Mispredicts, res.Stats.CSRFlushes, res.Stats.Exceptions)
	fmt.Printf("cycle stack: %s  (class %s)\n\n", res.Stack().String(), res.Stack().Class())

	fmt.Println("profile error vs Oracle (instruction / basic-block / function):")
	for _, k := range orderOf(res) {
		fmt.Printf("  %-9s %6.2f%%  %6.2f%%  %6.2f%%\n", k.String(),
			res.Err(k, tip.GranInstruction)*100,
			res.Err(k, tip.GranBlock)*100,
			res.Err(k, tip.GranFunction)*100)
	}

	fmt.Printf("\nhottest functions (Oracle):\n")
	for _, r := range res.Oracle.Profile.TopFunctions(top, true) {
		fmt.Printf("  %-24s %6.2f%%\n", r.Name, r.Share*100)
	}

	if fn != "" {
		fmt.Printf("\ninstruction profile of %s (Oracle / TIP / NCI):\n", fn)
		or := res.Oracle.Profile.FunctionInstProfile(fn)
		tp := res.Sampled[tip.KindTIP]
		np := res.Sampled[tip.KindNCI]
		for i, r := range or {
			tv, nv := "-", "-"
			if tp != nil {
				if rows := tp.Profile.FunctionInstProfile(fn); i < len(rows) {
					tv = fmt.Sprintf("%6.2f%%", rows[i].Share*100)
				}
			}
			if np != nil {
				if rows := np.Profile.FunctionInstProfile(fn); i < len(rows) {
					nv = fmt.Sprintf("%6.2f%%", rows[i].Share*100)
				}
			}
			fmt.Printf("  %-28s %6.2f%%  %7s  %7s\n", r.Name, r.Share*100, tv, nv)
		}
	}
}

// runMulticore runs the -cores benchmark set lockstep on one shared-LLC
// system, through tip.RunMulticoreStreaming when streaming is set, and
// prints each core's profile evaluation against that core's own Oracle.
func runMulticore(spec string, seed, scale uint64, rc tip.RunConfig, streaming bool, top int, fn string) error {
	names := strings.Split(spec, ",")
	ws := make([]*tip.Workload, 0, len(names))
	for _, name := range names {
		w, err := workload.LoadScaled(strings.TrimSpace(name), seed, scale)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	run := tip.RunMulticore
	if streaming {
		run = tip.RunMulticoreStreaming
	}
	res, err := run(context.Background(), ws, rc)
	if err != nil {
		return err
	}
	fmt.Printf("%d cores, %d lockstep cycles\n", len(res.Cores), res.TotalCycles)
	for i, cr := range res.Cores {
		fmt.Printf("\n--- core %d ---\n", i)
		printResult(ws[i].Name, cr, top, fn)
	}
	return nil
}

func orderOf(res *tip.Result) []tip.Kind {
	var out []tip.Kind
	for _, k := range tip.AllKinds() {
		if _, ok := res.Sampled[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tipsim:", err)
	os.Exit(1)
}
