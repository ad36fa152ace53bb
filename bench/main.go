// Command bench is the repository's benchmark: one command that measures
// the paper suite (two-pass and streaming), long sampled runs and the tipd
// fleet end to end, checks every output, and with -trace 1 charges the
// host time to the layers that spent it. See README.md.
//
//	bash bench/run.sh --workload suite-twopass --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh -o base.json                # all workloads, appended to a report
//	bash bench/run.sh -compare base.json,head.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workloads []workloadDef
	seed      uint64
	budget    time.Duration
	trace     bool
	out       string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wlFlag := fl.String("workload", "", "comma-separated workloads to run (default: all, in order)")
	seed := fl.Uint64("seed", 1, "seed the inputs are generated from (seed 2 is held out for claims)")
	seconds := fl.Int("seconds", 30, "measurement budget per workload, in seconds")
	traceFlag := fl.Int("trace", 0, "1 adds the traced per-layer run")
	out := fl.String("o", "", "append the runs to this JSON report")
	cmp := fl.String("compare", "", "base.json,head.json: compare two reports against the bounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *cmp != "" {
		basePath, headPath, ok := strings.Cut(*cmp, ",")
		if !ok {
			fmt.Fprintln(stderr, "bench: -compare wants base.json,head.json")
			return 2
		}
		regressed, err := compareReports(basePath, headPath, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	opt := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, out: *out}
	if *wlFlag == "" {
		opt.workloads = workloads
	} else {
		for _, name := range strings.Split(*wlFlag, ",") {
			w, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
				return 2
			}
			opt.workloads = append(opt.workloads, w)
		}
	}
	recs, err := execute(context.Background(), opt, defaultSizes, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	failed := 0
	for _, r := range recs {
		failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintf(stderr, "bench: %s: FAILED %s\n", r.Workload, f)
		}
	}
	if opt.out != "" {
		if err := appendReport(opt.out, recs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printResult(stdout, recs, opt.trace); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// execute runs each selected workload in order and prints its metrics as
// "<workload> <metric> <value> <unit>" lines.
func execute(ctx context.Context, opt options, sz sizes, stdout io.Writer) ([]runRecord, error) {
	var recs []runRecord
	for _, w := range opt.workloads {
		r, err := measure(ctx, w, opt.seed, sz, opt.budget)
		if err != nil {
			return nil, err
		}
		rec := runRecord{
			Workload: w.name, Seed: opt.seed, Trace: opt.trace, Passes: r.passes,
			Attempted: r.attempted, Failed: r.failed, FailedPct: r.failedPct(), Failures: r.failures,
			Metrics: r.metrics, Raw: r.raw, HostFactor: r.hostFactor, PerPass: r.perPass, Accuracy: r.accuracy,
		}
		for _, m := range endToEnd {
			line(stdout, w.name, m.Name, r.metrics[m.Name], m.Unit)
		}
		line(stdout, w.name, "op_p50_ms", r.tail.p50, "ms")
		if r.tail.ok {
			if r.tail.pct != 50 {
				line(stdout, w.name, fmt.Sprintf("op_p%g_ms", r.tail.pct), r.tail.value, "ms")
			}
			line(stdout, w.name, "op_beyond_tail", float64(r.tail.beyond), "count")
		}
		line(stdout, w.name, "ops", float64(r.tail.n), "count")
		for _, m := range endToEnd {
			if v, ok := r.raw[m.Name]; ok {
				line(stdout, w.name, "raw_"+m.Name, v, m.Unit)
			}
		}
		line(stdout, w.name, "host_factor", r.hostFactor, "ratio")
		line(stdout, w.name, "passes", float64(r.passes), "count")
		line(stdout, w.name, "failed_pct", r.failedPct(), "%")
		for _, k := range sortedKeys(r.accuracy) {
			line(stdout, w.name, k, r.accuracy[k], "%")
		}
		if opt.trace {
			tr, err := w.trace(ctx, opt.seed, sz, r)
			if err != nil {
				return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
			}
			rec.Layers, rec.Spans = tr.metrics, tr.spans
			rec.SelfTimes = selfTimes(tr.spans)
			for _, m := range perLayer {
				line(stdout, w.name, m.Name, tr.metrics[m.Name], m.Unit)
			}
			for _, s := range rec.SelfTimes {
				line(stdout, w.name, "self."+s.Name, s.SelfS, "s")
			}
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func line(w io.Writer, workload, metric string, v float64, unit string) {
	fmt.Fprintf(w, "%s %s %.6g %s\n", workload, metric, v, unit)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the one-line JSON summary: the end-to-end metrics, or
// with trace the per-layer ones. Metric names are prefixed with
// "<workload>/" when more than one workload ran.
func printResult(w io.Writer, recs []runRecord, trace bool) error {
	res := result{Metrics: map[string]metricValue{}}
	for _, r := range recs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		defs, vals := endToEnd, r.Metrics
		if trace {
			defs, vals = perLayer, r.Layers
		}
		for _, m := range defs {
			name := m.Name
			if len(recs) > 1 {
				name = r.Workload + "/" + name
			}
			res.Metrics[name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
