// Command tipreport post-processes a raw TIP sample file (recorded with
// `tipsim -record`) against the application binary, rebuilding the profile
// offline — the role `perf report` plays in the paper's deployment (§3.1).
//
// The "binary" is regenerated from the benchmark name and seed (workload
// generation is deterministic), which stands in for reading symbols and
// instruction types out of an ELF file.
//
// Example:
//
//	tipsim -bench imagick -record imagick.tipperf
//	tipreport -bench imagick -data imagick.tipperf -fn ceil
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/tipprof/tip/internal/perfdata"
	"github.com/tipprof/tip/internal/pprofenc"
	"github.com/tipprof/tip/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tipreport:", err)
		os.Exit(1)
	}
}

// run parses args and writes the report to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tipreport", flag.ContinueOnError)
	var (
		bench = fs.String("bench", "imagick", "benchmark the samples were recorded from")
		seed  = fs.Uint64("seed", 1, "workload seed used at record time")
		scale = fs.Uint64("scale", 0, "workload scale used at record time")
		data  = fs.String("data", "", "raw sample file (required)")
		top   = fs.Int("top", 10, "functions to print")
		fn    = fs.String("fn", "", "print the instruction profile of this function")
		insts = fs.Int("insts", 0, "print the N hottest instructions")
		pprof = fs.String("pprof", "", "also write the profile as a gzipped pprof protobuf to this file (open with `go tool pprof`)")
		core  = fs.Int("core", -1, "tag the pprof samples with this core number (\"core\" string label, like tipd's multicore export; -1 = untagged)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required")
	}

	w, err := workload.LoadScaled(*bench, *seed, *scale)
	if err != nil {
		return err
	}
	f, err := os.Open(*data)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	prof, cats, err := perfdata.Postprocess(perfdata.NewReader(f), w.Prog)
	if err != nil {
		return err
	}

	if *pprof != "" {
		// Same encoding the tipd daemon serves at /v1/jobs/{id}/pprof.
		// Raw TIP samples carry per-sample periods, so no single period
		// is recorded in the pprof header.
		out, err := os.Create(*pprof)
		if err != nil {
			return err
		}
		opt := pprofenc.JobOptions(*bench, *seed, *scale, "TIP", 0)
		if *core >= 0 {
			opt.Labels = []pprofenc.Label{{Key: "core", Value: fmt.Sprint(*core)}}
		}
		if err := pprofenc.Write(out, prof, opt); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote pprof profile to %s\n", *pprof)
	}

	fmt.Fprintf(stdout, "%s: %.0f cycles attributed across %d instructions\n",
		*bench, prof.Attributed(), w.Prog.NumInsts())
	fmt.Fprintf(stdout, "cycle categories: %s\n\n", cats.Stack.String())

	fmt.Fprintln(stdout, "hottest functions:")
	for _, r := range prof.TopFunctions(*top, true) {
		fmt.Fprintf(stdout, "  %-24s %6.2f%%\n", r.Name, r.Share*100)
	}

	if *insts > 0 {
		fmt.Fprintln(stdout, "\nhottest instructions:")
		type row struct {
			idx int
			v   float64
		}
		var rows []row
		for i, v := range prof.InstCycles {
			if v > 0 {
				rows = append(rows, row{i, v})
			}
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].v > rows[b].v })
		total := prof.Attributed()
		for i, r := range rows {
			if i >= *insts {
				break
			}
			in := w.Prog.InstByIndex(r.idx)
			fmt.Fprintf(stdout, "  %#8x %-12s %-20s %6.2f%%\n",
				in.PC, in.Name(), in.Func().Name, r.v/total*100)
		}
	}

	if *fn != "" {
		fmt.Fprintf(stdout, "\ninstruction profile of %s:\n", *fn)
		for _, r := range prof.FunctionInstProfile(*fn) {
			fmt.Fprintf(stdout, "  %-28s %6.2f%%\n", r.Name, r.Share*100)
		}
		st := cats.FunctionStack(*fn)
		fmt.Fprintf(stdout, "\n%s cycle categories: %s\n", *fn, st.String())
	}
	return nil
}
