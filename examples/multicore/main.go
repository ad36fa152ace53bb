// Multi-core profiling (§3.2): two cores share the LLC and DRAM, each with
// its own TIP unit. Contention changes each workload's timing — and each
// core's TIP profile stays accurate against that core's own Oracle, which
// is the property that makes per-core TIP units sufficient.
//
//	go run ./examples/multicore
package main

import (
	"context"
	"fmt"
	"log"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/workload"
)

func main() {
	names := []string{"mcf", "omnetpp"}
	rc := tip.DefaultRunConfig()
	rc.Core.MaxCycles = 500_000_000
	rc.Profilers = []tip.Kind{tip.KindTIP}
	rc.SampleInterval = 101

	// Solo baselines first, then the co-run: each core streams its records
	// to its own Oracle and TIP profiler while the lockstep run goes on.
	solo := make([]uint64, len(names))
	ws := make([]*tip.Workload, len(names))
	for i, n := range names {
		st, err := tip.MeasureStats(mustLoad(n), rc.Core)
		if err != nil {
			log.Fatal(err)
		}
		solo[i], ws[i] = st.Cycles, mustLoad(n)
	}
	res, err := tip.RunMulticoreStreaming(context.Background(), ws, rc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("core  benchmark  solo-cycles  co-run-cycles  slowdown  TIP-error")
	for i, cr := range res.Cores {
		co := cr.Stats.Cycles
		fmt.Printf("%4d  %-9s  %11d  %13d  %7.2fx  %8.2f%%\n",
			i, names[i], solo[i], co, float64(co)/float64(solo[i]),
			cr.Err(tip.KindTIP, tip.GranInstruction)*100)
	}
	fmt.Println("\nsharing the LLC and memory controller slows both DRAM-bound")
	fmt.Println("workloads, but each per-core TIP profile stays accurate against")
	fmt.Println("its own Oracle — per-core TIP units suffice (paper §3.2).")
}

func mustLoad(name string) *workload.Workload {
	w, err := workload.LoadScaled(name, 1, 600_000)
	if err != nil {
		log.Fatal(err)
	}
	return w
}
