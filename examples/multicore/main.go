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

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/multicore"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

func main() {
	names := []string{"mcf", "omnetpp"}
	cfg := multicore.Config{Core: cpu.DefaultConfig(), MaxCycles: 500_000_000}

	// Solo baselines first.
	solo := map[string]uint64{}
	for _, n := range names {
		w := mustLoad(n)
		sys := multicore.New(cfg, []multicore.CoreSpec{{Workload: w}})
		res, err := sys.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		solo[n] = res[0].Stats.Cycles
	}

	// Co-run with per-core Oracle + TIP.
	type coreState struct {
		name   string
		oracle *profiler.Oracle
		tip    *profiler.Sampled
	}
	var specs []multicore.CoreSpec
	var states []coreState
	for _, n := range names {
		w := mustLoad(n)
		or := profiler.NewOracle(w.Prog, false)
		tp := profiler.NewSampled(profiler.KindTIP, w.Prog, sampling.NewPeriodic(101))
		specs = append(specs, multicore.CoreSpec{
			Workload:  w,
			Consumers: []trace.Consumer{or, tp},
		})
		states = append(states, coreState{name: n, oracle: or, tip: tp})
	}
	sys := multicore.New(cfg, specs)
	results, err := sys.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("core  benchmark  solo-cycles  co-run-cycles  slowdown  TIP-error")
	for i, st := range states {
		co := results[i].Stats.Cycles
		e := st.tip.Profile.Error(st.oracle.Profile, profile.GranInstruction, true)
		fmt.Printf("%4d  %-9s  %11d  %13d  %7.2fx  %8.2f%%\n",
			i, st.name, solo[st.name], co,
			float64(co)/float64(solo[st.name]), e*100)
	}
	fmt.Printf("\nshared LLC: %d hits, %d misses across both cores\n",
		sys.LLC().Hits, sys.LLC().Misses)
	fmt.Println("sharing the LLC and memory controller slows both DRAM-bound")
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
