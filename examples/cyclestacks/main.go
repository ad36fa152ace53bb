// Cycle stacks: classify a set of benchmarks by where their cycles go
// (Fig. 7 of the paper) using the Oracle profiler's exact per-cycle
// attribution — Execution, stalls by type, front-end, and flushes.
//
//	go run ./examples/cyclestacks                 # a representative trio
//	go run ./examples/cyclestacks exchange2 mcf   # pick your own
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	tip "github.com/tipprof/tip"
)

func main() {
	names := []string{"exchange2", "imagick", "mcf"}
	if len(os.Args) > 1 {
		names = os.Args[1:]
	}

	fmt.Printf("%-14s %-8s %5s  %9s %9s %9s %9s %9s %9s %9s\n",
		"benchmark", "class", "IPC",
		"Execution", "ALUstall", "LoadStall", "StStall", "Frontend", "Mispred", "MiscFlush")
	for _, name := range names {
		w, err := tip.LoadWorkload(name, 1)
		if err != nil {
			log.Fatal(err)
		}
		rc := tip.DefaultRunConfig()
		rc.Profilers = []tip.Kind{} // Oracle only: cycle stacks need no sampling
		res, err := tip.Run(context.Background(), w, rc)
		if err != nil {
			log.Fatal(err)
		}
		st := res.Stack()
		n := st.Normalized()
		fmt.Printf("%-14s %-8s %5.2f ", name, st.Class(), res.Stats.IPC())
		for c := tip.Category(0); int(c) < len(n); c++ {
			fmt.Printf(" %8.1f%%", n[c]*100)
		}
		fmt.Println()
	}

	fmt.Println("\nclassification rule (paper §4): Execution > 50% -> Compute;")
	fmt.Println("else flush share > 3% -> Flush; otherwise Stall.")
}
