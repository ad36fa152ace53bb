// Quickstart: run one benchmark on the simulated core, profile it with TIP
// and the baseline profilers, and compare their accuracy against the Oracle
// golden reference.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	tip "github.com/tipprof/tip"
)

func main() {
	// Load a benchmark. "imagick" is the paper's §6 case study; see
	// tip.Benchmarks() for the full 27-benchmark suite.
	w, err := tip.LoadWorkload("imagick", 1)
	if err != nil {
		log.Fatal(err)
	}

	// Run it on the Table 1 core with every profiler attached. All
	// profilers observe the same execution and sample the same cycles.
	rc := tip.DefaultRunConfig()
	res, err := tip.Run(context.Background(), w, rc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran %s: %d instructions in %d cycles (IPC %.2f)\n",
		w.Name, res.Stats.Committed, res.Stats.Cycles, res.Stats.IPC())
	fmt.Printf("cycle stack: %s\n\n", res.Stack())

	// The headline result: instruction-level profile error vs Oracle.
	fmt.Println("instruction-level profile error vs the Oracle reference:")
	for _, k := range tip.AllKinds() {
		fmt.Printf("  %-9s %6.2f%%\n", k, res.Err(k, tip.GranInstruction)*100)
	}

	// TIP stays accurate at every granularity; heuristic profilers
	// degrade as the symbols get finer.
	fmt.Println("\nTIP vs NCI across granularities (instruction / block / function):")
	for _, k := range []tip.Kind{tip.KindNCI, tip.KindTIP} {
		fmt.Printf("  %-5s %6.2f%%  %6.2f%%  %6.2f%%\n", k,
			res.Err(k, tip.GranInstruction)*100,
			res.Err(k, tip.GranBlock)*100,
			res.Err(k, tip.GranFunction)*100)
	}

	// Where does the time go? The Oracle profile knows exactly.
	fmt.Println("\nhottest functions (Oracle):")
	for _, r := range res.Oracle.Profile.TopFunctions(5, true) {
		fmt.Printf("  %-20s %6.2f%%\n", r.Name, r.Share*100)
	}
}
