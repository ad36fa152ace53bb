// Case study (§6 of the paper): use TIP to find the Imagick performance
// bug that NCI-style profiling cannot pinpoint, then verify the fix.
//
// Imagick's ceil/floor wrap their floating-point rounding in
// frflags/fsflags status-register accesses; on a BOOM-style core the
// fsflags write flushes the pipeline at commit. TIP attributes the flush
// cycles to the fsflags instruction itself; NCI blames whatever commits
// next (the ret), sending the developer to the return-address predictor
// instead of the real culprit. Replacing the CSR accesses with nops —
// Imagick never reads the FP status register — yields the paper's 1.93x
// speedup.
//
//	go run ./examples/casestudy
package main

import (
	"context"
	"fmt"
	"log"

	tip "github.com/tipprof/tip"
)

func main() {
	// Step 1: profile the original program with TIP and NCI.
	w, err := tip.LoadWorkload("imagick", 1)
	if err != nil {
		log.Fatal(err)
	}
	rc := tip.DefaultRunConfig()
	rc.Profilers = []tip.Kind{tip.KindNCI, tip.KindTIP}
	rc.WithBreakdown = true
	res, err := tip.Run(context.Background(), w, rc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("function-level profile (both profilers agree — and it is inconclusive):")
	for _, r := range res.Oracle.Profile.TopFunctions(4, true) {
		fmt.Printf("  %-18s %5.1f%%\n", r.Name, r.Share*100)
	}

	fmt.Println("\ninstruction-level profile of ceil:")
	fmt.Printf("  %-26s %8s  %8s\n", "instruction", "TIP", "NCI")
	tipRows := res.Sampled[tip.KindTIP].Profile.FunctionInstProfile("ceil")
	nciRows := res.Sampled[tip.KindNCI].Profile.FunctionInstProfile("ceil")
	for i := range tipRows {
		fmt.Printf("  %-26s %7.1f%%  %7.1f%%\n",
			tipRows[i].Name, tipRows[i].Share*100, nciRows[i].Share*100)
	}
	fmt.Println("\n  TIP pinpoints frflags/fsflags; NCI points at ret (the instruction")
	fmt.Println("  committing after each flush) — the wrong trail.")

	// Step 2: apply the paper's fix (CSR accesses -> nops) and measure.
	orig, err := tip.MeasureStats(w, rc.Core)
	if err != nil {
		log.Fatal(err)
	}
	wOpt, err := tip.LoadWorkload("imagick-opt", 1)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := tip.MeasureStats(wOpt, rc.Core)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\noriginal : %9d cycles, IPC %.2f, %d pipeline flushes\n",
		orig.Cycles, orig.IPC(), orig.CSRFlushes)
	fmt.Printf("optimized: %9d cycles, IPC %.2f, %d pipeline flushes\n",
		opt.Cycles, opt.IPC(), opt.CSRFlushes)
	fmt.Printf("speedup  : %.2fx (paper: 1.93x)\n",
		float64(orig.Cycles)/float64(opt.Cycles))
	fmt.Println("\nthe speedup exceeds the time the CSRs themselves consumed: removing")
	fmt.Println("the flushes restores the core's ability to hide latencies everywhere.")
}
