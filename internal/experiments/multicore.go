package experiments

import (
	"context"
	"fmt"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/workload"
)

// DefaultMulticorePairs are the co-runner sets of the multicore experiment:
// one pair per cycle-stack class mix, pairing a memory-bound workload with a
// compute-lean one (the contention case TIP's per-core units are built for,
// §3.2) plus a stall/stall pair where the shared LLC and DRAM are fought
// over from both sides.
var DefaultMulticorePairs = [][]string{
	{"mcf", "x264"},
	{"omnetpp", "exchange2"},
	{"mcf", "omnetpp"},
}

// EvalMulticore runs one co-runner set lockstep through the fused multicore
// pipeline, under the Pilot policy when opt.Streaming is set, and evaluates
// TIP and NCI per core, core i running benches[i].
func EvalMulticore(ctx context.Context, benches []string, opt Options) (*tip.MulticoreResult, error) {
	opt.fill()
	ws := make([]*tip.Workload, len(benches))
	for i, name := range benches {
		w, err := workload.LoadScaled(name, opt.Seed, opt.Scale)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	rc := tip.DefaultRunConfig()
	rc.Profilers = []profiler.Kind{profiler.KindNCI, profiler.KindTIP}
	rc.TargetSamples = opt.TargetSamples
	rc.Check = opt.Checked
	rc.ReplayWorkers = opt.ReplayWorkers
	run := tip.RunMulticore
	if opt.Streaming {
		run = tip.RunMulticoreStreaming
	}
	res, err := run(ctx, ws, rc)
	if err != nil {
		return nil, fmt.Errorf("multicore %v: %w", benches, err)
	}
	return res, nil
}

// Multicore runs the default co-runner pairs and renders the per-core
// accuracy table: each benchmark's cycles, IPC, and TIP/NCI instruction-level
// error against that core's own Oracle. The paper's claim (§3.2) is that a
// co-runner changes a benchmark's timing — visible here as depressed IPC
// versus a solo run — but not its profile's accuracy: TIP stays within a few
// percent of Oracle, and under NCI, under contention as when alone.
func Multicore(opt Options) (*Table, error) {
	t := &Table{
		Title:  "Multicore: per-core profile accuracy under shared-LLC contention",
		Header: []string{"pair", "core", "bench", "cycles", "ipc", "interval", "TIP err", "NCI err"},
		Notes: []string{
			"errors are instruction-granularity, each core vs its own Oracle (§3.2: per-core TIP units)",
			"each core's profiles come from its own capture; byte-identical to the direct run",
		},
	}
	for _, pair := range DefaultMulticorePairs {
		res, err := EvalMulticore(context.Background(), pair, opt)
		if err != nil {
			return nil, err
		}
		for i, cr := range res.Cores {
			t.AddRow(
				fmt.Sprintf("%s+%s", pair[0], pair[1]),
				fmt.Sprintf("%d", i),
				pair[i],
				fmt.Sprintf("%d", cr.Stats.Cycles),
				fmt.Sprintf("%.2f", cr.Stats.IPC()),
				fmt.Sprintf("%d", cr.SampleInterval),
				pct(cr.Err(profiler.KindTIP, profile.GranInstruction)),
				pct(cr.Err(profiler.KindNCI, profile.GranInstruction)),
			)
		}
	}
	return t, nil
}
