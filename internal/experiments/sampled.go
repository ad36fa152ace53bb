package experiments

import (
	"context"
	"fmt"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/workload"
)

// Default sampled-schedule geometry; see tip.DefaultSampledWindow.
const (
	DefaultSampledWindow   = tip.DefaultSampledWindow
	DefaultSampledInterval = tip.DefaultSampledInterval
	DefaultSampledWarmup   = tip.DefaultSampledWarmup
)

// SampledCompare is one benchmark's sampled-vs-full comparison: the same
// workload simulated in full and under the sampled schedule, with the full
// run's Oracle as ground truth for both runs' profilers.
type SampledCompare struct {
	Name  string
	Class string

	// Full-run ground truth.
	FullCycles    uint64
	FullCommitted uint64
	FullWall      time.Duration

	// Sampled run.
	EstCycles        uint64
	SampledWall      time.Duration
	DetailedFraction float64
	Windows          uint64
	FFInstructions   uint64
	// WindowWorkers, SweepSeconds and MeasureSeconds describe the
	// checkpoint-parallel schedule when it ran (WindowWorkers 0 = the
	// serial path; the wall-clock split is then zero).
	WindowWorkers  int
	SweepSeconds   float64
	MeasureSeconds float64

	// CPIError is the stitched estimate's weighted CPI error,
	// |EstCycles - FullCycles| / FullCycles. (Committed instructions are
	// conserved across the two runs, so cycle error and CPI error are
	// the same number.)
	CPIError float64
	// Speedup is the effective cycles/s ratio: (EstCycles/SampledWall) /
	// (FullCycles/FullWall).
	Speedup float64

	// FullErr[k] is profiler k's error against the full-run Oracle when
	// it observed the full trace — the baseline attribution error.
	FullErr map[profiler.Kind]GranErrors
	// SampledErr[k] is profiler k's error against the full-run Oracle
	// when it observed only the measurement windows — the baseline plus
	// whatever the sampling schedule added.
	SampledErr map[profiler.Kind]GranErrors
	// OracleDrift is the sampled-run Oracle's profile error against the
	// full-run Oracle: how far window-only exact attribution sits from
	// whole-run exact attribution.
	OracleDrift GranErrors
}

// EffectiveRate returns the sampled run's effective simulation rate in
// estimated cycles per second.
func (c *SampledCompare) EffectiveRate() float64 {
	if c.SampledWall <= 0 {
		return 0
	}
	return float64(c.EstCycles) / c.SampledWall.Seconds()
}

// FullRate returns the full run's simulation rate in cycles per second.
func (c *SampledCompare) FullRate() float64 {
	if c.FullWall <= 0 {
		return 0
	}
	return float64(c.FullCycles) / c.FullWall.Seconds()
}

// CompareSampled runs name twice on the same workload — once in full, once
// under the sampled schedule — and reports the sampled run's speed and
// accuracy against the full run's ground truth. opt supplies the workload's
// seed and scale and both runs' TargetSamples, Checked and ReplayWorkers;
// sampled is the schedule as tip.ConfigureSampled (or cli.SampledFlags.Apply)
// resolved it, of which only the window geometry and WindowWorkers are read.
// Both runs use the streaming pipeline and the same calibrated-interval
// regime, so the wall-clock ratio isolates what sampling buys.
func CompareSampled(ctx context.Context, name string, opt Options, sampled tip.RunConfig) (*SampledCompare, error) {
	opt.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	w, err := workload.LoadScaled(name, opt.Seed, opt.Scale)
	if err != nil {
		return nil, err
	}

	rc := tip.DefaultRunConfig()
	rc.TargetSamples = opt.TargetSamples
	rc.Check = opt.Checked
	rc.ReplayWorkers = opt.ReplayWorkers
	src := rc
	src.Sampled = true
	src.WindowCycles, src.WindowInterval = sampled.WindowCycles, sampled.WindowInterval
	src.WarmupCycles, src.WindowWorkers = sampled.WarmupCycles, sampled.WindowWorkers

	fullStart := time.Now()
	full, err := tip.RunStreaming(ctx, w, rc)
	if err != nil {
		return nil, fmt.Errorf("experiments: full run %s: %w", name, err)
	}
	fullWall := time.Since(fullStart)

	sampledStart := time.Now()
	sres, err := tip.RunSampled(ctx, w, src)
	if err != nil {
		return nil, fmt.Errorf("experiments: sampled run %s: %w", name, err)
	}
	sampledWall := time.Since(sampledStart)

	c := &SampledCompare{
		Name:          name,
		Class:         w.Class,
		FullCycles:    full.Stats.Cycles,
		FullCommitted: full.Stats.Committed,
		FullWall:      fullWall,
		EstCycles:     sres.Stats.Cycles,
		SampledWall:   sampledWall,
		FullErr:       map[profiler.Kind]GranErrors{},
		SampledErr:    map[profiler.Kind]GranErrors{},
	}
	if sr := sres.Sampling; sr != nil {
		c.DetailedFraction = sr.DetailedFraction()
		c.Windows = sr.Windows
		c.FFInstructions = sr.FFInstructions
		c.WindowWorkers = sr.WindowWorkers
		c.SweepSeconds = sr.SweepSeconds
		c.MeasureSeconds = sr.MeasureSeconds
	}
	if c.FullCycles > 0 {
		d := float64(c.EstCycles) - float64(c.FullCycles)
		if d < 0 {
			d = -d
		}
		c.CPIError = d / float64(c.FullCycles)
	}
	if fullWall > 0 && sampledWall > 0 {
		c.Speedup = c.EffectiveRate() / c.FullRate()
	}

	// Attribution: both runs' profilers against the one ground truth —
	// the full run's Oracle. The two runs share w.Prog, so profiles are
	// directly comparable index for index.
	truth := full.Oracle.Profile
	errsAgainst := func(p *profile.Profile) GranErrors {
		return GranErrors{
			Inst:  p.Error(truth, profile.GranInstruction, true),
			Block: p.Error(truth, profile.GranBlock, true),
			Func:  p.Error(truth, profile.GranFunction, true),
		}
	}
	for k, sp := range full.Sampled {
		c.FullErr[k] = errsAgainst(sp.Profile)
	}
	for k, sp := range sres.Sampled {
		c.SampledErr[k] = errsAgainst(sp.Profile)
	}
	c.OracleDrift = errsAgainst(sres.Oracle.Profile)
	return c, nil
}

// SampledTable renders sampled-vs-full comparisons as a report table: one
// row per benchmark with speed and CPI accuracy, then one row per profiler
// showing full-trace vs sampled attribution error at instruction
// granularity.
func SampledTable(comps []*SampledCompare) *Table {
	t := &Table{
		Title: "Sampled simulation: speed and accuracy vs full simulation",
		Header: []string{"benchmark", "full Mcyc/s", "eff Mcyc/s", "speedup",
			"CPI err", "fraction", "windows", "oracle drift"},
	}
	for _, c := range comps {
		t.AddRow(c.Name,
			fmt.Sprintf("%.2f", c.FullRate()/1e6),
			fmt.Sprintf("%.2f", c.EffectiveRate()/1e6),
			fmt.Sprintf("%.2fx", c.Speedup),
			pct2(c.CPIError),
			fmt.Sprintf("%.3f", c.DetailedFraction),
			fmt.Sprintf("%d", c.Windows),
			pct2(c.OracleDrift.Inst))
	}
	for _, c := range comps {
		for _, k := range profiler.AllKinds() {
			t.AddRow(fmt.Sprintf("%s/%v", c.Name, k),
				"", "", "",
				"", "", "",
				fmt.Sprintf("full %s sampled %s", pct2(c.FullErr[k].Inst), pct2(c.SampledErr[k].Inst)))
		}
	}
	t.Notes = append(t.Notes,
		"CPI err: |estimated - full| / full total cycles (instruction counts are conserved).",
		"oracle drift: sampled-run Oracle profile vs full-run Oracle profile (instruction granularity).",
		"per-profiler rows: attribution error vs the full-run Oracle, full trace vs measurement windows only.")
	return t
}
