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

// SampledOptions parameterises one sampled-vs-full accuracy comparison.
type SampledOptions struct {
	// Seed seeds workload interpretation (0 = 1).
	Seed uint64
	// Scale overrides the benchmark's dynamic-instruction budget
	// (0 = default full scale).
	Scale uint64
	// TargetSamples calibrates the sampling period (0 = 32768, matching
	// the suite evaluation's 4 kHz-equivalent regime).
	TargetSamples uint64
	// WindowCycles, WindowInterval and Warmup define the sampled schedule,
	// spelled as tip.ConfigureSampled takes it: zero geometry selects the
	// defaults, and Warmup is "" (default), "auto" or a cycle count.
	WindowCycles   uint64
	WindowInterval uint64
	Warmup         string
	// WindowWorkers runs the sampled schedule's detailed windows on up to
	// this many concurrent worker cores over a serial functional sweep
	// (0 = serial schedule; output is byte-identical at any count >= 1).
	WindowWorkers int
	// Checked attaches the cycle-level invariant checker to both runs.
	Checked bool
	// ReplayWorkers fans each run's profiler matrix over up to this many
	// goroutines (0 or 1 = sequential).
	ReplayWorkers int
}

// Default sampled-schedule geometry; see tip.DefaultSampledWindow.
const (
	DefaultSampledWindow   = tip.DefaultSampledWindow
	DefaultSampledInterval = tip.DefaultSampledInterval
	DefaultSampledWarmup   = tip.DefaultSampledWarmup
)

func (o *SampledOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TargetSamples == 0 {
		o.TargetSamples = 32768
	}
}

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
// under opt's sampled schedule — and reports the sampled run's speed and
// accuracy against the full run's ground truth. Both runs use the streaming
// pipeline and the same calibrated-interval regime, so the wall-clock ratio
// isolates what sampling buys.
func CompareSampled(ctx context.Context, name string, opt SampledOptions) (*SampledCompare, error) {
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
	src.WindowWorkers = opt.WindowWorkers
	if err := tip.ConfigureSampled(&src, opt.WindowCycles, opt.WindowInterval, opt.Warmup); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}

	fullStart := time.Now()
	full, err := tip.RunStreaming(ctx, w, rc)
	if err != nil {
		return nil, fmt.Errorf("experiments: full run %s: %w", name, err)
	}
	fullWall := time.Since(fullStart)

	sampledStart := time.Now()
	sampled, err := tip.RunSampled(ctx, w, src)
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
		EstCycles:     sampled.Stats.Cycles,
		SampledWall:   sampledWall,
		FullErr:       map[profiler.Kind]GranErrors{},
		SampledErr:    map[profiler.Kind]GranErrors{},
	}
	if sr := sampled.Sampling; sr != nil {
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
	for k, sp := range sampled.Sampled {
		c.SampledErr[k] = errsAgainst(sp.Profile)
	}
	c.OracleDrift = errsAgainst(sampled.Oracle.Profile)
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
