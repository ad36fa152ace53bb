package experiments

import (
	"context"
	"testing"

	tip "github.com/tipprof/tip"
)

// defaultSchedule is the default sampled schedule, resolved as tipbench
// resolves its flags.
func defaultSchedule(t *testing.T) tip.RunConfig {
	t.Helper()
	var rc tip.RunConfig
	if err := tip.ConfigureSampled(&rc, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestCompareSampledAccuracy runs the sampled-vs-full harness on two
// benchmarks at a reduced scale and checks the headline contract: the CPI
// estimate lands close to the full run, every profiler's sampled
// attribution error stays within a few points of its full-trace error, and
// the trace invariant checker holds inside the measurement windows.
func TestCompareSampledAccuracy(t *testing.T) {
	for _, name := range []string{"imagick", "mcf"} {
		opt := Options{
			Scale:         1_200_000,
			TargetSamples: 2048,
			Checked:       true,
		}
		c, err := CompareSampled(context.Background(), name, opt, defaultSchedule(t))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: full %d cyc (%.2f Mcyc/s), est %d cyc (%.2f eff Mcyc/s), CPI err %.4f, speedup %.2fx, fraction %.3f, windows %d",
			name, c.FullCycles, c.FullRate()/1e6, c.EstCycles, c.EffectiveRate()/1e6,
			c.CPIError, c.Speedup, c.DetailedFraction, c.Windows)
		t.Logf("%s: oracle drift inst %.4f block %.4f func %.4f",
			name, c.OracleDrift.Inst, c.OracleDrift.Block, c.OracleDrift.Func)
		for k, se := range c.SampledErr {
			t.Logf("%s: %v full %.4f sampled %.4f (inst)", name, k, c.FullErr[k].Inst, se.Inst)
		}
		if c.CPIError > 0.02 {
			t.Errorf("%s: CPI error %.4f exceeds 2%%", name, c.CPIError)
		}
		for k, se := range c.SampledErr {
			if se.Func > c.FullErr[k].Func+0.15 {
				t.Errorf("%s: %v sampled function error %.4f far above full-trace %.4f",
					name, k, se.Func, c.FullErr[k].Func)
			}
		}
	}
}

// TestSampledTableRenders smoke-tests the report renderer.
func TestSampledTableRenders(t *testing.T) {
	c, err := CompareSampled(context.Background(), "mcf", Options{
		Scale:         60_000,
		TargetSamples: 512,
	}, defaultSchedule(t))
	if err != nil {
		t.Fatal(err)
	}
	out := SampledTable([]*SampledCompare{c}).String()
	if len(out) == 0 {
		t.Fatal("empty table")
	}
	t.Log("\n" + out)
}
