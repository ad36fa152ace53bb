package experiments

import (
	"testing"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// recordSlice collects a decoded trace so a benchmark can time delivery
// without the decoder.
type recordSlice struct{ recs []trace.Record }

func (c *recordSlice) OnCycle(r *trace.Record) { c.recs = append(c.recs, *r) }
func (c *recordSlice) Finish(uint64)           {}

// BenchmarkDispatcherMatrix measures one Dispatcher carrying the suite's
// full evaluation matrix — buildEvalMatrix's 33 sampled profilers over
// seven schedules plus the Oracle — over one benchmark's decoded trace,
// with the suite's default TargetSamples. It reports the dispatch cost per
// record, decode excluded.
func BenchmarkDispatcherMatrix(b *testing.B) {
	const name = "imagick"
	opt := Options{Scale: 50_000}
	opt.fill()
	w, err := workload.LoadScaled(name, opt.Seed, opt.Scale)
	if err != nil {
		b.Fatal(err)
	}
	core := tip.DefaultRunConfig().Core
	capt, stats, err := tip.CaptureWorkload(w, core)
	if err != nil {
		b.Fatal(err)
	}
	var all recordSlice
	_, _, err = capt.Replay(&all)
	capt.Close()
	if err != nil {
		b.Fatal(err)
	}
	interval4k := tip.CalibrateInterval(stats.Cycles, opt.TargetSamples)
	rawInterval := rawIntervalFor(stats.Cycles, opt.TargetSamples)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := buildEvalMatrix(name, w, core, opt, interval4k, rawInterval)
		d := profiler.NewDispatcher()
		d.AddEveryCycle(profiler.NewOracle(w.Prog, true))
		for _, c := range m.consumers {
			d.AddSampled(c.(*profiler.Sampled))
		}
		b.StartTimer()
		for j := range all.recs {
			d.OnCycle(&all.recs[j])
		}
		d.Finish(stats.Cycles)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(all.recs)), "ns/record")
}
