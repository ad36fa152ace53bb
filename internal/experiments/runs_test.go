package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// perCycle hides a consumer's OnRepeat, so a replay hands it every record
// through OnCycle.
type perCycle struct{ trace.Consumer }

// replayPerCycle replays capt into a Dispatcher over oracle, every-cycle
// extras and sampled, delivering one record at a time: the reference the
// run delivery is held to.
func replayPerCycle(t *testing.T, capt *tip.TraceCapture, oracle *profiler.Oracle, every []trace.Consumer, sampled []*profiler.Sampled) {
	t.Helper()
	d := profiler.NewDispatcher()
	d.AddEveryCycle(oracle)
	for _, c := range every {
		d.AddEveryCycle(c)
	}
	for _, sp := range sampled {
		d.AddSampled(sp)
	}
	if _, _, err := capt.Replay(perCycle{d}); err != nil {
		t.Fatal(err)
	}
}

// bitsEqual reports whether two float slices hold the same bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffOracle reports the first difference between two Oracles.
func diffOracle(want, got *profiler.Oracle) error {
	switch {
	case !bitsEqual(got.Profile.InstCycles, want.Profile.InstCycles) || got.Profile.TotalCycles != want.Profile.TotalCycles:
		return fmt.Errorf("Oracle profile differs")
	case !bitsEqual(got.Stack.Cycles[:], want.Stack.Cycles[:]) || got.Stack.Total != want.Stack.Total:
		return fmt.Errorf("Oracle stack %v, want %v", got.Stack, want.Stack)
	case len(got.Breakdown) != len(want.Breakdown):
		return fmt.Errorf("Oracle breakdown of %d instructions, want %d", len(got.Breakdown), len(want.Breakdown))
	}
	for i := range want.Breakdown {
		if !bitsEqual(got.Breakdown[i], want.Breakdown[i]) {
			return fmt.Errorf("Oracle breakdown of instruction %d differs", i)
		}
	}
	return nil
}

// diffSampled reports the first difference between two sampled profilers.
func diffSampled(want, got *profiler.Sampled) error {
	switch {
	case got.Samples != want.Samples:
		return fmt.Errorf("%v: Samples %d, want %d", want.Kind, got.Samples, want.Samples)
	case math.Float64bits(got.SampledWeight) != math.Float64bits(want.SampledWeight):
		return fmt.Errorf("%v: SampledWeight %v, want %v", want.Kind, got.SampledWeight, want.SampledWeight)
	case math.Float64bits(got.LostWeight) != math.Float64bits(want.LostWeight):
		return fmt.Errorf("%v: LostWeight %v, want %v", want.Kind, got.LostWeight, want.LostWeight)
	case !bitsEqual(got.Profile.InstCycles, want.Profile.InstCycles):
		return fmt.Errorf("%v: profile differs", want.Kind)
	case !reflect.DeepEqual(got.Categories, want.Categories):
		return fmt.Errorf("%v: TIP categories differ", want.Kind)
	}
	return nil
}

// runRoute is one way to run a profiled evaluation: from the capture or
// streamed from a fresh simulation.
type runRoute struct {
	name string
	run  func(ctx context.Context, w *tip.Workload, rc tip.RunConfig) (*tip.Result, error)
}

func runRoutes(capt *tip.TraceCapture, stats tip.CoreStats) []runRoute {
	return []runRoute{
		{"captured", func(ctx context.Context, w *tip.Workload, rc tip.RunConfig) (*tip.Result, error) {
			return tip.RunCaptured(ctx, w, capt, stats, rc)
		}},
		{"streamed", tip.RunStreaming},
	}
}

// TestRunsMatchPerCycleDelivery holds replay's run delivery to per-cycle
// delivery over every benchmark, seeds 1 and 2, at scale 20 000, and over
// imagick at scale 150 000, whose streamed runs go past the pilot capture
// into the Stream ring. The 33-profiler evaluation matrix and tipd's
// TIP+NCI matrix run captured and streamed, with 1 and 4 replay workers and
// with the invariant checker on and off; each result must equal, bit for
// bit, a fresh matrix at the same interval fed the capture one record at a
// time: every profile, Oracle stack and breakdown, Samples, SampledWeight,
// LostWeight and TIP categories. A capture teed into the run must write the
// capture's bytes. The cases run in parallel, up to GOMAXPROCS at a time.
func TestRunsMatchPerCycleDelivery(t *testing.T) {
	type runCase struct {
		name        string
		seed, scale uint64
	}
	cases := []runCase{{"imagick", 1, 150_000}}
	for _, name := range workload.Names() {
		cases = append(cases, runCase{name, 1, 20_000}, runCase{name, 2, 20_000})
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/seed%d/scale%d", tc.name, tc.seed, tc.scale), func(t *testing.T) {
			t.Parallel()
			w, err := workload.LoadScaled(tc.name, tc.seed, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			capt, stats, err := tip.CaptureWorkload(w, tip.DefaultCoreConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer capt.Close()
			if tc.scale > 20_000 && stats.Cycles <= tip.DefaultPilotCycles {
				t.Fatalf("%d cycles end inside the %d-cycle pilot window", stats.Cycles, tip.DefaultPilotCycles)
			}
			var enc bytes.Buffer
			if _, err := capt.WriteTo(&enc); err != nil {
				t.Fatal(err)
			}
			refs := &references{w: w, capt: capt, opt: Options{Seed: tc.seed, Scale: tc.scale}, eval: map[[2]uint64]reference{}, fleet: map[uint64]reference{}}
			refs.opt.fill()
			for _, route := range runRoutes(capt, stats) {
				for _, workers := range []int{1, 4} {
					for _, checked := range []bool{false, true} {
						at := fmt.Sprintf("%s, %d workers, check %v", route.name, workers, checked)
						checkEvalMatrixRuns(t, at, route, refs, workers, checked)
						checkFleetMatrixRuns(t, at, route, refs, enc.Bytes(), workers, checked)
					}
				}
			}
		})
	}
}

// reference is a matrix fed the capture one record at a time.
type reference struct {
	oracle  *profiler.Oracle
	sampled []*profiler.Sampled
}

// references builds each per-cycle reference of one capture once: the
// runs of a case mostly share their interval.
type references struct {
	w     *tip.Workload
	capt  *tip.TraceCapture
	opt   Options
	eval  map[[2]uint64]reference // by interval and cycle estimate
	fleet map[uint64]reference    // by interval
}

// evalRef is the evaluation matrix at interval, with its raw tier
// calibrated from estCycles.
func (rs *references) evalRef(t *testing.T, interval, estCycles uint64) reference {
	key := [2]uint64{interval, estCycles}
	if ref, ok := rs.eval[key]; ok {
		return ref
	}
	m := buildEvalMatrix(rs.w.Name, rs.w, tip.DefaultCoreConfig(), rs.opt, interval, rawIntervalFor(estCycles, rs.opt.TargetSamples))
	ref := reference{oracle: profiler.NewOracle(rs.w.Prog, false)}
	for _, c := range m.consumers {
		ref.sampled = append(ref.sampled, c.(*profiler.Sampled))
	}
	replayPerCycle(t, rs.capt, ref.oracle, nil, ref.sampled)
	rs.eval[key] = ref
	return ref
}

// fleetRef is the TIP+NCI matrix of rc at interval.
func (rs *references) fleetRef(t *testing.T, rc tip.RunConfig, interval uint64) reference {
	if ref, ok := rs.fleet[interval]; ok {
		return ref
	}
	ref := reference{oracle: profiler.NewOracle(rs.w.Prog, rc.WithBreakdown)}
	for _, k := range rc.Profilers {
		sp := profiler.NewSampled(k, rs.w.Prog, sampling.NewPeriodic(interval))
		if k == profiler.KindTIP {
			sp.EnableCategories(rc.WithBreakdown)
		}
		ref.sampled = append(ref.sampled, sp)
	}
	replayPerCycle(t, rs.capt, ref.oracle, nil, ref.sampled)
	rs.fleet[interval] = ref
	return ref
}

// checkEvalMatrixRuns runs the evaluation matrix on route and compares it
// with a per-cycle replay of a matrix built at the interval the run used.
func checkEvalMatrixRuns(t *testing.T, at string, route runRoute, refs *references, workers int, checked bool) {
	t.Helper()
	opt := refs.opt
	opt.Checked = checked
	core := tip.DefaultCoreConfig()
	w := refs.w
	var m *evalMatrix
	var interval, estCycles uint64
	res, err := route.run(context.Background(), w, tip.RunConfig{
		Core:          core,
		Profilers:     []profiler.Kind{},
		TargetSamples: opt.TargetSamples,
		ReplayWorkers: workers,
		ExtraConsumersAt: func(iv, est uint64) []trace.Consumer {
			interval, estCycles = iv, est
			m = buildEvalMatrix(w.Name, w, core, opt, iv, rawIntervalFor(est, opt.TargetSamples))
			return m.consumers
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if m.checker != nil {
		m.checker.AuditOracle("Oracle", res.Oracle)
		if err := m.checker.Err(); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
	}
	ref := refs.evalRef(t, interval, estCycles)
	if err := diffOracle(ref.oracle, res.Oracle); err != nil {
		t.Fatalf("%s, evaluation matrix: %v", at, err)
	}
	if len(ref.sampled) != 33 {
		t.Fatalf("evaluation matrix of %d sampled profilers, want 33", len(ref.sampled))
	}
	for i, sp := range ref.sampled {
		if err := diffSampled(sp, m.consumers[i].(*profiler.Sampled)); err != nil {
			t.Fatalf("%s, evaluation matrix profiler %d: %v", at, i, err)
		}
	}
}

// checkFleetMatrixRuns runs tipd's TIP+NCI matrix on route with a capture
// teed in, as a cold tipd job does, and compares it with a per-cycle
// replay; the teed capture must hold the capture's bytes.
func checkFleetMatrixRuns(t *testing.T, at string, route runRoute, refs *references, enc []byte, workers int, checked bool) {
	t.Helper()
	tee := trace.NewCapture()
	defer tee.Close()
	rc := tip.DefaultRunConfig()
	rc.Profilers = []profiler.Kind{profiler.KindTIP, profiler.KindNCI}
	rc.ReplayWorkers = workers
	rc.Check = checked
	rc.ExtraConsumers = []trace.Consumer{tee}
	res, err := route.run(context.Background(), refs.w, rc)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	var teed bytes.Buffer
	if _, err := tee.WriteTo(&teed); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if !bytes.Equal(teed.Bytes(), enc) {
		t.Fatalf("%s: the teed capture wrote %d bytes unlike the capture's %d", at, teed.Len(), len(enc))
	}
	ref := refs.fleetRef(t, rc, res.SampleInterval)
	if err := diffOracle(ref.oracle, res.Oracle); err != nil {
		t.Fatalf("%s, TIP+NCI matrix: %v", at, err)
	}
	for i, k := range rc.Profilers {
		if err := diffSampled(ref.sampled[i], res.Sampled[k]); err != nil {
			t.Fatalf("%s, TIP+NCI matrix: %v", at, err)
		}
	}
}
