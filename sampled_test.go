package tip

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// TestValidateSampled exercises every window-geometry rejection and the two
// legal shapes (proper sub-window, and window == interval where warmup is
// ignored).
func TestValidateSampled(t *testing.T) {
	mk := func(wc, wi, warm uint64) RunConfig {
		rc := DefaultRunConfig()
		rc.Sampled = true
		rc.WindowCycles = wc
		rc.WindowInterval = wi
		rc.WarmupCycles = warm
		return rc
	}
	cases := []struct {
		name    string
		rc      RunConfig
		wantErr string
	}{
		{"zero window", mk(0, 4096, 0), "WindowCycles must be positive"},
		{"zero interval", mk(1024, 0, 0), "WindowInterval must be positive"},
		{"window exceeds interval", mk(8192, 4096, 0), "exceeds WindowInterval"},
		{"warmup overflows interval", mk(1024, 4096, 3073), "exceed WindowInterval"},
		{"ok", mk(1024, 4096, 512), ""},
		{"full fraction ignores warmup", mk(4096, 4096, 1<<40), ""},
	}
	for _, tc := range cases {
		err := ValidateSampled(tc.rc)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunSampledFullFractionIdentity is the degenerate-case pin: with
// WindowCycles == WindowInterval the sampled path must be bit-identical to
// full simulation at every layer — the encoded trace records, the profiler
// matrix, and the core statistics.
func TestRunSampledFullFractionIdentity(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.SampleInterval = 1009 // pin the interval so captured/streaming/sampled calibrate nothing
	rc.Check = true
	rc.WithBreakdown = true

	refCapt, refStats, err := CaptureWorkload(w, rc.Core)
	if err != nil {
		t.Fatal(err)
	}
	defer refCapt.Close()
	ref, err := RunCaptured(context.Background(), w, refCapt, refStats, rc)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := RunStreaming(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}

	src := rc
	src.Sampled = true
	src.WindowCycles = 4096
	src.WindowInterval = 4096
	src.WarmupCycles = 2048 // must be ignored at full fraction
	gotCapt := trace.NewCapture()
	defer gotCapt.Close()
	src.ExtraConsumers = []trace.Consumer{gotCapt}
	got, err := RunSampled(context.Background(), w, src)
	if err != nil {
		t.Fatal(err)
	}

	assertResultsIdentical(t, "sampled-vs-captured", ref, got)
	assertResultsIdentical(t, "sampled-vs-streaming", stream, got)
	if got.Stats != refStats {
		t.Fatalf("sampled stats %+v, want %+v", got.Stats, refStats)
	}
	sr := got.Sampling
	if sr == nil {
		t.Fatal("sampled run published no Sampling stats")
	}
	if sr.FFInstructions != 0 || sr.FFRepresentedCycles != 0 || sr.WarmupCyclesRun != 0 {
		t.Fatalf("full-fraction run fast-forwarded: %+v", sr)
	}
	if sr.DetailedFraction() != 1 {
		t.Fatalf("full-fraction run reports fraction %v", sr.DetailedFraction())
	}
	if sr.EstimatedCycles != refStats.Cycles || sr.MeasuredCycles != refStats.Cycles {
		t.Fatalf("full-fraction cycles: estimated %d measured %d, want %d",
			sr.EstimatedCycles, sr.MeasuredCycles, refStats.Cycles)
	}

	// Trace layer: the teed capture's encoded bytes must equal the
	// reference capture's, record for record.
	if gotCapt.Records() != refCapt.Records() || gotCapt.Cycles() != refCapt.Cycles() {
		t.Fatalf("capture shape: %d records/%d cycles, want %d/%d",
			gotCapt.Records(), gotCapt.Cycles(), refCapt.Records(), refCapt.Cycles())
	}
	var refBuf, gotBuf bytes.Buffer
	if _, err := refCapt.WriteTo(&refBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := gotCapt.WriteTo(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatal("full-fraction sampled trace bytes differ from full simulation")
	}
}

// TestRunSampledFullFractionCalibrationParity pins the pilot-calibration
// path: at full fraction the sampled run's measured stream equals the full
// trace, so its pilot estimate — and therefore its calibrated interval and
// every profile — must match RunStreaming's exactly.
func TestRunSampledFullFractionCalibrationParity(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Check = true
	stream, err := RunStreaming(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	src := rc
	src.Sampled = true
	src.WindowCycles = 4096
	src.WindowInterval = 4096
	got, err := RunSampled(context.Background(), w, src)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "calibrated full fraction", stream, got)
	if got.Stats != stream.Stats {
		t.Fatalf("sampled stats %+v, want %+v", got.Stats, stream.Stats)
	}
}

// TestRunSampledConvergence is the metamorphic accuracy check: as the
// detailed window fraction grows toward 1, the stitched cycle estimate's
// error against the full run must not get worse, and at fraction 1 it must
// be exactly zero. Instruction conservation (detailed commits plus
// fast-forwarded instructions equal the full run's commits) holds at every
// fraction.
func TestRunSampledConvergence(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MeasureStats(w, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}

	const interval = 1 << 13
	prevErr := 2.0 // anything real is below this
	for _, div := range []uint64{8, 4, 2, 1} {
		rc := DefaultRunConfig()
		rc.Sampled = true
		rc.Check = true
		rc.WindowInterval = interval
		rc.WindowCycles = interval / div
		if div > 1 {
			rc.WarmupCycles = 1 << 10
		}
		res, err := RunSampled(context.Background(), w, rc)
		if err != nil {
			t.Fatalf("1/%d: %v", div, err)
		}
		est := res.Stats.Cycles
		cpiErr := absFrac(est, full.Cycles)
		t.Logf("fraction 1/%d: est %d cycles vs full %d (err %.4f, windows %d, ff %d insts)",
			div, est, full.Cycles, cpiErr, res.Sampling.Windows, res.Sampling.FFInstructions)
		if res.Stats.Committed != full.Committed {
			t.Fatalf("1/%d: committed %d (detailed+ff), full run %d",
				div, res.Stats.Committed, full.Committed)
		}
		if cpiErr > prevErr+1e-9 {
			t.Fatalf("1/%d: error %.4f worse than the smaller fraction's %.4f", div, cpiErr, prevErr)
		}
		prevErr = cpiErr
	}
	if prevErr != 0 {
		t.Fatalf("fraction 1 error %.6f, want exactly 0", prevErr)
	}
}

// absFrac returns |a-b|/b.
func absFrac(a, b uint64) float64 {
	if a > b {
		return float64(a-b) / float64(b)
	}
	return float64(b-a) / float64(b)
}

// TestRunSampledReplayWorkersIdentity pins shard-count independence for the
// sampled path: the same sampled run replayed over 1 and 4 workers must
// produce deeply equal profiler state and identical schedules.
func TestRunSampledReplayWorkersIdentity(t *testing.T) {
	w, err := workload.LoadScaled("x264", 1, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Result
	for _, workers := range []int{1, 4} {
		rc := DefaultRunConfig()
		rc.Sampled = true
		rc.WindowCycles = 1 << 11
		rc.WindowInterval = 1 << 13
		rc.WarmupCycles = 1 << 9
		rc.Check = true
		rc.ReplayWorkers = workers
		res, err := RunSampled(context.Background(), w, rc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		assertResultsIdentical(t, fmt.Sprintf("workers=%d", workers), ref, res)
		if ref.Stats != res.Stats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, res.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(ref.Sampling, res.Sampling) {
			t.Fatalf("workers=%d: sampling %+v, want %+v", workers, res.Sampling, ref.Sampling)
		}
	}
}

// TestRunSampledRejectsBadGeometry checks RunSampled surfaces validation
// errors before simulating anything.
func TestRunSampledRejectsBadGeometry(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Sampled = true
	rc.WindowCycles = 0
	rc.WindowInterval = 4096
	if _, err := RunSampled(context.Background(), w, rc); err == nil ||
		!strings.Contains(err.Error(), "WindowCycles must be positive") {
		t.Fatalf("error %v, want WindowCycles rejection", err)
	}
}

// TestRunDispatchesSampled checks the Run front door honors rc.Sampled.
func TestRunDispatchesSampled(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Sampled = true
	rc.WindowCycles = 1 << 11
	rc.WindowInterval = 1 << 13
	res, err := Run(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil {
		t.Fatal("Run with rc.Sampled returned no Sampling stats")
	}
	if res.Sampling.FFInstructions == 0 {
		t.Fatal("sampled run fast-forwarded nothing; window geometry too lax for this workload")
	}
}

// TestRunSampledMaxCyclesNamesBenchmarkOnce runs both sampled producers into
// Core.MaxCycles, in window 0 and past it, and checks the error names the
// workload exactly once.
func TestRunSampledMaxCyclesNamesBenchmarkOnce(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1} {
		for _, maxCycles := range []uint64{100, 30_000} {
			rc := DefaultRunConfig()
			rc.Profilers = []Kind{KindTIP}
			rc.SampleInterval = 1009
			if err := ConfigureSampled(&rc, 1024, 8192, "1024"); err != nil {
				t.Fatal(err)
			}
			rc.WindowWorkers = workers
			rc.Core.MaxCycles = maxCycles
			_, err := RunSampled(context.Background(), w, rc)
			prefix := fmt.Sprintf("tip: mcf: cpu: exceeded MaxCycles=%d (committed ", maxCycles)
			if err == nil || !strings.HasPrefix(err.Error(), prefix) || strings.Count(err.Error(), "mcf") != 1 {
				t.Errorf("workers=%d MaxCycles=%d: error %v, want prefix %q naming mcf once",
					workers, maxCycles, err, prefix)
			}
		}
	}
}

// legRecords collects what runLeg hands to emit.
type legRecords struct {
	recs   []trace.Record
	repeat []bool
}

func (l *legRecords) emit(r *trace.Record, repeat bool) {
	l.recs = append(l.recs, *r)
	l.repeat = append(l.repeat, repeat)
}

// stepRecords collects a full run's records and marks the cycles the core
// skipped, which RunContext delivers through OnRepeat.
type stepRecords struct {
	recs    []trace.Record
	skipped []bool
}

func (s *stepRecords) OnCycle(r *trace.Record) {
	s.recs = append(s.recs, *r)
	s.skipped = append(s.skipped, false)
}

func (s *stepRecords) OnRepeat(r *trace.Record, n uint64) {
	for c := r.Cycle - n + 1; c <= r.Cycle; c++ {
		s.recs = append(s.recs, *r)
		s.recs[len(s.recs)-1].Cycle = c
		s.skipped = append(s.skipped, true)
	}
}

func (s *stepRecords) Finish(uint64) {}

// TestRunLeg drives the detailed-leg engine directly against a full run of
// the same workload: records and commit counts must split exactly at the
// warmup boundary, the program's end must stop the leg wherever it falls,
// the MaxCycles bound and cancellation poll must fire before the cycle
// they guard is stepped, and a record must be flagged as a repeat exactly
// when the core skipped its cycle and the cycle before it was a window
// cycle of the same leg.
func TestRunLeg(t *testing.T) {
	load := func() *cpu.Core {
		w, err := workload.LoadScaled("mcf", 1, 3_000)
		if err != nil {
			t.Fatal(err)
		}
		return newCore(DefaultCoreConfig(), w)
	}
	var full stepRecords
	fullStats, err := load().RunContext(context.Background(), &full)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(len(full.recs)) // cycles the program takes, drain included
	if total < 1000 {
		t.Fatalf("full run took %d cycles; the cases need a longer program", total)
	}
	committedBy := func(cycles uint64) uint64 {
		var n uint64
		for _, r := range full.recs[:cycles] {
			n += uint64(r.CommitCount)
		}
		return n
	}
	// skippedFrom is the first cycle at or after c that the core skips.
	skippedFrom := func(from uint64) uint64 {
		for c := from; c < total; c++ {
			if full.skipped[c] {
				return c
			}
		}
		t.Fatalf("the core skips no cycle at or after %d", from)
		return 0
	}
	lastCommit := int64(fullStats.Cycles - 1)
	ctx := context.Background()

	// checkRepeats checks the repeat flags of recs, whose record i is the
	// full run's cycle src(i) and whose legs open at the indices in
	// starts.
	checkRepeats := func(label string, recs legRecords, src func(i int) uint64, starts ...int) {
		t.Helper()
		flagged := 0
		for i, repeat := range recs.repeat {
			want := full.skipped[src(i)] && !slices.Contains(starts, i)
			if repeat != want {
				t.Errorf("%s: record %d (cycle %d) flagged %v, want %v", label, i, src(i), repeat, want)
				return
			}
			if !repeat {
				continue
			}
			flagged++
			prev, cur := recs.recs[i-1], recs.recs[i]
			prev.Cycle = cur.Cycle
			if cur != prev {
				t.Errorf("%s: flagged record %d differs from the one before it", label, i)
				return
			}
		}
		if flagged == 0 {
			t.Errorf("%s: no record flagged", label)
		}
	}

	type want struct {
		warmSteps, winSteps uint64
		done                bool
		err                 string
	}
	stall := skippedFrom(200)
	cases := []struct {
		name                  string
		warmup, window, limit uint64
		want                  want
	}{
		{"warmup 0", 0, 300, 0, want{0, 300, false, ""}},
		{"warmup then window", 200, 300, 0, want{200, 300, false, ""}},
		{"warmup ends inside a stall", stall, 300, 0, want{stall, 300, false, ""}},
		{"ends inside window", 200, total, 0, want{200, total - 200, true, ""}},
		{"ends inside warmup", total + 50, 300, 0, want{total, 0, true, ""}},
		{"ends on last warmup cycle", total, 300, 0, want{total, 0, true, ""}},
		{"MaxCycles in warmup", 200, 300, 150, want{150, 0, false, "cpu: exceeded MaxCycles=150 (committed "}},
		{"MaxCycles in window", 200, 300, 420, want{200, 220, false, "cpu: exceeded MaxCycles=420 (committed "}},
	}
	for _, tc := range cases {
		var recs legRecords
		var rec trace.Record
		leg, err := runLeg(ctx, load(), &rec, 0, tc.warmup, tc.window, tc.limit, recs.emit)
		got := want{leg.warmSteps, leg.winSteps, leg.done, ""}
		if err != nil {
			got.err = err.Error()
			if tc.want.err != "" && strings.HasPrefix(got.err, tc.want.err) {
				got.err = tc.want.err
			}
		}
		if got != tc.want {
			t.Errorf("%s: got %+v (err %v), want %+v", tc.name, got, err, tc.want)
			continue
		}
		if uint64(len(recs.recs)) != leg.winSteps {
			t.Errorf("%s: emitted %d records for %d window cycles", tc.name, len(recs.recs), leg.winSteps)
		}
		for i := range recs.recs {
			if recs.recs[i] != full.recs[leg.warmSteps+uint64(i)] {
				t.Errorf("%s: window record %d differs from the full run's cycle %d", tc.name, i, leg.warmSteps+uint64(i))
				break
			}
		}
		if leg.winSteps > 0 {
			checkRepeats(tc.name, recs, func(i int) uint64 { return leg.warmSteps + uint64(i) }, 0)
		}
		if err != nil {
			continue
		}
		stepped := leg.warmSteps + leg.winSteps
		if leg.warmCom != committedBy(leg.warmSteps) || leg.warmCom+leg.winCom != committedBy(stepped) {
			t.Errorf("%s: committed %d+%d, want %d+%d", tc.name, leg.warmCom, leg.winCom,
				committedBy(leg.warmSteps), committedBy(stepped)-committedBy(leg.warmSteps))
		}
		if leg.done && leg.lastCommit != lastCommit {
			t.Errorf("%s: last commit at leg cycle %d, want %d", tc.name, leg.lastCommit, lastCommit)
		}
	}

	// A continued core runs back-to-back legs as one: the second leg
	// starts at the first's end, on the same record. Its first cycle is
	// never flagged, even where the core skips it.
	for _, b2b := range []struct{ first, warmup uint64 }{{700, 100}, {skippedFrom(700), 0}} {
		label := fmt.Sprintf("back-to-back legs %d+%d", b2b.first, b2b.warmup)
		core := load()
		var recs legRecords
		var rec trace.Record
		first, err := runLeg(ctx, core, &rec, 0, 0, b2b.first, 0, recs.emit)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runLeg(ctx, core, &rec, first.winSteps, b2b.warmup, 200, 0, recs.emit)
		if err != nil {
			t.Fatal(err)
		}
		end := b2b.first + b2b.warmup + 200
		wantLast := int64(-1)
		for c := b2b.first; c < end; c++ {
			if full.recs[c].CommitCount > 0 {
				wantLast = int64(c - b2b.first)
			}
		}
		if second.lastCommit != wantLast || uint64(len(recs.recs)) != b2b.first+200 {
			t.Fatalf("%s: %d records, second leg's last commit %d, want %d and %d",
				label, len(recs.recs), second.lastCommit, b2b.first+200, wantLast)
		}
		src := func(i int) uint64 {
			if c := uint64(i); c < b2b.first {
				return c
			}
			return uint64(i) + b2b.warmup // the second leg's warmup is not emitted
		}
		for i := range recs.recs {
			if recs.recs[i] != full.recs[src(i)] {
				t.Fatalf("%s: record %d differs from the full run's cycle %d", label, i, src(i))
			}
		}
		checkRepeats(label, recs, src, 0, int(b2b.first))
	}

	// A cancelled context stops the leg before its first cycle is stepped.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	var recs legRecords
	var rec trace.Record
	leg, err := runLeg(cctx, load(), &rec, 0, 10, 10, 0, recs.emit)
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "cpu: run aborted at cycle 0: ") {
		t.Fatalf("cancelled leg: error %v, want an abort at cycle 0 wrapping context.Canceled", err)
	}
	if leg.warmSteps != 0 || leg.winSteps != 0 || len(recs.recs) != 0 {
		t.Fatalf("cancelled leg stepped %d+%d cycles, emitted %d records", leg.warmSteps, leg.winSteps, len(recs.recs))
	}
}
