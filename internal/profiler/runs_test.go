package profiler

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
)

// repeats reports whether b repeats a one cycle later.
func repeats(a, b *trace.Record) bool {
	next := *a
	next.Cycle++
	return *b == next
}

// deliverRuns feeds recs to c, as a replay shard does: every stretch of
// records that repeat the one before them goes through OnRepeat, in runs
// whose lengths split draws from the repeats left in the stretch.
func deliverRuns(c trace.Repeater, recs []trace.Record, split func(left uint64) uint64) {
	for i := 0; i < len(recs); {
		c.OnCycle(&recs[i])
		j := i + 1
		for j < len(recs) && repeats(&recs[j-1], &recs[j]) {
			j++
		}
		for left := uint64(j - i - 1); left > 0; {
			n := max(1, min(split(left), left))
			left -= n
			c.OnRepeat(&recs[j-1-int(left)], n)
		}
		i = j
	}
	c.Finish(uint64(len(recs)))
}

// deliverEach feeds every record through OnCycle.
func deliverEach(c trace.Consumer, recs []trace.Record) {
	for i := range recs {
		c.OnCycle(&recs[i])
	}
	c.Finish(uint64(len(recs)))
}

// randomSplit draws run lengths from a generator seeded with seed.
func randomSplit(seed uint64) func(uint64) uint64 {
	return func(left uint64) uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		if seed>>62 == 0 {
			return left // a quarter of the runs are whole stretches
		}
		return 1 + (seed>>33)%left
	}
}

// runMatrix is one dispatcher with an every-cycle tier of an Oracle, a
// plain record collector and a capture, and a sampled tier, plus a
// standalone Oracle fed the same stream.
type runMatrix struct {
	d       *Dispatcher
	oracle  *Oracle
	alone   *Oracle
	coll    *recordCollector
	capt    *trace.Capture
	sampled []*Sampled
}

func newRunMatrix(p *program.Program, kinds []Kind, scheds []func() sampling.Schedule) *runMatrix {
	m := &runMatrix{
		d:      NewDispatcher(),
		oracle: NewOracle(p, true),
		alone:  NewOracle(p, true),
		coll:   &recordCollector{},
		capt:   trace.NewCapture(),
	}
	m.d.AddEveryCycle(m.oracle)
	m.d.AddEveryCycle(m.coll)
	m.d.AddEveryCycle(m.capt)
	for _, mk := range scheds {
		for _, k := range kinds {
			sp := NewSampled(k, p, mk())
			if k == KindTIP || k == KindTIPILP {
				sp.EnableCategories(true)
			}
			m.d.AddSampled(sp)
			m.sampled = append(m.sampled, sp)
		}
	}
	return m
}

// sameBits reports whether two float slices hold the same bits.
func sameBits(a, b []float64) bool {
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

// sameOracle reports the first difference between two Oracles' results.
func sameOracle(want, got *Oracle) error {
	if !sameBits(got.Profile.InstCycles, want.Profile.InstCycles) {
		return fmt.Errorf("profile differs")
	}
	if !sameBits(got.Stack.Cycles[:], want.Stack.Cycles[:]) || got.Stack.Total != want.Stack.Total {
		return fmt.Errorf("stack %v, want %v", got.Stack, want.Stack)
	}
	for i := range want.Breakdown {
		if !sameBits(got.Breakdown[i], want.Breakdown[i]) {
			return fmt.Errorf("breakdown of instruction %d differs", i)
		}
	}
	return nil
}

// sameSampledBits is sameResult with the floats compared bit for bit.
func sameSampledBits(want, got *Sampled) error {
	switch {
	case got.Samples != want.Samples:
		return fmt.Errorf("Samples %d, want %d", got.Samples, want.Samples)
	case math.Float64bits(got.SampledWeight) != math.Float64bits(want.SampledWeight):
		return fmt.Errorf("SampledWeight %v, want %v", got.SampledWeight, want.SampledWeight)
	case math.Float64bits(got.LostWeight) != math.Float64bits(want.LostWeight):
		return fmt.Errorf("LostWeight %v, want %v", got.LostWeight, want.LostWeight)
	case !sameBits(got.Profile.InstCycles, want.Profile.InstCycles):
		return fmt.Errorf("InstCycles differ")
	case !reflect.DeepEqual(got.Categories, want.Categories):
		return fmt.Errorf("Categories differ")
	}
	return nil
}

// checkRuns delivers recs once cycle by cycle and once in runs drawn with
// seed, and requires bit-identical results: every sampled profiler, the
// attached and the standalone Oracle (and the attached one must match the
// standalone one, so sharing the dispatcher's OIR changes nothing), the
// records the plain collector saw and the capture's bytes.
func checkRuns(t *testing.T, p *program.Program, recs []trace.Record, kinds []Kind, scheds []func() sampling.Schedule, seed uint64) {
	t.Helper()
	want := newRunMatrix(p, kinds, scheds)
	deliverEach(want.d, recs)
	deliverEach(want.alone, recs)
	got := newRunMatrix(p, kinds, scheds)
	deliverRuns(got.d, recs, randomSplit(seed))
	deliverRuns(got.alone, recs, randomSplit(seed))
	for name, pair := range map[string][2]*Oracle{
		"attached Oracle":               {want.oracle, got.oracle},
		"standalone Oracle":             {want.alone, got.alone},
		"attached Oracle vs standalone": {want.alone, want.oracle},
	} {
		if err := sameOracle(pair[0], pair[1]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for i := range want.sampled {
		if err := sameSampledBits(want.sampled[i], got.sampled[i]); err != nil {
			t.Fatalf("profiler %d (%v): %v", i, want.sampled[i].Kind, err)
		}
	}
	if !reflect.DeepEqual(got.coll.recs, want.coll.recs) {
		t.Fatalf("the plain consumer saw %d records, want %d, or other ones", len(got.coll.recs), len(want.coll.recs))
	}
	var a, b bytes.Buffer
	if _, err := want.capt.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := got.capt.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("the capture took %d bytes from runs, %d cycle by cycle", b.Len(), a.Len())
	}
}

// runStream expands a synthetic stream: record i of synthRecords(data) is
// held for 1+reps[i%len(reps)] cycles, so stalls, drains and flush shadows,
// and committing cycles too, repeat for whole runs.
func runStream(p *program.Program, data, reps []byte) []trace.Record {
	var out []trace.Record
	for i, r := range synthRecords(p, data) {
		n := 1
		if len(reps) > 0 {
			n += int(reps[i%len(reps)])
		}
		for ; n > 0; n-- {
			r.Cycle = uint64(len(out))
			out = append(out, r)
		}
	}
	return out
}

// TestDispatcherRunsMatchPerCycle checks run delivery against per-cycle
// delivery over real captures of a Compute, a Flush and a Stall benchmark
// and a synthetic stream with long runs, for every kind on the identity
// test's schedule cases, including schedules that saturate.
func TestDispatcherRunsMatchPerCycle(t *testing.T) {
	p := fig4Program(t)
	streams := []identityStream{
		captureStream(t, "x264", "Compute"),
		captureStream(t, "imagick", "Flush"),
		captureStream(t, "mcf", "Stall"),
		{name: "synthetic", prog: p, recs: runStream(p, []byte{0, 1, 5, 0x84, 2, 0x11, 0x21, 0x41, 0, 3, 0x0d, 2}, []byte{40, 0, 7, 200, 1})},
	}
	for _, st := range streams {
		for _, sc := range scheduleCases() {
			t.Run(st.name+"/"+sc.name, func(t *testing.T) { checkRuns(t, st.prog, st.recs, AllKinds(), sc.scheds, 1) })
		}
		t.Run(st.name+"/saturating", func(t *testing.T) {
			checkRuns(t, st.prog, endAtMax(st).recs, AllKinds(), []func() sampling.Schedule{periodic(5), periodic(16), random(9, 3)}, 2)
		})
	}
}

// FuzzDispatcherRuns delivers random record streams with repeat runs to a
// dispatcher of random profiler kinds on periodic and random schedules,
// once in runs of random length and once cycle by cycle: every profile,
// Oracle stack and breakdown, the records a plain consumer sees and a
// capture's bytes must be bit-identical.
func FuzzDispatcherRuns(f *testing.F) {
	f.Add([]byte{1, 5, 13, 0, 0, 0, 2, 130, 99, 7, 255, 64, 65, 3}, []byte{3, 0, 40}, uint8(0), uint8(3), uint8(7), uint64(1))
	f.Add([]byte{0, 0x84, 0x11, 0x21, 0x41, 2}, []byte{200, 1}, uint8(0x41), uint8(1), uint8(1), uint64(5))
	f.Fuzz(func(t *testing.T, data, reps []byte, kindMask, iv1, iv2 uint8, seed uint64) {
		if len(data) == 0 || len(data)*(1+len(reps)) > 1<<12 {
			return
		}
		p := fig4Program(t)
		var kinds []Kind
		for _, k := range AllKinds() {
			if kindMask&(1<<k) != 0 {
				kinds = append(kinds, k)
			}
		}
		if len(kinds) == 0 {
			kinds = AllKinds()
		}
		a, b := uint64(iv1)+1, uint64(iv2)+1
		checkRuns(t, p, runStream(p, data, reps), kinds,
			[]func() sampling.Schedule{periodic(a), periodic(b), random(a, seed), random(b, seed^1)}, seed)
	})
}

// TestAddOnesMatchesUnitAdds pins addOnes to n additions of 1.0, bit for
// bit, on integer accumulators (the one-step case), on fractional ones,
// where a unit add may round, and across 2^53, where unit adds stop moving.
func TestAddOnesMatchesUnitAdds(t *testing.T) {
	for _, x := range []float64{0, 1, 7, 0.5, 1.0 / 3, 2.0/3 + 1e-9, 1<<52 + 0.5, 1<<53 - 3, 1 << 53, 1<<53 + 2, 1e300, -2, -0.25} {
		for _, n := range []uint64{1, 2, 3, 17, 1000, 5000} {
			want := x
			for i := uint64(0); i < n; i++ {
				want++
			}
			if got := addOnes(x, n); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("addOnes(%v, %d) = %v, want %v", x, n, got, want)
			}
		}
	}
}
