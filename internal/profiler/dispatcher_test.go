package profiler

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
	"github.com/tipprof/tip/internal/xrand"
)

// identityStream is one record stream the dispatcher identity is checked on.
type identityStream struct {
	name string
	prog *program.Program
	recs []trace.Record
}

// recordCollector copies every delivered record (producers reuse theirs).
type recordCollector struct{ recs []trace.Record }

func (c *recordCollector) OnCycle(r *trace.Record) { c.recs = append(c.recs, *r) }
func (c *recordCollector) Finish(uint64)           {}

// captureStream simulates a small-scale benchmark on the default core and
// keeps its commit-stage records.
func captureStream(t *testing.T, name, class string) identityStream {
	t.Helper()
	w, err := workload.LoadScaled(name, 1, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	if w.Class != class {
		t.Fatalf("%s is class %s, want %s", name, w.Class, class)
	}
	core := cpu.New(cpu.DefaultConfig(), w.Prog, w.Stream())
	for _, reg := range w.Prefault {
		core.MMU().PrefaultRange(reg.Base, reg.Size)
	}
	var c recordCollector
	if _, err := core.Run(&c); err != nil {
		t.Fatal(err)
	}
	return identityStream{name: name, prog: w.Prog, recs: c.recs}
}

// synthRecords turns bytes into a record stream over the Figure 4 program,
// one cycle per byte:
//   - bits 0-1: ROB entries held (0 = empty ROB; 3 counts as 2)
//   - bits 2-3: which of them commit
//   - bit 4: the head is a mispredicted branch
//   - bit 5: the head carries the flush flag
//   - bit 6: the head raises an exception
//   - bit 7: an instruction waits at dispatch
//
// The records need not be ones a core could produce; both delivery paths
// see the same ones.
func synthRecords(p *program.Program, data []byte) []trace.Record {
	s := newSeq(p)
	for i, b := range data {
		n := min(int(b&3), 2)
		var es []ent
		for j := 0; j < n; j++ {
			es = append(es, ent{
				idx:        (i + 3*j + int(b>>4)) % idxBranch,
				committing: b&(4<<j) != 0,
			})
		}
		if n > 0 {
			es[0].mispredicted = b&16 != 0
			es[0].flush = b&32 != 0
			es[0].exception = b&64 != 0
		}
		r := s.cycle(es...)
		if n > 0 && b&64 != 0 {
			r.ExceptionRaised = true
			r.ExceptionFID = r.Banks[0].FID
			r.ExceptionInstIndex = r.Banks[0].InstIndex
			r.ExceptionPC = r.Banks[0].PC
		}
		r.DispatchValid = b&128 != 0
		r.DispatchFID = s.fid
		r.AnyInFlight = n > 0 || r.DispatchValid
		r.YoungestFID = s.fid - 1
	}
	return s.recs
}

// seqStream is a synthetic stream of runs: each run repeats one cycle shape
// 1-40 times, giving the long stalls, drains and flush shadows the pending
// queues wait through.
func seqStream(t *testing.T) identityStream {
	p := fig4Program(t)
	rng := xrand.New(7)
	var data []byte
	for len(data) < 6000 {
		b := byte(rng.Uint64())
		for n := 1 + rng.Intn(40); n > 0; n-- {
			data = append(data, b)
		}
	}
	return identityStream{name: "seq", prog: p, recs: synthRecords(p, data)}
}

// endAtMax renumbers a stream's cycles so its last record is at
// math.MaxUint64, where every schedule saturates.
func endAtMax(st identityStream) identityStream {
	recs := slices.Clone(st.recs)
	shift := math.MaxUint64 - recs[len(recs)-1].Cycle
	for i := range recs {
		recs[i].Cycle += shift
	}
	return identityStream{name: st.name + "@max", prog: st.prog, recs: recs}
}

// strided samples every Stride cycles after the current one. It is a
// pointer schedule sampling.Same knows nothing about, so it groups only
// with itself.
type strided struct{ Stride uint64 }

func (s *strided) Next(c uint64) uint64 { return c + s.Stride }
func (s *strided) Period() uint64       { return s.Stride }

// scheduleCase lists constructors for the schedules of one matrix: every
// kind is attached once per constructor, each with a fresh schedule.
type scheduleCase struct {
	name   string
	scheds []func() sampling.Schedule
}

func periodic(iv uint64) func() sampling.Schedule {
	return func() sampling.Schedule { return sampling.NewPeriodic(iv) }
}

func random(iv, seed uint64) func() sampling.Schedule {
	return func() sampling.Schedule { return sampling.NewRandom(iv, seed) }
}

// collidingSeed returns a seed other than seed whose first sample cycle at
// interval iv equals seed's, so only the generator state tells the two
// schedules apart.
func collidingSeed(iv, seed uint64) uint64 {
	first := sampling.NewRandom(iv, seed).Next(0)
	for s := seed + 1; ; s++ {
		if sampling.NewRandom(iv, s).Next(0) == first {
			return s
		}
	}
}

func scheduleCases() []scheduleCase {
	shared := &strided{Stride: 6}
	return []scheduleCase{
		{"periodic-shared", []func() sampling.Schedule{periodic(17), periodic(17)}},
		{"periodic-distinct", []func() sampling.Schedule{periodic(5), periodic(7), periodic(16), periodic(71)}},
		{"random-same-seed", []func() sampling.Schedule{random(9, 1), random(9, 1)}},
		{"random-other-seed", []func() sampling.Schedule{random(9, 1), random(9, collidingSeed(9, 1))}},
		{"every-cycle", []func() sampling.Schedule{
			func() sampling.Schedule { return everyCycle{} },
			func() sampling.Schedule { return everyCycle{} },
		}},
		{"shared-pointer", []func() sampling.Schedule{
			func() sampling.Schedule { return shared },
			periodic(6),
		}},
	}
}

// newIdentityMatrix builds every kind on every schedule of the case, with
// categories on the TIP family.
func newIdentityMatrix(p *program.Program, scheds []func() sampling.Schedule) []*Sampled {
	var out []*Sampled
	for _, mk := range scheds {
		for _, k := range AllKinds() {
			sp := NewSampled(k, p, mk())
			if k == KindTIP || k == KindTIPILP {
				sp.EnableCategories(true)
			}
			out = append(out, sp)
		}
	}
	return out
}

// deliverDirect feeds every record to every profiler standalone.
func deliverDirect(recs []trace.Record, sps []*Sampled) {
	for i := range recs {
		for _, sp := range sps {
			sp.OnCycle(&recs[i])
		}
	}
	for _, sp := range sps {
		sp.Finish(uint64(len(recs)))
	}
}

// deliverSharded splits the profilers over up to shards dispatchers with
// ShardSampled and feeds every record to each.
func deliverSharded(recs []trace.Record, sps []*Sampled, shards int) {
	var ds []*Dispatcher
	for _, g := range ShardSampled(shards, sps, 1) {
		d := NewDispatcher()
		for _, sp := range g {
			d.AddSampled(sp)
		}
		ds = append(ds, d)
	}
	for i := range recs {
		for _, d := range ds {
			d.OnCycle(&recs[i])
		}
	}
	for _, d := range ds {
		d.Finish(uint64(len(recs)))
	}
}

// sameResult reports the first difference between two profilers' results.
func sameResult(want, got *Sampled) error {
	switch {
	case got.Samples != want.Samples:
		return fmt.Errorf("Samples %d, want %d", got.Samples, want.Samples)
	case got.SampledWeight != want.SampledWeight:
		return fmt.Errorf("SampledWeight %v, want %v", got.SampledWeight, want.SampledWeight)
	case got.LostWeight != want.LostWeight:
		return fmt.Errorf("LostWeight %v, want %v", got.LostWeight, want.LostWeight)
	case !slices.Equal(got.Profile.InstCycles, want.Profile.InstCycles):
		return fmt.Errorf("InstCycles differ")
	case !reflect.DeepEqual(got.Categories, want.Categories):
		return fmt.Errorf("Categories differ")
	}
	return nil
}

// checkIdentity asserts a dispatcher, alone and sharded 1-4 ways, gives
// every profiler exactly the result of standalone delivery.
func checkIdentity(t *testing.T, st identityStream, scheds []func() sampling.Schedule) {
	t.Helper()
	want := newIdentityMatrix(st.prog, scheds)
	deliverDirect(st.recs, want)
	for shards := 1; shards <= 4; shards++ {
		got := newIdentityMatrix(st.prog, scheds)
		deliverSharded(st.recs, got, shards)
		for i := range want {
			if err := sameResult(want[i], got[i]); err != nil {
				t.Fatalf("%d shard(s): profiler %d (%v): %v", shards, i, want[i].Kind, err)
			}
		}
	}
}

// TestDispatcherMatchesDirectDelivery pins the dispatcher's bit-identity
// claim directly: over real captures of a Compute, a Flush and a Stall
// benchmark and a synthetic stream, every kind on shared, distinct, random,
// every-cycle, pointer-shared and saturating schedules ends with exactly the
// results standalone OnCycle delivery gives.
func TestDispatcherMatchesDirectDelivery(t *testing.T) {
	streams := []identityStream{
		captureStream(t, "x264", "Compute"),
		captureStream(t, "imagick", "Flush"),
		captureStream(t, "mcf", "Stall"),
		seqStream(t),
	}
	for _, st := range streams {
		for _, sc := range scheduleCases() {
			t.Run(st.name+"/"+sc.name, func(t *testing.T) { checkIdentity(t, st, sc.scheds) })
		}
		// Schedules saturate at MaxUint64: the last record samples there
		// and the group retires with its members' samples still pending.
		t.Run(st.name+"/saturating", func(t *testing.T) {
			checkIdentity(t, endAtMax(st), []func() sampling.Schedule{periodic(5), periodic(16), random(9, 3)})
		})
	}
}

// TestDispatcherGroupsSchedules checks the grouping itself: schedules that
// will produce the same cycles share one group, anything else does not.
func TestDispatcherGroupsSchedules(t *testing.T) {
	p := fig4Program(t)
	shared := &strided{Stride: 3}
	d := NewDispatcher()
	for _, sched := range []sampling.Schedule{
		sampling.NewPeriodic(17), sampling.NewPeriodic(17), // group 0
		sampling.NewPeriodic(19),                             // group 1
		sampling.NewRandom(17, 1), sampling.NewRandom(17, 1), // group 2
		sampling.NewRandom(17, collidingSeed(17, 1)), // group 3
		shared, shared, // group 4
		everyCycle{}, everyCycle{}, // groups 5, 6
	} {
		d.AddSampled(NewSampled(KindTIP, p, sched))
	}
	var sizes []int
	for _, g := range d.groups {
		sizes = append(sizes, len(g.members))
	}
	if want := []int{2, 1, 2, 1, 2, 1, 1}; !slices.Equal(sizes, want) {
		t.Fatalf("group sizes %v, want %v", sizes, want)
	}
}

// FuzzDispatcherIdentity drives the identity check with a fuzzed record
// stream, two intervals and two seeds.
func FuzzDispatcherIdentity(f *testing.F) {
	f.Add([]byte{1, 5, 13, 0, 0, 0, 2, 130, 99, 7, 255, 64, 65, 3}, uint8(3), uint8(7), uint64(1), uint64(2))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 13, 13, 32, 0, 0, 0, 9}, uint8(1), uint8(1), uint64(5), uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, iv1, iv2 uint8, seed1, seed2 uint64) {
		if len(data) == 0 {
			return
		}
		p := fig4Program(t)
		st := identityStream{name: "fuzz", prog: p, recs: synthRecords(p, data)}
		a, b := uint64(iv1)+1, uint64(iv2)+1
		checkIdentity(t, st, []func() sampling.Schedule{
			periodic(a), periodic(b), random(a, seed1), random(a, seed1), random(a, seed2), random(b, seed2),
		})
	})
}
