package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPeriodicSequence(t *testing.T) {
	p := NewPeriodic(100)
	want := []uint64{99, 199, 299, 399}
	cycle := uint64(0)
	var got []uint64
	for i := 0; i < 4; i++ {
		cycle = p.Next(cycle)
		got = append(got, cycle)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestPeriodicNextFromZero(t *testing.T) {
	p := NewPeriodic(250)
	if first := p.Next(0); first != 249 {
		t.Fatalf("first sample = %d, want 249", first)
	}
	// Next from exactly a sample cycle advances a full period.
	if s := p.Next(249); s != 499 {
		t.Fatalf("Next(249) = %d, want 499", s)
	}
	// Next from mid-interval lands at the interval end.
	if s := p.Next(300); s != 499 {
		t.Fatalf("Next(300) = %d, want 499", s)
	}
}

func TestPeriodicStrictlyIncreasing(t *testing.T) {
	p := NewPeriodic(7)
	cycle := uint64(0)
	last := uint64(0)
	for i := 0; i < 100; i++ {
		cycle = p.Next(cycle)
		if i > 0 && cycle <= last {
			t.Fatalf("non-increasing: %d after %d", cycle, last)
		}
		last = cycle
	}
}

func TestRandomWithinWindows(t *testing.T) {
	r := NewRandom(100, 42)
	cycle := uint64(0)
	for w := uint64(0); w < 50; w++ {
		cycle = r.Next(cycle)
		if cycle/100 < w {
			t.Fatalf("sample %d fell before window %d", cycle, w)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := NewRandom(100, 7)
	b := NewRandom(100, 7)
	ca, cb := uint64(0), uint64(0)
	for i := 0; i < 100; i++ {
		ca, cb = a.Next(ca), b.Next(cb)
		if ca != cb {
			t.Fatalf("same-seed schedules diverged at %d: %d vs %d", i, ca, cb)
		}
	}
}

func TestRandomDifferentSeedsDiffer(t *testing.T) {
	a := NewRandom(1000, 1)
	b := NewRandom(1000, 2)
	ca, cb := uint64(0), uint64(0)
	same := 0
	for i := 0; i < 100; i++ {
		ca, cb = a.Next(ca), b.Next(cb)
		if ca == cb {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("%d/100 identical samples across seeds", same)
	}
}

func TestRandomAverageRateMatchesPeriod(t *testing.T) {
	r := NewRandom(100, 3)
	cycle := uint64(0)
	n := 0
	for cycle < 100_000 {
		cycle = r.Next(cycle)
		n++
	}
	if n < 950 || n > 1050 {
		t.Fatalf("random schedule produced %d samples in 1000 windows", n)
	}
}

func TestFrequencyToInterval(t *testing.T) {
	if iv := FrequencyToInterval(3_200_000_000, 4000); iv != 800_000 {
		t.Fatalf("4 kHz at 3.2 GHz = %d cycles, want 800000", iv)
	}
	if iv := FrequencyToInterval(100, 1000); iv != 1 {
		t.Fatalf("oversampled interval = %d, want clamp to 1", iv)
	}
}

func TestZeroIntervalPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPeriodic(0) },
		func() { NewRandom(0, 1) },
		func() { FrequencyToInterval(100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("zero interval did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPeriodicNextSaturatesNearMax(t *testing.T) {
	p := NewPeriodic(100)
	if got := p.Next(math.MaxUint64); got != math.MaxUint64 {
		t.Fatalf("Next(MaxUint64) = %d, want saturation at MaxUint64", got)
	}
	// Near the top of the cycle range the next schedule point would
	// overflow; Next must saturate instead of wrapping around to a tiny
	// cycle number (which would make a run near the horizon sample every
	// single cycle).
	for _, c := range []uint64{
		math.MaxUint64 - 1,
		math.MaxUint64 - 99,
		math.MaxUint64 - 100,
		math.MaxUint64/100*100 - 1,
	} {
		if got := p.Next(c); got <= c {
			t.Fatalf("Next(%d) = %d: wrapped or stalled", c, got)
		}
	}
	// Away from the boundary the schedule is the usual one.
	if got := p.Next(12345); got != 12399 {
		t.Fatalf("Next(12345) = %d, want 12399", got)
	}
}

// Property: for any interval, Next always returns a strictly later cycle.
func TestQuickNextStrictlyLater(t *testing.T) {
	f := func(interval uint32, start uint64) bool {
		iv := uint64(interval%10_000) + 1
		p := NewPeriodic(iv)
		r := NewRandom(iv, start)
		s := start % (1 << 40)
		return p.Next(s) > s && r.Next(s) > s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: periodic samples are exactly one per window.
func TestQuickPeriodicOnePerWindow(t *testing.T) {
	f := func(interval uint16) bool {
		iv := uint64(interval%1000) + 2
		p := NewPeriodic(iv)
		cycle := uint64(0)
		for w := uint64(0); w < 20; w++ {
			cycle = p.Next(cycle)
			if cycle/iv != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// stride is a pointer schedule Same has no rule for.
type stride struct{ n uint64 }

func (s *stride) Next(c uint64) uint64 { return c + s.n }
func (s *stride) Period() uint64       { return s.n }

// every is a value schedule Same has no rule for.
type every struct{}

func (every) Next(c uint64) uint64 { return c + 1 }
func (every) Period() uint64       { return 1 }

func TestSame(t *testing.T) {
	advanced := NewRandom(100, 1)
	advanced.Next(advanced.Next(0))
	// A seed whose first sample collides with seed 1's: only the
	// generator state separates the two.
	first := NewRandom(100, 1).Next(0)
	collide := uint64(2)
	for NewRandom(100, collide).Next(0) != first {
		collide++
	}
	shared := &stride{n: 3}
	p := NewPeriodic(17)
	cases := []struct {
		name string
		a, b Schedule
		want bool
	}{
		{"periodic equal interval", NewPeriodic(17), NewPeriodic(17), true},
		{"periodic same pointer", p, p, true},
		{"periodic other interval", NewPeriodic(17), NewPeriodic(19), false},
		{"random same seed", NewRandom(100, 1), NewRandom(100, 1), true},
		{"random same pointer", advanced, advanced, true},
		{"random other seed", NewRandom(100, 1), NewRandom(100, 2), false},
		{"random colliding seed", NewRandom(100, 1), NewRandom(100, collide), false},
		{"random other interval", NewRandom(100, 1), NewRandom(101, 1), false},
		{"random fresh vs advanced", NewRandom(100, 1), advanced, false},
		{"periodic vs random", NewPeriodic(100), NewRandom(100, 1), false},
		{"random vs periodic", NewRandom(100, 1), NewPeriodic(100), false},
		{"other pointer, same object", shared, shared, true},
		{"other pointer, equal value", &stride{n: 3}, &stride{n: 3}, false},
		{"other value", every{}, every{}, false},
		{"other vs periodic", shared, NewPeriodic(3), false},
	}
	for _, c := range cases {
		if got := Same(c.a, c.b); got != c.want {
			t.Errorf("%s: Same = %v, want %v", c.name, got, c.want)
		}
	}
}
