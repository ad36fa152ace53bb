// Package sampling provides the sample-trigger schedules the profilers use:
// periodic sampling (the paper's default, hardware-friendly) and random
// sampling within each interval (the §5.2 sensitivity alternative that
// avoids Shannon-Nyquist aliasing with periodic program behaviour).
package sampling

import (
	"math"
	"reflect"

	"github.com/tipprof/tip/internal/xrand"
)

// Schedule produces a deterministic, strictly increasing sequence of sample
// cycles. Two schedules constructed with identical parameters produce the
// same cycles, which is how all profilers sample the exact same cycle.
type Schedule interface {
	// Next returns the first sample cycle strictly after cycle.
	Next(cycle uint64) uint64
	// Period returns the nominal sampling period in cycles.
	Period() uint64
}

// Periodic samples every Interval cycles: Interval-1, 2*Interval-1, ...
// (sampling at the end of each interval, so the first sample has a full
// interval behind it).
type Periodic struct {
	Interval uint64
}

// NewPeriodic returns a periodic schedule; interval must be positive.
func NewPeriodic(interval uint64) *Periodic {
	if interval == 0 {
		panic("sampling: zero interval")
	}
	return &Periodic{Interval: interval}
}

// Next implements Schedule. The sequence saturates at MaxUint64 instead of
// wrapping: for cycles within an interval of the top of the range, the
// naive (cycle+1+Interval) arithmetic would overflow and return a
// non-increasing sample cycle, breaking the Schedule contract.
func (p *Periodic) Next(cycle uint64) uint64 {
	if cycle == math.MaxUint64 {
		return math.MaxUint64
	}
	n := (cycle+1)/p.Interval + 1
	if n > math.MaxUint64/p.Interval {
		return math.MaxUint64
	}
	return n*p.Interval - 1
}

// Period implements Schedule.
func (p *Periodic) Period() uint64 { return p.Interval }

// Random picks one uniformly random cycle within each Interval-sized
// window. The sequence is deterministic given the seed.
type Random struct {
	Interval uint64
	rng      *xrand.Source
	window   uint64 // index of the window the pending sample belongs to
	pending  uint64 // sample cycle within the current window
}

// NewRandom returns a random-within-interval schedule.
func NewRandom(interval uint64, seed uint64) *Random {
	if interval == 0 {
		panic("sampling: zero interval")
	}
	r := &Random{Interval: interval, rng: xrand.New(seed)}
	r.window = 0
	r.pending = r.draw(0)
	return r
}

func (r *Random) draw(window uint64) uint64 {
	return window*r.Interval + r.rng.Uint64n(r.Interval)
}

// Next implements Schedule.
func (r *Random) Next(cycle uint64) uint64 {
	for r.pending <= cycle {
		// Jump straight to the window containing cycle when the
		// pending sample is far behind (keeps Next O(1) amortized).
		if w := cycle / r.Interval; w > r.window {
			r.window = w
		} else {
			r.window++
		}
		r.pending = r.draw(r.window)
	}
	return r.pending
}

// Period implements Schedule.
func (r *Random) Period() uint64 { return r.Interval }

// Same reports whether a and b will produce the same sample cycles from
// here on, so one Next call can stand in for both. Two *Periodic match on
// Interval; two *Random match on Interval and their whole state (window,
// pending sample and generator), so a fresh schedule never matches one that
// has already advanced. Any other schedule matches only itself, by pointer:
// Next returns the first sample cycle after its argument, so asking one
// object twice for the same cycle gives the same answer.
func Same(a, b Schedule) bool {
	switch x := a.(type) {
	case *Periodic:
		y, ok := b.(*Periodic)
		return ok && x.Interval == y.Interval
	case *Random:
		y, ok := b.(*Random)
		return ok && (x == y || x.Interval == y.Interval && x.window == y.window &&
			x.pending == y.pending && x.rng != nil && y.rng != nil && *x.rng == *y.rng)
	}
	// Guard the comparison: == on two interface values of one
	// non-comparable dynamic type panics.
	return a != nil && reflect.TypeOf(a).Kind() == reflect.Pointer && a == b
}

// NextPrime returns the smallest prime >= n (n >= 2). Periodic sampling of
// a perfectly periodic program can alias (Shannon-Nyquist, §5.2): if the
// interval shares a factor with the loop period, samples lock onto the same
// instructions forever. Real SPEC executions carry enough micro-jitter to
// avoid exact lock-in; our synthetic programs are cycle-deterministic, so
// the evaluation primes the interval instead — a one-line substitute for
// the jitter real systems get for free (see DESIGN.md).
func NextPrime(n uint64) uint64 {
	if n < 2 {
		return 2
	}
	for {
		if isPrime(n) {
			return n
		}
		n++
	}
}

func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := uint64(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// FrequencyToInterval converts a sampling frequency to a period in cycles
// at the given clock. This is how the paper's 4 kHz at 3.2 GHz becomes an
// 800 000-cycle interval; scaled-down runs scale the clock.
func FrequencyToInterval(clockHz, sampleHz uint64) uint64 {
	if sampleHz == 0 {
		panic("sampling: zero sample frequency")
	}
	iv := clockHz / sampleHz
	if iv == 0 {
		return 1
	}
	return iv
}
