package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed correction. The baseline host's speed drifts, and not slowly:
// the same benchmark's evaluation, pass after pass, ran at 0.85-1.37 times
// its typical time, and within one 7 s pass the thirds differed by up to a
// third. Steal time stayed near zero, so the drift comes from outside the VM.
// Raw wall time on such a host cannot hold even a 25% bound across ten runs.
//
// The benchmark therefore times a reference kernel before each pass and
// between a pass's operations: fixed work that calls no code of the
// repository, so no change to the program can speed it up or slow it down.
// A hostLog keeps every timing with the moment it was taken. An interval's
// host factor is the median of the timings taken during it, widened to the
// nearest ones until it has refWindow of them, over refNominal. Each
// operation and each pass is divided by the factor of its own interval: it is
// reported at the baseline host's nominal speed. The raw values are reported
// alongside.

// refNominal is refKernel's median duration in seconds on the baseline
// host (2 vCPU Intel Xeon, Go 1.24).
const refNominal = 0.02

// refIters sizes refKernel's work per goroutine.
const refIters = 10_000_000

// refBlock is the number of kernel timings taken before each pass.
const refBlock = 5

// refEvery is how much work a pass does per kernel timing: between two
// operations the kernel is timed once for each refEvery since its last
// timing.
const refEvery = 250 * time.Millisecond

// refWindow is the least number of timings an interval's factor is the
// median of. Single timings jitter by 10-20%; a pass-long drift is what the
// factor corrects.
const refWindow = 16

// refTables are the kernel's working sets, 1 MiB per goroutine.
var refTables [2][1 << 17]uint64

var refSink atomic.Uint64

// refKernel runs the reference work on two goroutines, one per vCPU the
// benchmark keeps busy, mixing integer arithmetic with scattered
// read-modify-writes, and returns its duration. Each goroutine first reads
// its table untimed: what the program's last operation left in the caches
// must not move the timing.
func refKernel() time.Duration {
	var warm, done sync.WaitGroup
	begin := make(chan struct{})
	for g := range refTables {
		warm.Add(1)
		done.Add(1)
		go func(tab *[1 << 17]uint64, x uint64) {
			defer done.Done()
			for _, v := range tab {
				x += v
			}
			warm.Done()
			<-begin
			for i := 0; i < refIters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				tab[x>>47] += x
			}
			refSink.Add(x)
		}(&refTables[g], uint64(g)+1)
	}
	warm.Wait()
	start := time.Now()
	close(begin)
	done.Wait()
	return time.Since(start)
}

// hostLog is a run's reference-kernel timings in the order taken.
type hostLog struct {
	at    []time.Time // each timing's midpoint
	dur   []float64   // seconds
	last  time.Time   // when the last timing ended
	spent time.Duration
}

// block times the kernel n times in a row.
func (l *hostLog) block(n int) {
	for i := 0; i < n; i++ {
		start := time.Now()
		d := refKernel()
		l.at = append(l.at, start.Add(d/2))
		l.dur = append(l.dur, d.Seconds())
		l.last = time.Now()
		l.spent += l.last.Sub(start)
	}
}

// catchUp times the kernel once for each refEvery since the last timing,
// and at least once.
func (l *hostLog) catchUp() {
	l.block(max(int(time.Since(l.last)/refEvery), 1))
}

// factor is the host factor of the interval [from, to]: the median of the
// timings taken inside it, widened to the nearest ones outside until there
// are refWindow, over refNominal.
func (l *hostLog) factor(from, to time.Time) float64 {
	lo := sort.Search(len(l.at), func(i int) bool { return !l.at[i].Before(from) })
	hi := sort.Search(len(l.at), func(i int) bool { return l.at[i].After(to) })
	for hi-lo < refWindow && (lo > 0 || hi < len(l.at)) {
		if hi == len(l.at) || (lo > 0 && from.Sub(l.at[lo-1]) <= l.at[hi].Sub(to)) {
			lo--
		} else {
			hi++
		}
	}
	return median(l.dur[lo:hi]) / refNominal
}

// overall is the host factor of the whole run.
func (l *hostLog) overall() float64 { return median(l.dur) / refNominal }
