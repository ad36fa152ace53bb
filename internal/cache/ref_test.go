package cache

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// refCache is the fuzz reference for Cache: the model as it stood before
// lines were compacted, with an explicit valid array, 64-bit LRU stamps that
// never wrap, and readyAt copied unconditionally. Cache must agree with it on
// every returned cycle, every residency query and every statistic.
type refCache struct {
	cfg      Config
	next     Level
	sets     int
	lineBits uint
	setMask  uint64

	tags    []uint64
	valid   []bool
	dirty   []bool
	readyAt []uint64
	lru     []uint64
	stamp   uint64

	mshrs []mshr

	Hits, Misses, Evictions, Writebacks, MSHRStalls, Prefetches uint64
	WarmFills                                                   uint64
}

func newRef(cfg Config, next Level) *refCache {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	n := sets * cfg.Ways
	c := &refCache{
		cfg:     cfg,
		next:    next,
		sets:    sets,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, n),
		valid:   make([]bool, n),
		dirty:   make([]bool, n),
		readyAt: make([]uint64, n),
		lru:     make([]uint64, n),
		mshrs:   make([]mshr, 0, cfg.MSHRs),
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

func (c *refCache) lineOf(addr uint64) uint64 { return addr >> c.lineBits }
func (c *refCache) setOf(line uint64) int     { return int(line & c.setMask) }

func (c *refCache) lookup(line uint64) int {
	base := c.setOf(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == line {
			return base + w
		}
	}
	return -1
}

func (c *refCache) touch(i int) {
	c.stamp++
	c.lru[i] = c.stamp
}

func (c *refCache) victim(line uint64) int {
	base := c.setOf(line) * c.cfg.Ways
	best := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if !c.valid[i] {
			return i
		}
		if c.lru[i] < c.lru[best] {
			best = i
		}
	}
	return best
}

func (c *refCache) install(line uint64, write bool, readyAt uint64) {
	i := c.victim(line)
	if c.valid[i] {
		c.Evictions++
		if c.dirty[i] {
			c.Writebacks++
			c.next.Access(c.tags[i]<<c.lineBits, true, readyAt)
		}
	}
	c.tags[i] = line
	c.valid[i] = true
	c.dirty[i] = write
	c.readyAt[i] = readyAt
	c.touch(i)
}

func (c *refCache) Access(addr uint64, write bool, now uint64) uint64 {
	line := c.lineOf(addr)
	if i := c.lookup(line); i >= 0 {
		c.Hits++
		c.touch(i)
		if write {
			c.dirty[i] = true
		}
		done := now + c.cfg.Latency
		if c.readyAt[i] > done {
			done = c.readyAt[i]
		}
		return done
	}
	c.Misses++

	start := now
	live := c.mshrs[:0]
	var merged *mshr
	for k := range c.mshrs {
		m := c.mshrs[k]
		if m.done > now {
			live = append(live, m)
			if m.line == line {
				merged = &live[len(live)-1]
			}
		}
	}
	c.mshrs = live
	if merged != nil {
		if write {
			if i := c.lookup(line); i >= 0 {
				c.dirty[i] = true
			}
		}
		done := merged.done
		c.install(line, write, done)
		return done
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.MSHRStalls++
		oldest := c.mshrs[0].done
		for _, m := range c.mshrs {
			if m.done < oldest {
				oldest = m.done
			}
		}
		if oldest > start {
			start = oldest
		}
		live = c.mshrs[:0]
		for _, m := range c.mshrs {
			if m.done > start {
				live = append(live, m)
			}
		}
		c.mshrs = live
	}

	fill := c.next.Access(addr, false, start+c.cfg.Latency)
	c.mshrs = append(c.mshrs, mshr{line: line, done: fill})
	c.install(line, write, fill)

	if c.cfg.NextLinePrefetch {
		nl := line + 1
		if c.lookup(nl) < 0 {
			c.Prefetches++
			pfFill := c.next.Access(nl<<c.lineBits, false, start+c.cfg.Latency)
			c.install(nl, false, pfFill)
		}
	}
	return fill
}

func (c *refCache) Warm(addr uint64, write bool) {
	line := c.lineOf(addr)
	if i := c.lookup(line); i >= 0 {
		c.touch(i)
		if write {
			c.dirty[i] = true
		}
		return
	}
	c.warmInstall(line, write)
	if nc, ok := c.next.(*refCache); ok {
		nc.Warm(addr, false)
	}
	if c.cfg.NextLinePrefetch {
		if nl := line + 1; c.lookup(nl) < 0 {
			c.warmInstall(nl, false)
			if nc, ok := c.next.(*refCache); ok {
				nc.Warm(nl<<c.lineBits, false)
			}
		}
	}
}

func (c *refCache) warmInstall(line uint64, write bool) {
	c.WarmFills++
	i := c.victim(line)
	c.tags[i] = line
	c.valid[i] = true
	c.dirty[i] = write
	c.readyAt[i] = 0
	c.touch(i)
}

func (c *refCache) CopyFrom(src *refCache) {
	copy(c.tags, src.tags)
	copy(c.valid, src.valid)
	copy(c.dirty, src.dirty)
	copy(c.readyAt, src.readyAt)
	copy(c.lru, src.lru)
	c.stamp = src.stamp
	c.mshrs = append(c.mshrs[:0], src.mshrs...)
	c.Hits, c.Misses = src.Hits, src.Misses
	c.Evictions, c.Writebacks = src.Evictions, src.Writebacks
	c.MSHRStalls, c.Prefetches = src.MSHRStalls, src.Prefetches
	c.WarmFills = src.WarmFills
}

func (c *refCache) Contains(addr uint64) bool { return c.lookup(c.lineOf(addr)) >= 0 }

func (c *refCache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
		c.lru[i] = 0
		c.tags[i] = invalidTag
	}
	c.stamp = 0
	c.mshrs = c.mshrs[:0]
	c.Hits, c.Misses, c.Evictions, c.Writebacks, c.MSHRStalls, c.Prefetches = 0, 0, 0, 0, 0, 0
	c.WarmFills = 0
}

// fuzzL1, fuzzL2 are deliberately tiny so a short input already evicts,
// writes back, merges MSHRs and stalls on them.
var (
	fuzzL1 = Config{Name: "L1", SizeBytes: 512, LineBytes: 64, Ways: 2, Latency: 2, MSHRs: 2, NextLinePrefetch: true}
	fuzzL2 = Config{Name: "L2", SizeBytes: 2048, LineBytes: 64, Ways: 4, Latency: 9, MSHRs: 3}
)

// fuzzPair is one two-level stack in both models, each over its own
// FixedLatency backing store.
type fuzzPair struct {
	l1, l2      *Cache
	r1, r2      *refCache
	back, rback *FixedLatency
	now         uint64
}

func newFuzzPair() *fuzzPair {
	p := &fuzzPair{back: &FixedLatency{Lat: 40}, rback: &FixedLatency{Lat: 40}}
	p.l2 = New(fuzzL2, p.back)
	p.l1 = New(fuzzL1, p.l2)
	p.r2 = newRef(fuzzL2, p.rback)
	p.r1 = newRef(fuzzL1, p.r2)
	return p
}

func (p *fuzzPair) copyFrom(src *fuzzPair) {
	p.l1.CopyFrom(src.l1)
	p.l2.CopyFrom(src.l2)
	p.r1.CopyFrom(src.r1)
	p.r2.CopyFrom(src.r2)
}

func (p *fuzzPair) reset() {
	p.l1.Reset()
	p.l2.Reset()
	p.r1.Reset()
	p.r2.Reset()
}

// check compares the two models' observable state: residency of every line
// the fuzz addresses can reach, and every statistic.
func (p *fuzzPair) check(t *testing.T, label string) {
	t.Helper()
	for _, lv := range []struct {
		c *Cache
		r *refCache
	}{{p.l1, p.r1}, {p.l2, p.r2}} {
		c, r := lv.c, lv.r
		got := [7]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks, c.MSHRStalls, c.Prefetches, c.WarmFills}
		want := [7]uint64{r.Hits, r.Misses, r.Evictions, r.Writebacks, r.MSHRStalls, r.Prefetches, r.WarmFills}
		if got != want {
			t.Fatalf("%s: %s statistics %v, reference %v", label, c.Name(), got, want)
		}
		for line := uint64(0); line <= fuzzLines; line++ {
			if c.Contains(line<<6) != r.Contains(line<<6) {
				t.Fatalf("%s: %s line %d present=%v, reference %v", label, c.Name(), line, c.Contains(line<<6), r.Contains(line<<6))
			}
		}
	}
	if p.back.Accesses != p.rback.Accesses {
		t.Fatalf("%s: backing accesses %d, reference %d", label, p.back.Accesses, p.rback.Accesses)
	}
}

// fuzzLines bounds the line numbers the fuzz addresses touch: four times the
// L2's capacity, so sets conflict and evict.
const fuzzLines = 4 * 2048 / 64

// FuzzCacheReference drives random timed accesses, warms, copies between two
// stacks in both directions (so timed and warm-only caches meet as source
// and destination), resets and forced LRU-stamp wraps through Cache and the
// reference model in lockstep; every returned cycle, every residency query
// and every statistic must agree.
func FuzzCacheReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{
		1, 10, 1, 20, 1, 30, 0, 40, 0, 41, 0, 50, 2, 0, 0, 60, 3, 0, 0, 70,
		5, 3, 0, 80, 0, 81, 0, 82, 0, 83, 4, 0, 1, 90, 2, 0, 0, 10, 6, 0,
	})
	f.Add([]byte{5, 0, 0, 1, 0, 9, 0, 17, 0, 25, 0, 33, 0, 41, 0, 1, 0, 9, 5, 1, 0, 49, 0, 57})
	// Inputs the fuzzer found that copy between a timed and a warm-only
	// stack and then hit a line whose readyAt the copy must have set or
	// cleared.
	f.Add([]byte("0\x94$0%0000\x94"))
	f.Add([]byte("000000080001007\x00000X"))
	f.Add([]byte("0020000000%000"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		a, b := newFuzzPair(), newFuzzPair()
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%8, ops[k+1]
			addr := uint64(arg)%fuzzLines<<6 | uint64(arg>>3)&63
			write := arg&0x80 != 0
			// Even pair indices drive a, odd ones b, so both stacks
			// accumulate their own history between copies.
			p := a
			if k/2%2 == 1 {
				p = b
			}
			label := fmt.Sprintf("op %d (%d,%d)", k/2, op, arg)
			switch op {
			case 0, 1: // timed access
				p.now += uint64(arg & 7)
				got := p.l1.Access(addr, write, p.now)
				want := p.r1.Access(addr, write, p.now)
				if got != want {
					t.Fatalf("%s: Access(%#x) done %d, reference %d", label, addr, got, want)
				}
			case 2, 3: // warm
				p.l1.Warm(addr, write)
				p.r1.Warm(addr, write)
			case 4: // copy b <- a
				b.copyFrom(a)
				b.now = a.now
			case 5: // copy a <- b
				a.copyFrom(b)
				a.now = b.now
			case 6: // reset
				p.reset()
				p.now = 0
			case 7: // jump the stamp to just short of its wrap
				forceStampWrap(p.l1, uint32(arg))
				forceStampWrap(p.l2, uint32(arg))
			}
			p.check(t, label)
		}
		a.check(t, "end a")
		b.check(t, "end b")
	})
}

// forceStampWrap is the test hook for the LRU-stamp wrap: it advances c's
// stamp to within left touches of the 32-bit limit. Advancing never reorders
// the stamps already issued, so victim choice is unaffected until the wrap
// re-ranks each set.
func forceStampWrap(c *Cache, left uint32) {
	if s := math.MaxUint32 - left; s > c.stamp {
		c.stamp = s
	}
}

// TestStampWrapKeepsLRUOrder forces several wraps in a cache with many sets
// and checks every victim against the reference across them.
func TestStampWrapKeepsLRUOrder(t *testing.T) {
	cfg := Config{Name: "W", SizeBytes: 4096, LineBytes: 64, Ways: 4, Latency: 1, MSHRs: 4}
	c, r := New(cfg, &FixedLatency{Lat: 5}), newRef(cfg, &FixedLatency{Lat: 5})
	wraps := 0
	for i := 0; i < 20000; i++ {
		if i%3000 == 0 {
			forceStampWrap(c, 7)
		}
		before := c.stamp
		line := uint64(i*7919) % 96
		if i%2 == 0 {
			c.Warm(line<<6, false)
			r.Warm(line<<6, false)
		} else if got, want := c.Access(line<<6, i%5 == 0, uint64(i)), r.Access(line<<6, i%5 == 0, uint64(i)); got != want {
			t.Fatalf("access %d: done %d, reference %d", i, got, want)
		}
		if c.stamp < before {
			wraps++
		}
		for l := uint64(0); l < 96; l++ {
			if c.Contains(l<<6) != r.Contains(l<<6) {
				t.Fatalf("access %d (after %d wraps): line %d residency differs from the reference", i, wraps, l)
			}
		}
	}
	if wraps < 5 {
		t.Fatalf("only %d stamp wraps forced, want at least 5", wraps)
	}
	if c.Evictions != r.Evictions || c.Writebacks != r.Writebacks {
		t.Fatalf("evictions/writebacks %d/%d, reference %d/%d", c.Evictions, c.Writebacks, r.Evictions, r.Writebacks)
	}
}

// TestResetMatchesNew pins Reset as a return to New's exact state, timing
// state and the timed mark included.
func TestResetMatchesNew(t *testing.T) {
	back := &FixedLatency{Lat: 30}
	cfg := Config{Name: "R", SizeBytes: 2048, LineBytes: 64, Ways: 4, Latency: 3, MSHRs: 2, NextLinePrefetch: true}
	c := New(cfg, back)
	for i := uint64(0); i < 200; i++ {
		c.Access(i*192, i%3 == 0, i*2)
		c.Warm(i*320, i%4 == 0)
	}
	c.Reset()
	if fresh := New(cfg, back); !reflect.DeepEqual(c, fresh) {
		t.Fatalf("Reset left state New does not have:\n got %+v\nwant %+v", c, fresh)
	}
}
