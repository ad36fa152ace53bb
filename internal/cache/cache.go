// Package cache models the on-chip cache hierarchy of Table 1: set
// associative caches with LRU replacement, write-back/write-allocate
// policy, a bounded number of MSHRs, and an optional next-line prefetcher.
//
// Like the DRAM model, caches are latency-oriented: Access returns the
// absolute core cycle at which the requested line is available, chaining
// into the next level on a miss. MSHRs bound the number of outstanding
// misses; overlapping misses to the same line merge into the existing MSHR.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Level is anything that can service a line request: a Cache or the DRAM.
type Level interface {
	// Access requests addr (any byte within the line) at cycle now and
	// returns the cycle the data is available.
	Access(addr uint64, write bool, now uint64) uint64
}

// Config describes one cache.
type Config struct {
	// Name labels the cache in stats ("L1D", "L2", ...).
	Name string
	// SizeBytes is the total capacity; must be a power of two multiple
	// of LineBytes*Ways.
	SizeBytes int
	// LineBytes is the cache line size (power of two).
	LineBytes int
	// Ways is the associativity.
	Ways int
	// Latency is the hit latency in cycles.
	Latency uint64
	// MSHRs bounds outstanding misses (Table 1: 8 for L1D, 12 for L2, 8
	// for LLC).
	MSHRs int
	// NextLinePrefetch enables fetching line+1 from the next level into
	// this cache on every demand miss (Table 1: L1D next-line prefetcher
	// from L2).
	NextLinePrefetch bool
}

type mshr struct {
	line uint64
	done uint64
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg      Config
	next     Level
	sets     int
	lineBits uint
	setMask  uint64

	// Flat arrays: index = set*ways + way. A slot is empty exactly when
	// its tag is invalidTag, so the hit-path scan, the victim choice and
	// the eviction logic all read tags alone.
	tags  []uint64
	dirty []bool
	// readyAt[i] is when the line's data arrives (hits on in-flight
	// prefetched lines wait for it). Only timed accesses write a nonzero
	// value: while timed is false every entry is zero, which lets CopyFrom
	// skip the array when copying from a cache that has only been warmed.
	readyAt []uint64
	timed   bool
	// lru[i] is a per-set stamp; larger = more recently used. Victim
	// choice compares stamps only within a set, so when stamp would wrap,
	// rerank renumbers each set's stamps by rank and counting restarts.
	lru   []uint32
	stamp uint32

	mshrs []mshr

	// Stats.
	Hits, Misses, Evictions, Writebacks, MSHRStalls, Prefetches uint64
	// WarmFills counts lines installed through Warm (functional warming);
	// kept apart so the timed hit/miss statistics describe detailed
	// simulation only.
	WarmFills uint64
}

// New builds a cache in front of next.
func New(cfg Config, next Level) *Cache {
	if next == nil {
		panic("cache: nil next level")
	}
	if cfg.LineBytes <= 0 || bits.OnesCount(uint(cfg.LineBytes)) != 1 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry", cfg.Name))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways))
	}
	sets := lines / cfg.Ways
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	if cfg.MSHRs <= 0 {
		panic(fmt.Sprintf("cache %s: need at least one MSHR", cfg.Name))
	}
	n := sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		next:     next,
		sets:     sets,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, n),
		dirty:    make([]bool, n),
		readyAt:  make([]uint64, n),
		lru:      make([]uint32, n),
		mshrs:    make([]mshr, 0, cfg.MSHRs),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// invalidTag marks an empty slot. Simulated addresses live far below the top
// of the 64-bit space (synthetic code and data regions), so no real line
// number can collide with ^0, and the tag array alone records which slots
// hold a line.
const invalidTag = ^uint64(0)

// Name returns the cache's label.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) lineOf(addr uint64) uint64 { return addr >> c.lineBits }
func (c *Cache) setOf(line uint64) int     { return int(line & c.setMask) }

// lookup returns the way index of line in its set, or -1. Empty slots hold
// invalidTag, which no line number equals.
func (c *Cache) lookup(line uint64) int {
	base := c.setOf(line) * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	for w := range tags {
		if tags[w] == line {
			return base + w
		}
	}
	return -1
}

// touch refreshes LRU state for slot i.
func (c *Cache) touch(i int) {
	if c.stamp == math.MaxUint32 {
		c.rerank()
	}
	c.stamp++
	c.lru[i] = c.stamp
}

// rerank renumbers each set's stamps 1..k by recency (k occupied ways; empty
// slots get 0) and restarts stamp at the largest rank a set can hold. The
// order of stamps within each set, which is all victim reads, is unchanged.
func (c *Cache) rerank() {
	ways := c.cfg.Ways
	old := make([]uint32, ways)
	for base := 0; base < len(c.lru); base += ways {
		tags, lru := c.tags[base:base+ways], c.lru[base:base+ways]
		copy(old, lru)
		for w := range lru {
			rank := uint32(0)
			if tags[w] != invalidTag {
				rank = 1
				for v := range old {
					if tags[v] != invalidTag && old[v] < old[w] {
						rank++
					}
				}
			}
			lru[w] = rank
		}
	}
	c.stamp = uint32(ways)
}

// victim picks the LRU slot in line's set, preferring empty slots.
func (c *Cache) victim(line uint64) int {
	base := c.setOf(line) * c.cfg.Ways
	best := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.tags[i] == invalidTag {
			return i
		}
		if c.lru[i] < c.lru[best] {
			best = i
		}
	}
	return best
}

// install places line into the cache, evicting (and writing back) as
// needed; readyAt is when the line's data arrives.
func (c *Cache) install(line uint64, write bool, readyAt uint64) {
	i := c.victim(line)
	if c.tags[i] != invalidTag {
		c.Evictions++
		if c.dirty[i] {
			c.Writebacks++
			// Write-back consumes next-level bandwidth but is off
			// the load's critical path.
			c.next.Access(c.tags[i]<<c.lineBits, true, readyAt)
		}
	}
	c.tags[i] = line
	c.dirty[i] = write
	c.readyAt[i] = readyAt
	c.timed = true
	c.touch(i)
}

// Access implements Level.
func (c *Cache) Access(addr uint64, write bool, now uint64) uint64 {
	line := c.lineOf(addr)
	if i := c.lookup(line); i >= 0 {
		c.Hits++
		c.touch(i)
		if write {
			c.dirty[i] = true
		}
		done := now + c.cfg.Latency
		if c.readyAt[i] > done {
			// The line is still in flight (e.g. prefetched).
			done = c.readyAt[i]
		}
		return done
	}
	c.Misses++

	// MSHR handling: merge with an in-flight miss to the same line, else
	// take a free slot, else stall until the earliest one frees.
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
		// The line is already on its way; piggyback.
		if write {
			// Mark dirty once it arrives.
			if i := c.lookup(line); i >= 0 {
				c.dirty[i] = true
			}
		}
		done := merged.done
		c.install(line, write, done) // idempotent refresh on arrival
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
		// Re-filter now that time advanced.
		live = c.mshrs[:0]
		for _, m := range c.mshrs {
			if m.done > start {
				live = append(live, m)
			}
		}
		c.mshrs = live
	}

	// The lookup that discovered the miss costs the hit latency before the
	// request heads to the next level; fill time is the data-ready time.
	fill := c.next.Access(addr, false, start+c.cfg.Latency)
	c.mshrs = append(c.mshrs, mshr{line: line, done: fill})
	c.install(line, write, fill)

	if c.cfg.NextLinePrefetch {
		// The prefetcher issues the next line concurrently with the
		// demand miss (same request time): off the critical path, but
		// it occupies next-level bandwidth. Issuing it at the demand's
		// time (not its fill time) keeps the latency-chain model's
		// timestamps ordered — a future-dated access would block
		// earlier demand requests in the bank model.
		nl := line + 1
		if c.lookup(nl) < 0 {
			c.Prefetches++
			pfFill := c.next.Access(nl<<c.lineBits, false, start+c.cfg.Latency)
			c.install(nl, false, pfFill)
		}
	}
	return fill
}

// Warm installs the line holding addr touching only the tag, LRU and dirty
// arrays — no latency chain, no MSHR traffic, no Hits/Misses accounting.
// It is the functional fast-forward's bulk warming entry point: after a
// warmed skip a detailed window observes roughly the residency full
// simulation would have left behind. A miss recurses into the next cache
// level (DRAM has no tags to warm) and triggers the same next-line
// prefetch a demand miss would; a dirty victim's writeback is dropped —
// warming models residency, not bandwidth.
func (c *Cache) Warm(addr uint64, write bool) {
	line := c.lineOf(addr)
	if i := c.lookup(line); i >= 0 {
		c.touch(i)
		if write {
			c.dirty[i] = true
		}
		return
	}
	c.warmInstall(line, write)
	if nc, ok := c.next.(*Cache); ok {
		nc.Warm(addr, false)
	}
	if c.cfg.NextLinePrefetch {
		if nl := line + 1; c.lookup(nl) < 0 {
			c.warmInstall(nl, false)
			if nc, ok := c.next.(*Cache); ok {
				nc.Warm(nl<<c.lineBits, false)
			}
		}
	}
}

// warmInstall places line without timing or eviction statistics; data is
// treated as immediately available (readyAt 0 is always in the past).
func (c *Cache) warmInstall(line uint64, write bool) {
	c.WarmFills++
	i := c.victim(line)
	c.tags[i] = line
	c.dirty[i] = write
	c.readyAt[i] = 0
	c.touch(i)
}

// CopyFrom overwrites c's tag, LRU, timing, MSHR and statistics state with
// src's. The two caches must share a geometry (they keep their own
// next-level wiring); slice capacities are reused, so steady-state copies do
// not allocate.
//
// A line costs 13 bytes to copy (8 of tag, 4 of LRU stamp, 1 dirty flag),
// plus its 8-byte readyAt only when src has run timed accesses. A cache that
// has only been warmed — a functional sweep, and so every checkpoint taken
// from one — holds readyAt all zero, so copying from it zeroes c's readyAt
// if c has been timed and leaves it alone otherwise.
func (c *Cache) CopyFrom(src *Cache) {
	if c.sets != src.sets || c.cfg.Ways != src.cfg.Ways || c.lineBits != src.lineBits {
		panic(fmt.Sprintf("cache %s: CopyFrom geometry mismatch with %s", c.cfg.Name, src.cfg.Name))
	}
	copy(c.tags, src.tags)
	copy(c.dirty, src.dirty)
	copy(c.lru, src.lru)
	switch {
	case src.timed:
		copy(c.readyAt, src.readyAt)
	case c.timed:
		clear(c.readyAt)
	}
	c.timed = src.timed
	c.stamp = src.stamp
	c.mshrs = append(c.mshrs[:0], src.mshrs...)
	c.Hits, c.Misses = src.Hits, src.Misses
	c.Evictions, c.Writebacks = src.Evictions, src.Writebacks
	c.MSHRStalls, c.Prefetches = src.MSHRStalls, src.Prefetches
	c.WarmFills = src.WarmFills
}

// Clone returns an independent copy of c wired in front of next.
func (c *Cache) Clone(next Level) *Cache {
	n := New(c.cfg, next)
	n.CopyFrom(c)
	return n
}

// Contains reports whether the line holding addr is present (for tests).
func (c *Cache) Contains(addr uint64) bool {
	return c.lookup(c.lineOf(addr)) >= 0
}

// Reset returns c to the state New built: every line invalid, timing state
// and statistics cleared.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.dirty)
	clear(c.lru)
	clear(c.readyAt)
	c.timed = false
	c.stamp = 0
	c.mshrs = c.mshrs[:0]
	c.Hits, c.Misses, c.Evictions, c.Writebacks, c.MSHRStalls, c.Prefetches = 0, 0, 0, 0, 0, 0
	c.WarmFills = 0
}

// MissRate returns misses/(hits+misses).
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// FixedLatency is a Level with a constant service time; useful as a test
// backing store and as the LLC-miss abstraction in unit tests.
type FixedLatency struct {
	Lat      uint64
	Accesses uint64
}

// Access implements Level.
func (f *FixedLatency) Access(addr uint64, write bool, now uint64) uint64 {
	f.Accesses++
	return now + f.Lat
}
