package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/fleet"
	"github.com/tipprof/tip/internal/trace"
)

// coreConfigHash fingerprints a core configuration for capture-cache keying:
// two configurations with the same rendered parameter set produce
// byte-identical traces, so their captures are interchangeable.
func coreConfigHash(cfg cpu.Config) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", cfg)))
	return hex.EncodeToString(h[:8])
}

// captureKey names one cache entry: the full simulation input. Single-core
// entries are keyed by (bench, seed, scale, core-config hash); multicore
// entries leave those empty and carry a hash of the whole core set and its
// size instead.
type captureKey struct {
	Bench  string
	Seed   uint64
	Scale  uint64
	Core   string
	Cores  string
	NCores int
}

// coreSetHash fingerprints a multicore job's ordered core set. Order matters:
// the lockstep system arbitrates same-cycle shared-LLC accesses in core
// order, so swapped placements produce different captures.
func coreSetHash(cores []CoreJobSpec) string {
	var b strings.Builder
	for _, c := range cores {
		fmt.Fprintf(&b, "%s:%d:%d,", c.Bench, c.Seed, c.Scale)
	}
	h := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(h[:8])
}

// id is the cache's map key. The hex hashes keep it filesystem-safe; bench
// names are lowercase alphanumerics.
func (k captureKey) id() string {
	if k.Cores != "" {
		return fmt.Sprintf("cores-%s-%s", k.Cores, k.Core)
	}
	return fmt.Sprintf("%s-%d-%d-%s", k.Bench, k.Seed, k.Scale, k.Core)
}

// storeIDs are the capture store's content addresses of the entry's
// captures, one per core, so their format is fixed: entries already in a
// store are found by them. A single-core capture is stored under id, and
// core i of a multicore set under id-i; a multicore set's bare id, the
// address of the one interleaved capture earlier versions stored, is never
// read, and fill removes it once every per-core entry is in.
func (k captureKey) storeIDs() []string {
	if k.Cores == "" {
		return []string{k.id()}
	}
	ids := make([]string, k.NCores)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", k.id(), i)
	}
	return ids
}

// cacheEntry is one cached simulation: a capture per core plus each core's
// stats (needed to calibrate replays; single-core entries hold one of
// each). Entries are refcounted: replays hold a ref while streaming, and an
// entry evicted under load is only Closed once the last ref drops.
type cacheEntry struct {
	key      captureKey
	captures []*trace.Capture
	stats    []cpu.Stats
	bytes    uint64
	refs     int
	dead     bool
	elem     *list.Element
}

// close releases every capture of the entry.
func (e *cacheEntry) close() {
	for _, c := range e.captures {
		c.Close()
	}
}

// captureFn performs the cycle-level simulation on a miss, returning one
// capture and one Stats per core.
type captureFn func(ctx context.Context) ([]*trace.Capture, []cpu.Stats, error)

// captureCache is the LRU capture cache with singleflight capture dedup, in
// front of the optional capture store: repeated jobs for the same key skip
// the simulation entirely and only replay, concurrent identical misses
// perform exactly one simulation between them, and every fresh simulation
// is published to the store, so a restarted daemon (or any peer sharing the
// store) finds it there instead of simulating again. The store is the only
// persistence tier; memory is lost on exit.
type captureCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   uint64
	bytes      uint64
	ll         *list.List // front = most recently used
	byKey      map[string]*cacheEntry
	flights    map[string]chan struct{} // closed when the leader finishes
	hits       uint64
	misses     uint64
	store      *fleet.Store // nil = memory only
	logf       func(format string, args ...any)
}

func newCaptureCache(maxEntries int, maxBytes uint64, store *fleet.Store, logf func(string, ...any)) *captureCache {
	return &captureCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		byKey:      map[string]*cacheEntry{},
		flights:    map[string]chan struct{}{},
		store:      store,
		logf:       logf,
	}
}

// getOrCapture returns a ref-held entry for key and where its capture came
// from: sourceCache when it was in memory or a concurrent caller was already
// capturing it (the simulation was shared), sourceStore when the store held
// it, and sourceSimulated when simulate ran. The caller must release() the
// entry when done replaying.
func (c *captureCache) getOrCapture(ctx context.Context, key captureKey, simulate captureFn) (ent *cacheEntry, source string, err error) {
	id := key.id()
	for {
		c.mu.Lock()
		if ent := c.byKey[id]; ent != nil {
			ent.refs++
			c.ll.MoveToFront(ent.elem)
			c.hits++
			c.mu.Unlock()
			return ent, sourceCache, nil
		}
		if fl := c.flights[id]; fl != nil {
			c.mu.Unlock()
			// Another job is capturing this key right now; wait and
			// re-check. If the leader fails (or is cancelled), the retry
			// loop promotes this waiter to leader.
			select {
			case <-fl:
				continue
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		}
		// Miss: become the capture leader.
		fl := make(chan struct{})
		c.flights[id] = fl
		c.misses++
		c.mu.Unlock()

		capts, stats, source, err := c.fill(ctx, key, simulate)

		c.mu.Lock()
		delete(c.flights, id)
		if err != nil {
			c.mu.Unlock()
			close(fl)
			return nil, "", err
		}
		ent := &cacheEntry{key: key, captures: capts, stats: stats, refs: 1}
		for _, capt := range capts {
			ent.bytes += capt.Bytes()
		}
		c.insertLocked(ent)
		c.mu.Unlock()
		close(fl)
		return ent, source, nil
	}
}

// fill runs a capture leader's miss: the store first, since any capture of
// key is byte-identical to what simulate would produce, then simulate. The
// store serves a key only when it holds every core's capture; any miss
// simulates the whole set. Fresh captures are published best-effort: a
// failed publish costs a future warm hit, not this job.
func (c *captureCache) fill(ctx context.Context, key captureKey, simulate captureFn) ([]*trace.Capture, []cpu.Stats, string, error) {
	ids := key.storeIDs()
	if c.store != nil {
		if capts, stats, ok := c.getAll(ids); ok {
			return capts, stats, sourceStore, nil
		}
	}
	capts, stats, err := simulate(ctx)
	if err != nil {
		return nil, nil, "", err
	}
	if c.store != nil {
		allPut := true
		for i, id := range ids {
			if err := c.store.Put(id, capts[i], stats[i:i+1]); err != nil {
				c.logf("tipd: publishing %s to store: %v", id, err)
				allPut = false
			}
		}
		// A core set's per-core entries supersede the interleaved entry
		// earlier versions stored under its bare id, which nothing reads.
		if key.Cores != "" && allPut {
			if err := c.store.Remove(key.id()); err != nil {
				c.logf("tipd: removing superseded %s from store: %v", key.id(), err)
			}
		}
	}
	return capts, stats, sourceSimulated, nil
}

// getAll reads the captures stored under ids, or none of them.
func (c *captureCache) getAll(ids []string) ([]*trace.Capture, []cpu.Stats, bool) {
	var got cacheEntry
	for _, id := range ids {
		capt, stats, ok := c.store.Get(id)
		if !ok {
			got.close()
			return nil, nil, false
		}
		got.captures = append(got.captures, capt)
		got.stats = append(got.stats, stats[0])
	}
	return got.captures, got.stats, true
}

// insertLocked adds ent at the LRU front and evicts past capacity. Callers
// hold c.mu.
func (c *captureCache) insertLocked(ent *cacheEntry) {
	ent.elem = c.ll.PushFront(ent)
	c.byKey[ent.key.id()] = ent
	c.bytes += ent.bytes
	for c.ll.Len() > 1 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.ll.Back()
		c.evictLocked(oldest.Value.(*cacheEntry))
	}
}

// evictLocked unlinks ent; the capture closes now or, if replays still hold
// refs, when the last one releases.
func (c *captureCache) evictLocked(ent *cacheEntry) {
	c.ll.Remove(ent.elem)
	delete(c.byKey, ent.key.id())
	c.bytes -= ent.bytes
	ent.dead = true
	if ent.refs == 0 {
		ent.close()
	}
}

// release drops one ref taken by getOrCapture.
func (c *captureCache) release(ent *cacheEntry) {
	c.mu.Lock()
	ent.refs--
	if ent.dead && ent.refs == 0 {
		ent.close()
	}
	c.mu.Unlock()
}

// counters returns (hits, misses, entries, bytes) for /metrics.
func (c *captureCache) counters() (hits, misses uint64, entries int, bytes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len(), c.bytes
}
