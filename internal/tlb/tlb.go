// Package tlb models address translation: split L1 I/D TLBs (32-entry fully
// associative), a 512-entry direct-mapped L2 TLB, a hardware page-table
// walker whose memory accesses go through the cache hierarchy, and demand
// paging — the first touch of a page raises a page fault that the core's
// OS-handler machinery services (paper §2.2 page-miss walkthrough).
package tlb

import "github.com/tipprof/tip/internal/cache"

// PageBits is log2 of the page size (4 KiB pages).
const PageBits = 12

// PageSize is the page size in bytes.
const PageSize = 1 << PageBits

// PageOf returns the virtual page number of addr.
func PageOf(addr uint64) uint64 { return addr >> PageBits }

// Config parameterises the translation machinery.
type Config struct {
	// L1Entries is the size of each fully associative L1 TLB.
	L1Entries int
	// L2Entries is the size of the direct-mapped shared L2 TLB.
	L2Entries int
	// WalkLevels is the number of page-table levels the walker reads on
	// an L2 TLB miss (Sv39 = 3).
	WalkLevels int
	// PTBase is the physical base address of the page-table area the
	// walker's reads hit in the cache hierarchy.
	PTBase uint64
}

// DefaultConfig mirrors Table 1.
func DefaultConfig() Config {
	return Config{L1Entries: 32, L2Entries: 512, WalkLevels: 3, PTBase: 0x7f00000000}
}

// Result describes one translation.
type Result struct {
	// Done is the absolute cycle the translation is available.
	Done uint64
	// Fault is true when the page is not present (demand-paging fault).
	// The translation is not installed; the core must run the OS handler
	// and retry after InstallPage.
	Fault bool
	// L1Hit/L2Hit/Walked describe where the translation was found.
	L1Hit  bool
	L2Hit  bool
	Walked bool
}

// invalidPage marks an empty TLB slot. Virtual page numbers are addresses
// shifted right by PageBits, so ^0 can never be a real VPN; seeding empty
// slots with it lets lookups compare page numbers alone.
const invalidPage = ^uint64(0)

// l1tlb is a small fully associative TLB with LRU replacement. Empty slots
// hold invalidPage; valid backs the replacement scan.
type l1tlb struct {
	pages []uint64
	valid []bool
	lru   []uint64
	stamp uint64
	// mru is the slot touched by the last hit or insert. Translation
	// streams hit the same page repeatedly (sequential fetch, stack data),
	// so checking it first short-circuits the associative scan. Skipping
	// the LRU re-stamp on an mru hit is invisible to replacement: the slot
	// already holds the maximum stamp and no other slot changed.
	mru int
}

func newL1(entries int) *l1tlb {
	t := &l1tlb{
		pages: make([]uint64, entries),
		valid: make([]bool, entries),
		lru:   make([]uint64, entries),
	}
	for i := range t.pages {
		t.pages[i] = invalidPage
	}
	return t
}

func (t *l1tlb) lookup(page uint64) bool {
	if t.pages[t.mru] == page {
		return true
	}
	for i := range t.pages {
		if t.pages[i] == page {
			t.stamp++
			t.lru[i] = t.stamp
			t.mru = i
			return true
		}
	}
	return false
}

func (t *l1tlb) insert(page uint64) {
	victim := 0
	for i := range t.pages {
		if !t.valid[i] {
			victim = i
			break
		}
		if t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.pages[victim] = page
	t.valid[victim] = true
	t.stamp++
	t.lru[victim] = t.stamp
	t.mru = victim
}

func (t *l1tlb) invalidate() {
	for i := range t.valid {
		t.valid[i] = false
		t.pages[i] = invalidPage
	}
	t.mru = 0
}

// MMU bundles the I-TLB, D-TLB, shared L2 TLB, walker and the present-page
// set for one simulated hardware thread.
type MMU struct {
	cfg  Config
	itlb *l1tlb
	dtlb *l1tlb

	// l2pages is the direct-mapped L2 TLB; empty slots hold invalidPage.
	// l2mask is L2Entries-1 when that is a power of two (the default 512),
	// turning the index computation into an AND; zero otherwise.
	l2pages []uint64
	l2mask  uint64

	// walkPath is the cache level the page-table walker reads through
	// (the L1D in the real BOOM; configurable for tests).
	walkPath cache.Level

	present    pageSet
	allPresent bool

	// log records installed pages in install order; present is always
	// exactly the set of pages in log (when allPresent is false). Because
	// installs are the only mutation — pages are never evicted — any prefix
	// of the log is an immutable snapshot of an earlier present set, which
	// is what lets CheckpointInto capture the set by reference in O(1) and
	// RestoreFrom replay only the delta since the MMU's previous restore.
	log []uint64
	// applied is the length of the shared checkpoint-log prefix this MMU's
	// present set currently includes; log entries past it are this MMU's
	// own installs (demand faults taken during a detailed leg).
	applied int

	// Stats.
	ITLBMisses, DTLBMisses, L2TLBMisses, Walks, Faults uint64
	// WarmInstalls counts pages first installed through Warm* (functional
	// warming standing in for the OS fault handler); kept apart so the
	// timed miss/walk/fault statistics describe detailed simulation only.
	WarmInstalls uint64
}

// New builds an MMU whose page-table walks read through walkPath.
func New(cfg Config, walkPath cache.Level) *MMU {
	if cfg.L1Entries <= 0 || cfg.L2Entries <= 0 || cfg.WalkLevels <= 0 {
		panic("tlb: invalid config")
	}
	m := &MMU{
		cfg:      cfg,
		itlb:     newL1(cfg.L1Entries),
		dtlb:     newL1(cfg.L1Entries),
		l2pages:  make([]uint64, cfg.L2Entries),
		walkPath: walkPath,
	}
	if n := uint64(cfg.L2Entries); n&(n-1) == 0 {
		m.l2mask = n - 1
	}
	for i := range m.l2pages {
		m.l2pages[i] = invalidPage
	}
	return m
}

// InstallPage marks a page present (what the OS fault handler does) without
// inserting a TLB entry; the retried access walks and fills the TLBs.
func (m *MMU) InstallPage(page uint64) {
	if m.allPresent || !m.present.add(page) {
		return
	}
	m.log = append(m.log, page)
}

// PrefaultAll marks the entire address space present, disabling demand
// paging; used by workloads that model fully warmed-up memory.
func (m *MMU) PrefaultAll() { m.allPresent = true }

// PagePresent reports whether the page has been installed.
func (m *MMU) PagePresent(page uint64) bool { return m.allPresent || m.present.has(page) }

// PresentPages returns the number of installed pages.
func (m *MMU) PresentPages() int { return m.present.n }

func (m *MMU) l2idx(page uint64) int {
	if m.l2mask != 0 {
		return int(page & m.l2mask)
	}
	return int(page % uint64(m.cfg.L2Entries))
}

func (m *MMU) l2lookup(page uint64) bool {
	return m.l2pages[m.l2idx(page)] == page
}

func (m *MMU) l2insert(page uint64) {
	m.l2pages[m.l2idx(page)] = page
}

// translate performs a lookup through the given L1 TLB.
func (m *MMU) translate(t *l1tlb, isData bool, addr uint64, now uint64) Result {
	page := PageOf(addr)
	if t.lookup(page) {
		return Result{Done: now, L1Hit: true}
	}
	if isData {
		m.DTLBMisses++
	} else {
		m.ITLBMisses++
	}
	// L2 TLB: a few cycles.
	now += 2
	if m.l2lookup(page) {
		t.insert(page)
		return Result{Done: now, L2Hit: true}
	}
	m.L2TLBMisses++
	// Hardware page-table walk: WalkLevels dependent reads through the
	// cache hierarchy, at page-table addresses derived from the VPN so
	// walks exhibit realistic locality (nearby pages share PTE lines).
	m.Walks++
	for lvl := 0; lvl < m.cfg.WalkLevels; lvl++ {
		shift := uint(9 * (m.cfg.WalkLevels - 1 - lvl))
		idx := (page >> shift) & 0x1ff
		pteAddr := m.cfg.PTBase + (page>>shift>>9)<<12 + idx*8
		now = m.walkPath.Access(pteAddr, false, now)
	}
	if !m.allPresent && !m.present.has(page) {
		m.Faults++
		return Result{Done: now, Fault: true, Walked: true}
	}
	m.l2insert(page)
	t.insert(page)
	return Result{Done: now, Walked: true}
}

// warmLevel is the optional warming extension of the walker's cache path.
type warmLevel interface {
	Warm(addr uint64, write bool)
}

// warm fills the translation path for addr without timing, statistics or
// faulting: an L1 hit is a no-op (refreshing recency); otherwise the L2 and
// L1 entries are filled, installing an absent page first — the functional
// fast-forward carries the OS fault handler's architectural effect, just
// not its cycles. Where the detailed walker would read page-table entries
// through the cache hierarchy, warming installs those PTE lines as warm
// fills: a workload that thrashes the L2 TLB walks on almost every access,
// and resuming it with the page-table lines evicted (data warming floods
// the caches' LRU) would charge a DRAM-latency walk per miss for the rest
// of the window — a double-digit CPI overestimate on chase workloads.
func (m *MMU) warm(t *l1tlb, addr uint64) {
	page := PageOf(addr)
	if t.lookup(page) {
		return
	}
	if !m.l2lookup(page) {
		if !m.allPresent && m.present.add(page) {
			m.log = append(m.log, page)
			m.WarmInstalls++
		}
		if w, ok := m.walkPath.(warmLevel); ok {
			for lvl := 0; lvl < m.cfg.WalkLevels; lvl++ {
				shift := uint(9 * (m.cfg.WalkLevels - 1 - lvl))
				idx := (page >> shift) & 0x1ff
				pteAddr := m.cfg.PTBase + (page>>shift>>9)<<12 + idx*8
				w.Warm(pteAddr, false)
			}
		}
		m.l2insert(page)
	}
	t.insert(page)
}

// WarmData is the functional fast-forward's bulk warming entry point for
// data accesses.
func (m *MMU) WarmData(addr uint64) { m.warm(m.dtlb, addr) }

// WarmFetch is the functional fast-forward's bulk warming entry point for
// instruction fetches.
func (m *MMU) WarmFetch(addr uint64) { m.warm(m.itlb, addr) }

// TranslateData translates a data access.
func (m *MMU) TranslateData(addr uint64, now uint64) Result {
	return m.translate(m.dtlb, true, addr, now)
}

// TranslateFetch translates an instruction fetch.
func (m *MMU) TranslateFetch(addr uint64, now uint64) Result {
	return m.translate(m.itlb, false, addr, now)
}

// copyFrom overwrites t's entries and recency state with src's. Both TLBs
// must have the same entry count.
func (t *l1tlb) copyFrom(src *l1tlb) {
	if len(t.pages) != len(src.pages) {
		panic("tlb: copyFrom size mismatch")
	}
	copy(t.pages, src.pages)
	copy(t.valid, src.valid)
	copy(t.lru, src.lru)
	t.stamp = src.stamp
	t.mru = src.mru
}

// CopyFrom overwrites m's TLB entries, present-page set and statistics with
// src's. The walk path stays m's own — a checkpoint MMU can live with a nil
// walk path as a pure state container, and restoring into a core keeps the
// walker reading through that core's L1D. The present set's leaves are
// reused, so steady-state copies allocate only when the set grows a leaf.
func (m *MMU) CopyFrom(src *MMU) {
	if m.cfg.L1Entries != src.cfg.L1Entries || m.cfg.L2Entries != src.cfg.L2Entries {
		panic("tlb: CopyFrom config mismatch")
	}
	m.copyShallow(src)
	m.present.copyFrom(&src.present)
	m.log = append(m.log[:0], src.log...)
	m.applied = src.applied
}

// copyShallow copies everything except the present set.
func (m *MMU) copyShallow(src *MMU) {
	m.itlb.copyFrom(src.itlb)
	m.dtlb.copyFrom(src.dtlb)
	copy(m.l2pages, src.l2pages)
	m.allPresent = src.allPresent
	m.ITLBMisses, m.DTLBMisses = src.ITLBMisses, src.DTLBMisses
	m.L2TLBMisses, m.Walks, m.Faults = src.L2TLBMisses, src.Walks, src.Faults
	m.WarmInstalls = src.WarmInstalls
}

// CheckpointInto writes m's state into dst as a pure state container in
// O(TLB size), independent of how many pages are present: the present set is
// captured as a reference to m's append-only install log, whose current
// prefix is immutable. dst must only be read back through RestoreFrom.
func (m *MMU) CheckpointInto(dst *MMU) {
	if m.cfg.L1Entries != dst.cfg.L1Entries || m.cfg.L2Entries != dst.cfg.L2Entries {
		panic("tlb: CheckpointInto config mismatch")
	}
	dst.copyShallow(m)
	dst.log = m.log // shared by reference; the slice length is the snapshot
}

// RestoreFrom rebuilds m's state from a container written by CheckpointInto.
// The present set is restored incrementally: m's own installs past the
// previously applied shared prefix are rolled back, then the shared log's
// delta is replayed — O(pages changed since m's last restore), not O(pages
// present). Checkpoints must be restored in install-log order (the parallel
// sampled scheduler's workers draw jobs from a FIFO, so they always do).
func (m *MMU) RestoreFrom(cp *MMU) {
	if m.cfg.L1Entries != cp.cfg.L1Entries || m.cfg.L2Entries != cp.cfg.L2Entries {
		panic("tlb: RestoreFrom config mismatch")
	}
	if m.applied > len(cp.log) {
		panic("tlb: RestoreFrom out of install-log order")
	}
	m.copyShallow(cp)
	for _, p := range m.log[m.applied:] {
		m.present.remove(p)
	}
	m.log = m.log[:m.applied]
	for _, p := range cp.log[m.applied:] {
		m.present.add(p)
		m.log = append(m.log, p)
	}
	m.applied = len(cp.log)
}

// Reset clears TLBs, present pages and statistics.
func (m *MMU) Reset() {
	m.itlb.invalidate()
	m.dtlb.invalidate()
	for i := range m.l2pages {
		m.l2pages[i] = invalidPage
	}
	m.present.reset()
	m.log = m.log[:0]
	m.applied = 0
	m.allPresent = false
	m.ITLBMisses, m.DTLBMisses, m.L2TLBMisses, m.Walks, m.Faults = 0, 0, 0, 0, 0
	m.WarmInstalls = 0
}

// PrefaultRange installs all pages covering [base, base+size) — used for
// regions that should not demand-fault (e.g. code that the loader touched).
func (m *MMU) PrefaultRange(base, size uint64) {
	for p := PageOf(base); p <= PageOf(base+size-1); p++ {
		m.InstallPage(p)
	}
}
