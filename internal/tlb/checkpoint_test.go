package tlb

import (
	"testing"

	"github.com/tipprof/tip/internal/cache"
)

// mmuStateEqual compares every piece of MMU state that CopyFrom transfers:
// TLB arrays and recency, present set, install log prefix, and statistics.
func mmuStateEqual(t *testing.T, a, b *MMU) {
	t.Helper()
	for i := range a.itlb.pages {
		if a.itlb.pages[i] != b.itlb.pages[i] || a.itlb.valid[i] != b.itlb.valid[i] || a.itlb.lru[i] != b.itlb.lru[i] {
			t.Fatalf("itlb slot %d differs", i)
		}
	}
	for i := range a.dtlb.pages {
		if a.dtlb.pages[i] != b.dtlb.pages[i] || a.dtlb.valid[i] != b.dtlb.valid[i] || a.dtlb.lru[i] != b.dtlb.lru[i] {
			t.Fatalf("dtlb slot %d differs", i)
		}
	}
	if a.itlb.stamp != b.itlb.stamp || a.itlb.mru != b.itlb.mru ||
		a.dtlb.stamp != b.dtlb.stamp || a.dtlb.mru != b.dtlb.mru {
		t.Fatal("L1 TLB recency state differs")
	}
	for i := range a.l2pages {
		if a.l2pages[i] != b.l2pages[i] {
			t.Fatalf("l2 slot %d differs", i)
		}
	}
	if a.PresentPages() != b.PresentPages() {
		t.Fatalf("present sets differ in size: %d vs %d", a.PresentPages(), b.PresentPages())
	}
	a.present.each(func(p uint64) {
		if !b.present.has(p) {
			t.Fatalf("page %d present in one MMU only", p)
		}
	})
	if a.allPresent != b.allPresent {
		t.Fatal("allPresent differs")
	}
	if a.ITLBMisses != b.ITLBMisses || a.DTLBMisses != b.DTLBMisses ||
		a.L2TLBMisses != b.L2TLBMisses || a.Walks != b.Walks ||
		a.Faults != b.Faults || a.WarmInstalls != b.WarmInstalls {
		t.Fatal("statistics differ")
	}
}

// exercise drives m through a mixed install/translate/warm sequence so every
// copied structure holds non-trivial state.
func exercise(m *MMU, base uint64, n int) {
	for i := 0; i < n; i++ {
		p := base + uint64(i*3%97)
		m.InstallPage(p)
		m.TranslateData(p<<PageBits, 0)
		if i%4 == 0 {
			m.TranslateFetch(p<<PageBits, 0)
		}
		if i%7 == 0 {
			m.WarmData((base + uint64(200+i)) << PageBits)
		}
	}
}

// TestCheckpointRestoreMatchesDeepCopy is the incremental checkpoint's
// correctness contract: CheckpointInto (O(TLB size), log shared by reference)
// followed by RestoreFrom must leave the worker MMU in exactly the state a
// full deep CopyFrom would — even when the worker carries stale installs of
// its own from an earlier leg.
func TestCheckpointRestoreMatchesDeepCopy(t *testing.T) {
	sweep, _ := newMMU(10)
	exercise(sweep, 0, 120)

	// Incremental container (nil walk path: pure state holder) and deep copy.
	cp := New(DefaultConfig(), &cache.FixedLatency{Lat: 10})
	sweep.CheckpointInto(cp)
	deep, _ := newMMU(10)
	deep.CopyFrom(sweep)

	// Worker restores the checkpoint twice, dirtying itself in between with
	// demand installs the rollback must undo.
	worker, _ := newMMU(10)
	worker.RestoreFrom(cp)
	mmuStateEqual(t, deep, worker)

	exercise(worker, 500, 40) // the detailed leg's own faults and fills

	// The sweep moves on; a later checkpoint extends the shared log.
	exercise(sweep, 1000, 60)
	cp2 := New(DefaultConfig(), &cache.FixedLatency{Lat: 10})
	sweep.CheckpointInto(cp2)
	deep2, _ := newMMU(10)
	deep2.CopyFrom(sweep)

	worker.RestoreFrom(cp2)
	mmuStateEqual(t, deep2, worker)
	for _, p := range []uint64{500, 503, 509} { // worker's own installs rolled back
		if worker.present.has(p) && !deep2.present.has(p) {
			t.Fatalf("worker install of page %d survived restore", p)
		}
	}
}

// TestRestoreOutOfOrderPanics pins the FIFO discipline: a worker that has
// applied a long install log cannot restore an older, shorter checkpoint.
func TestRestoreOutOfOrderPanics(t *testing.T) {
	sweep, _ := newMMU(10)
	exercise(sweep, 0, 20)
	early := New(DefaultConfig(), &cache.FixedLatency{Lat: 10})
	sweep.CheckpointInto(early)
	earlyLen := len(early.log)

	exercise(sweep, 100, 20)
	late := New(DefaultConfig(), &cache.FixedLatency{Lat: 10})
	sweep.CheckpointInto(late)
	if len(late.log) <= earlyLen {
		t.Fatal("test needs the second checkpoint to extend the log")
	}

	worker, _ := newMMU(10)
	worker.RestoreFrom(late)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order RestoreFrom did not panic")
		}
	}()
	worker.RestoreFrom(early)
}

// TestResetClearsCheckpointState verifies Reset returns an MMU to a
// restorable-from-scratch state: the applied prefix is forgotten, so a
// subsequent RestoreFrom replays the full log.
func TestResetClearsCheckpointState(t *testing.T) {
	sweep, _ := newMMU(10)
	exercise(sweep, 0, 50)
	cp := New(DefaultConfig(), &cache.FixedLatency{Lat: 10})
	sweep.CheckpointInto(cp)
	deep, _ := newMMU(10)
	deep.CopyFrom(sweep)

	worker, _ := newMMU(10)
	worker.RestoreFrom(cp)
	worker.Reset()
	if worker.applied != 0 || len(worker.log) != 0 || worker.PresentPages() != 0 {
		t.Fatalf("Reset left checkpoint state: applied=%d log=%d present=%d",
			worker.applied, len(worker.log), worker.PresentPages())
	}
	worker.RestoreFrom(cp)
	mmuStateEqual(t, deep, worker)
}

// TestCopyFromRoundTrip pins the deep copy itself: copy, diverge the source,
// and check the copy kept the original state.
func TestCopyFromRoundTrip(t *testing.T) {
	src, _ := newMMU(10)
	exercise(src, 0, 80)
	snap, _ := newMMU(10)
	snap.CopyFrom(src)
	mmuStateEqual(t, src, snap)

	walks := snap.Walks
	exercise(src, 2000, 30) // diverge the source
	if snap.Walks != walks {
		t.Fatal("copy shares statistics with source")
	}
	if snap.PagePresent(2000) {
		t.Fatal("copy shares present set with source")
	}
}
