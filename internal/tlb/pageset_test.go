package tlb

import (
	"fmt"
	"maps"
	"math/bits"
	"testing"

	"github.com/tipprof/tip/internal/cache"
	"github.com/tipprof/tip/internal/xrand"
)

// each calls fn for every page in the set.
func (s *pageSet) each(fn func(page uint64)) {
	for i, block := range s.blocks {
		for k, w := range s.bits[i*leafWords : (i+1)*leafWords] {
			for ; w != 0; w &= w - 1 {
				fn(block<<leafBits | uint64(k)<<6 | uint64(bits.TrailingZeros64(w)))
			}
		}
	}
}

// setMatches checks s against ref in both directions and by count.
func setMatches(t *testing.T, label string, s *pageSet, ref map[uint64]bool) {
	t.Helper()
	if s.n != len(ref) {
		t.Fatalf("%s: %d pages, reference %d", label, s.n, len(ref))
	}
	for p := range ref {
		if !s.has(p) {
			t.Fatalf("%s: page %#x missing", label, p)
		}
	}
	seen := 0
	s.each(func(p uint64) {
		seen++
		if !ref[p] {
			t.Fatalf("%s: page %#x present, not in the reference", label, p)
		}
	})
	if seen != s.n {
		t.Fatalf("%s: bitmaps hold %d pages, count says %d", label, seen, s.n)
	}
}

// regionPages are the first pages of the regions the workloads touch (code,
// main data, stores, stack, faults), plus one far past them.
var regionPages = [...]uint64{0x10, 0x10_0000, 0x20_0000, 0x70_0000, 0xf0_0000, 0xfff_ffff_ffff}

// fuzzPage spreads a byte over the regions and across leaf boundaries
// (offsets reach about two leaves past each region's start).
func fuzzPage(b byte) uint64 {
	return regionPages[int(b)%len(regionPages)] + uint64(b/8)*2111
}

// TestPageSetMatchesMap drives add, remove, copy and reset through the set
// and a map reference.
func TestPageSetMatchesMap(t *testing.T) {
	rng := xrand.New(7)
	var s, c pageSet
	ref := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		p := fuzzPage(byte(rng.Uint64()))
		if rng.Uint64()%4 == 0 {
			p += rng.Uint64() % (3 << leafBits) // wider spread, new leaves
		}
		switch op := rng.Uint64() % 100; {
		case op < 55:
			if got := s.add(p); got == ref[p] {
				t.Fatalf("op %d: add(%#x) reported absent=%v with reference holding it=%v", i, p, got, ref[p])
			}
			ref[p] = true
		case op < 90:
			s.remove(p)
			delete(ref, p)
		case op < 97:
			if s.has(p) != ref[p] {
				t.Fatalf("op %d: has(%#x) = %v, reference %v", i, p, s.has(p), ref[p])
			}
		case op < 99:
			c.copyFrom(&s)
			setMatches(t, fmt.Sprintf("op %d copy", i), &c, ref)
			c.add(p ^ 1) // a copy shares no storage with its source
		default:
			s.reset()
			clear(ref)
		}
	}
	setMatches(t, "end", &s, ref)
}

// mmuRef is the reference for one MMU's present set.
type mmuRef struct {
	m       *MMU
	present map[uint64]bool
}

func (r *mmuRef) check(t *testing.T, label string, pages []uint64) {
	t.Helper()
	if r.m.PresentPages() != len(r.present) {
		t.Fatalf("%s: PresentPages %d, reference %d", label, r.m.PresentPages(), len(r.present))
	}
	for _, p := range pages {
		if r.m.PagePresent(p) != r.present[p] {
			t.Fatalf("%s: PagePresent(%#x) = %v, reference %v", label, p, r.m.PagePresent(p), r.present[p])
		}
	}
	setMatches(t, label, &r.m.present, r.present)
}

// FuzzPresentSet runs installs, warming, translations, checkpoints and
// log-order restores through a sweep MMU and a worker MMU, tracking each
// present set in a map: membership, counts and demand faults must agree with
// it after every step.
func FuzzPresentSet(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 4, 0, 5, 9, 6, 17, 4, 0, 3, 0, 4, 0})
	f.Add([]byte{1, 40, 1, 48, 3, 0, 5, 40, 6, 41, 7, 48, 1, 56, 3, 0, 4, 0, 4, 0, 5, 41})
	f.Fuzz(func(t *testing.T, ops []byte) {
		newM := func() *MMU { return New(DefaultConfig(), &cache.FixedLatency{Lat: 3}) }
		sweep := &mmuRef{newM(), map[uint64]bool{}}
		worker := &mmuRef{newM(), map[uint64]bool{}}
		type snap struct {
			cp      *MMU
			present map[uint64]bool
		}
		var queue []snap // checkpoints in install-log order, not yet restored
		var pages []uint64
		for k := 0; k+1 < len(ops); k += 2 {
			op, p := ops[k]%8, fuzzPage(ops[k+1])
			pages = append(pages, p)
			label := fmt.Sprintf("op %d (%d, page %#x)", k/2, op, p)
			switch op {
			case 0: // the sweep's OS handler
				sweep.m.InstallPage(p)
				sweep.present[p] = true
			case 1: // the sweep's functional warming
				sweep.m.WarmData(p << PageBits)
				sweep.present[p] = true
			case 2:
				sweep.m.WarmFetch(p << PageBits)
				sweep.present[p] = true
			case 3: // checkpoint
				cp := New(DefaultConfig(), nil)
				sweep.m.CheckpointInto(cp)
				queue = append(queue, snap{cp, maps.Clone(sweep.present)})
			case 4: // restore the next queued checkpoint, skipping p%2 of them
				skip := int(p % 2)
				if len(queue) <= skip {
					break
				}
				next := queue[skip]
				queue = queue[skip+1:]
				worker.m.RestoreFrom(next.cp)
				worker.present = maps.Clone(next.present)
			case 5: // the worker's own demand faults
				worker.m.InstallPage(p)
				worker.present[p] = true
			case 6:
				if r := worker.m.TranslateData(p<<PageBits, 0); r.Fault != !worker.present[p] {
					t.Fatalf("%s: translation fault=%v, reference present=%v", label, r.Fault, worker.present[p])
				}
			case 7:
				worker.m.WarmData(p << PageBits)
				worker.present[p] = true
			}
			sweep.check(t, label+" sweep", pages)
			worker.check(t, label+" worker", pages)
		}
	})
}
