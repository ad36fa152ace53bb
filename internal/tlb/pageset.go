package tlb

// pageSet is the MMU's present-page set: one bitmap leaf per aligned block
// of 1<<leafBits pages, found by a short scan over the leaves' block numbers.
// The workloads touch a handful of regions — code, main data, the store
// region, the stack and the fault region — each inside one or two blocks, so
// a membership test is a few compares and a bit test, with no hashing.
// Leaves are never freed before reset; a leaf whose pages were all removed
// stays in place, empty.
type pageSet struct {
	blocks []uint64 // block number (page >> leafBits) of each leaf
	// bits holds the leaves back to back: leaf i is
	// bits[i*leafWords : (i+1)*leafWords].
	bits []uint64
	n    int // number of pages in the set
	// last is the leaf the previous lookup found, tried first: lookups
	// cluster in the data region a program is streaming through.
	last int
}

const (
	// leafBits sizes a leaf at 32768 pages (128 MiB of address space, a
	// 4 KiB bitmap).
	leafBits  = 15
	leafWords = 1 << leafBits / 64
	leafMask  = 1<<leafBits - 1
)

// leaf returns the index of the leaf covering page, or -1.
func (s *pageSet) leaf(page uint64) int {
	block := page >> leafBits
	if s.last < len(s.blocks) && s.blocks[s.last] == block {
		return s.last
	}
	for i, b := range s.blocks {
		if b == block {
			s.last = i
			return i
		}
	}
	return -1
}

// word returns the bitmap word holding page in leaf i, and page's bit in it.
func (s *pageSet) word(i int, page uint64) (*uint64, uint64) {
	off := page & leafMask
	return &s.bits[i*leafWords+int(off>>6)], 1 << (off & 63)
}

// has reports whether page is in the set.
func (s *pageSet) has(page uint64) bool {
	i := s.leaf(page)
	if i < 0 {
		return false
	}
	w, bit := s.word(i, page)
	return *w&bit != 0
}

// add inserts page and reports whether it was absent.
func (s *pageSet) add(page uint64) bool {
	i := s.leaf(page)
	if i < 0 {
		i = len(s.blocks)
		s.blocks = append(s.blocks, page>>leafBits)
		s.bits = append(s.bits, make([]uint64, leafWords)...)
		s.last = i
	}
	w, bit := s.word(i, page)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	s.n++
	return true
}

// remove deletes page if present.
func (s *pageSet) remove(page uint64) {
	i := s.leaf(page)
	if i < 0 {
		return
	}
	if w, bit := s.word(i, page); *w&bit != 0 {
		*w &^= bit
		s.n--
	}
}

// copyFrom makes s an independent copy of src, reusing s's storage.
func (s *pageSet) copyFrom(src *pageSet) {
	s.blocks = append(s.blocks[:0], src.blocks...)
	s.bits = append(s.bits[:0], src.bits...)
	s.n = src.n
	s.last = src.last
}

// reset empties the set, keeping its storage for reuse.
func (s *pageSet) reset() {
	s.blocks = s.blocks[:0]
	s.bits = s.bits[:0]
	s.n = 0
	s.last = 0
}
