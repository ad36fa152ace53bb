package profiler

import (
	"math"
	"testing"

	"github.com/tipprof/tip/internal/profile"
)

func TestCategorizeSampleMapping(t *testing.T) {
	p := fig4Program(t)
	cases := []struct {
		flags SampleFlags
		idx   int32
		want  profile.Category
	}{
		{0, idxI1, profile.CatExecution},
		{FlagStalled, idxI1, profile.CatALUStall},
		{FlagStalled, idxLoad, profile.CatLoadStall},
		{FlagStalled | FlagMispredicted, idxBranch, profile.CatMispredict},
		{FlagStalled | FlagFlush, idxDummy2, profile.CatMiscFlush},
		{FlagStalled | FlagException, idxLoad, profile.CatMiscFlush},
		{FlagStalled | FlagFrontend, idxI3, profile.CatFrontend},
		{FlagStalled, -1, profile.CatALUStall}, // unknown instruction
	}
	for _, c := range cases {
		if got := CategorizeSample(c.flags, p, c.idx); got != c.want {
			t.Errorf("flags %b idx %d: got %v, want %v", c.flags, c.idx, got, c.want)
		}
	}
}

func TestSampleFlagsHas(t *testing.T) {
	f := FlagStalled | FlagFlush
	if !f.Has(FlagStalled) || !f.Has(FlagFlush) || f.Has(FlagMispredicted) {
		t.Fatal("Has logic wrong")
	}
}

// TestTIPCategoriesMatchOracleStack: sampling every cycle, TIP's sampled
// cycle stack equals Oracle's exact one.
func TestTIPCategoriesMatchOracleStack(t *testing.T) {
	p := fig4Program(t)
	s := newSeq(p)
	s.cycle(ent{idx: idxDummy, committing: true})
	s.cycle(ent{idx: idxDummy, committing: true})
	loadFID := uint64(40)
	s.cycle(ent{idx: idxI1, committing: true}, ent{idx: idxLoad, fid: loadFID})
	for i := 0; i < 10; i++ {
		s.cycle(ent{idx: idxLoad, fid: loadFID})
	}
	s.cycle(ent{idx: idxLoad, committing: true, fid: loadFID})
	s.cycle(ent{idx: idxBranch, committing: true, mispredicted: true})
	s.cycle()
	s.cycle()
	s.cycle(ent{idx: idxI5, committing: true}, ent{idx: idxI6, committing: true})

	or := NewOracle(p, true)
	tip := NewSampled(KindTIP, p, everyCycle{})
	tip.EnableCategories(true)
	s.run(or, tip)

	for c := 0; c < profile.NumCategories; c++ {
		want := or.Stack.Cycles[c]
		got := tip.Categories.Stack.Cycles[c]
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("category %v: TIP %v, Oracle %v", profile.Category(c), got, want)
		}
	}
	// Per-function stacks agree too (ceil holds everything here).
	of := or.FunctionStack("main")
	tf := tip.Categories.FunctionStack("main")
	if math.Abs(of.Cycles[profile.CatLoadStall]-tf.Cycles[profile.CatLoadStall]) > 1e-9 {
		t.Errorf("function load-stall cycles: TIP %v, Oracle %v",
			tf.Cycles[profile.CatLoadStall], of.Cycles[profile.CatLoadStall])
	}
}

func TestCategoryProfileWithoutBreakdown(t *testing.T) {
	p := fig4Program(t)
	cp := NewCategoryProfile(p, false)
	cp.Add(FlagStalled, idxLoad, 5)
	if cp.Stack.Cycles[profile.CatLoadStall] != 5 {
		t.Fatal("stack not accumulated")
	}
	if st := cp.FunctionStack("main"); st.Total != 0 {
		t.Fatal("function stack should be empty without breakdown")
	}
}

func TestCategoryProfileIgnoresBadIndex(t *testing.T) {
	p := fig4Program(t)
	cp := NewCategoryProfile(p, true)
	cp.Add(FlagStalled|FlagFrontend, -1, 3)
	if cp.Stack.Cycles[profile.CatFrontend] != 3 {
		t.Fatal("stack should still accumulate")
	}
	cp.Add(0, int32(p.NumInsts()+5), 2)
	if cp.Stack.Cycles[profile.CatExecution] != 2 {
		t.Fatal("stack should still accumulate for out-of-range index")
	}
}
