package profiler

import (
	"reflect"
	"testing"

	"github.com/tipprof/tip/internal/sampling"
)

// shardFixture builds sampled profilers with the given sampling periods.
func shardFixture(t *testing.T, periods []uint64) []*Sampled {
	t.Helper()
	p := fig4Program(t)
	out := make([]*Sampled, len(periods))
	for i, period := range periods {
		out[i] = NewSampled(KindNCI, p, sampling.NewPeriodic(period))
	}
	return out
}

func TestShardSampledCoversEveryProfilerOnce(t *testing.T) {
	sampled := shardFixture(t, []uint64{16, 32, 64, 128, 256, 512, 1024})
	for _, w := range []int{1, 2, 3, 7, 12} {
		groups := ShardSampled(w, sampled, 1)
		if want := min(w, len(sampled)+1); len(groups) != want {
			t.Fatalf("w=%d: got %d groups, want %d", w, len(groups), want)
		}
		seen := map[*Sampled]int{}
		for _, g := range groups {
			for _, s := range g {
				seen[s]++
			}
		}
		if len(seen) != len(sampled) {
			t.Fatalf("w=%d: %d distinct profilers assigned, want %d", w, len(seen), len(sampled))
		}
		for s, n := range seen {
			if n != 1 {
				t.Fatalf("w=%d: profiler %p assigned %d times", w, s, n)
			}
		}
	}
}

// TestShardSampledAvoidsLoadedShardZero checks the everyCost pre-load works:
// with a heavy every-cycle tier on shard 0, the sampled profilers land on the
// other shards.
func TestShardSampledAvoidsLoadedShardZero(t *testing.T) {
	sampled := shardFixture(t, []uint64{100, 100, 100, 100})
	groups := ShardSampled(3, sampled, 5) // shard 0 already scans 5 streams/cycle
	if len(groups[0]) != 0 {
		t.Fatalf("shard 0 got %d sampled profilers despite its every-cycle load", len(groups[0]))
	}
	if len(groups[1])+len(groups[2]) != 4 {
		t.Fatalf("sampled tier split %d/%d", len(groups[1]), len(groups[2]))
	}
}

// TestShardSampledBalancesByRate checks a high-rate profiler counts for more
// than a low-rate one: one fast sampler should weigh as much as many slow
// ones rather than being grouped by count.
func TestShardSampledBalancesByRate(t *testing.T) {
	// Period 10 costs 0.1; the four period-1000 profilers cost 0.001 each.
	sampled := shardFixture(t, []uint64{10, 1000, 1000, 1000, 1000})
	groups := ShardSampled(2, sampled, 0)
	var fastGroup int = -1
	for gi, g := range groups {
		for _, s := range g {
			if s == sampled[0] {
				fastGroup = gi
			}
		}
	}
	if fastGroup == -1 {
		t.Fatal("fast profiler unassigned")
	}
	// The fast profiler dominates its shard; all slow ones go to the other.
	if len(groups[fastGroup]) != 1 {
		t.Fatalf("fast profiler shares its shard with %d others", len(groups[fastGroup])-1)
	}
}

func TestShardSampledDeterministic(t *testing.T) {
	sampled := shardFixture(t, []uint64{16, 16, 32, 64, 64, 128})
	a := ShardSampled(4, sampled, 2)
	b := ShardSampled(4, sampled, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same inputs sharded differently")
	}
}

func TestShardSampledDegenerateWorkerCounts(t *testing.T) {
	sampled := shardFixture(t, []uint64{16, 32})
	one := ShardSampled(0, sampled, 1) // w < 1 clamps to 1
	if len(one) != 1 || len(one[0]) != 2 {
		t.Fatalf("w=0: groups %v", one)
	}
	many := ShardSampled(6, sampled, 0)
	nonEmpty := 0
	for _, g := range many {
		if len(g) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("2 profilers across 6 shards occupy %d shards", nonEmpty)
	}
}

// TestShardSampledCapsWorkerCount checks that a worker count past one more
// than the profiler count makes no more groups than that and assigns the
// profilers exactly as that count does.
func TestShardSampledCapsWorkerCount(t *testing.T) {
	sampled := shardFixture(t, []uint64{16, 16, 32, 64, 64, 128})
	for _, everyCost := range []float64{0, 2} {
		capped := ShardSampled(len(sampled)+1, sampled, everyCost)
		huge := ShardSampled(1000, sampled, everyCost)
		if len(huge) > len(sampled)+1 || !reflect.DeepEqual(huge, capped) {
			t.Fatalf("everyCost %v: w=1000 gave %d groups %v; w=%d gave %v", everyCost, len(huge), huge, len(sampled)+1, capped)
		}
	}
}
