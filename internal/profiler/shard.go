package profiler

import "sort"

// ShardSampled partitions sampled profilers into at most w groups for a
// sharded replay, balancing each group's expected dispatcher work. A
// sampled profiler's steady-state cost is proportional to its sampling rate
// — it takes one sample per period, and its deferred samples are visited
// only on the cycles whose events can resolve them — so the cost model is
// 1/Period.
//
// Group 0 is assumed to also carry the every-cycle tier (Oracle, checker,
// extra full-rate consumers); everyCost pre-loads it with that tier's
// per-cycle cost (1.0 per every-cycle consumer) so the greedy assignment
// steers sampled work away from the worker that already scans every record.
//
// The assignment is longest-processing-time greedy with deterministic
// tie-breaking (cost, then registration order), so a given matrix always
// shards the same way. Groups may come back empty when there are fewer
// profilers than workers; callers should skip spawning workers for them.
// w is clamped to [1, len(sampled)+1]: past that, every further group
// would stay empty, so the clamp leaves the assignment as it is and bounds
// the allocation however large a worker count the caller passes.
func ShardSampled(w int, sampled []*Sampled, everyCost float64) [][]*Sampled {
	w = min(max(w, 1), len(sampled)+1)
	groups := make([][]*Sampled, w)
	load := make([]float64, w)
	load[0] = everyCost

	order := make([]int, len(sampled))
	for i := range order {
		order[i] = i
	}
	cost := func(s *Sampled) float64 {
		p := s.Period()
		if p == 0 {
			return 1
		}
		return 1 / float64(p)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cost(sampled[order[a]]) > cost(sampled[order[b]])
	})
	for _, i := range order {
		s := sampled[i]
		lightest := 0
		for g := 1; g < w; g++ {
			if load[g] < load[lightest] {
				lightest = g
			}
		}
		groups[lightest] = append(groups[lightest], s)
		load[lightest] += cost(s)
	}
	return groups
}
