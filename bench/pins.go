package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// referenceJSON pins the outputs of seeds 1 and 2 at the default sizes:
// per-benchmark SHA-256 of each suite route's evaluations, sampled-long's
// estimated and full-run cycles, and per-key SHA-256 of tipd's warm and cold
// TIP pprof. Regenerate with
//
//	TIP_BENCH_PIN=1 go test -run TestPinReference -timeout 30m
//
//go:embed testdata/reference.json
var referenceJSON []byte

// reference maps seed → workload → key → pinned value.
type reference map[string]map[string]map[string]string

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return ref, nil
}

// fullCyclesSuffix marks a sampled benchmark's pinned full-detail cycle
// count, the ground truth its stitched estimate is scored against.
const fullCyclesSuffix = ".full_cycles"

// checkPins compares a run's digests with the pins for its seed (none for
// unpinned seeds) and, where full-run cycles are pinned, reports each
// sampled estimate's CPI error in acc.
func checkPins(seed uint64, workload string, digests map[string]string, acc map[string]float64) []check {
	ref, err := loadReference()
	if err != nil {
		return []check{{name: "load pins", detail: err.Error()}}
	}
	pins := ref[strconv.FormatUint(seed, 10)][workload]
	if pins == nil {
		return nil
	}
	want := map[string]string{}
	for k, v := range pins {
		if name, ok := strings.CutSuffix(k, fullCyclesSuffix); ok {
			est, err1 := strconv.ParseFloat(digests[name], 64)
			full, err2 := strconv.ParseFloat(v, 64)
			if err1 == nil && err2 == nil {
				acc["cpi_err_pct."+name] = 100 * math.Abs(est-full) / full
			}
			continue
		}
		want[k] = v
	}
	return compareDigests(fmt.Sprintf("seed %d pin", seed), want, digests)
}
