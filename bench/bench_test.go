package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/workload"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10.5, 9.25, 11.0, 10.0, 9.75, 10.25, 12.5, 10.75, 9.5, 10.1}, 9.6875, 10.175, 10.8125},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != q2 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, q2)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{7}, 7},
	} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("geomean of no samples is not NaN")
	}
}

// ramp returns 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{n: 10000, pct: 99.9, beyond: 10, ok: true},
		{n: 4000, pct: 99, beyond: 40, ok: true},
		{n: 1000, pct: 99, beyond: 10, ok: true},
		{n: 400, pct: 97.5, beyond: 10, ok: true},
		{n: 399, pct: 95, beyond: 19, ok: true},
		{n: 200, pct: 95, beyond: 10, ok: true},
		{n: 54, pct: 75, beyond: 13, ok: true},
		{n: 20, pct: 50, beyond: 10, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	} {
		pct, v, beyond, ok := tailPercentile(ramp(tc.n))
		if ok != tc.ok || (ok && (pct != tc.pct || beyond != tc.beyond)) {
			t.Errorf("n=%d: got p%g beyond %d ok %v, want p%g beyond %d ok %v", tc.n, pct, beyond, ok, tc.pct, tc.beyond, tc.ok)
			continue
		}
		// On 1..n the nearest-rank value is the rank itself.
		if ok && v != float64(tc.n-beyond) {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, float64(tc.n-beyond))
		}
	}
}

func TestHostFactor(t *testing.T) {
	// One timing every 100 ms: 40 at 1×nominal, then 40 at 2×nominal.
	t0 := time.Unix(0, 0)
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * 100 * time.Millisecond) }
	var l hostLog
	for i := 0; i < 80; i++ {
		l.at = append(l.at, at(i))
		d := refNominal
		if i >= 40 {
			d = 2 * refNominal
		}
		l.dur = append(l.dur, d)
	}
	for _, tc := range []struct {
		name     string
		from, to time.Time
		want     float64
	}{
		{"interval with enough timings inside", at(40), at(79), 2},
		{"short interval widened to both sides", at(20), at(21), 1},
		{"widened evenly across the change", at(39), at(40), 1.5},
		{"at the end, widened backwards only", at(79).Add(time.Second), at(79).Add(2 * time.Second), 2},
		{"whole run", at(0), at(79), 1.5},
	} {
		if got := l.factor(tc.from, tc.to); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: factor %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := l.overall(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("overall %v, want 1.5", got)
	}
}

// around returns ten values spread ±2% around m.
func around(m float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = m * (1 + 0.02*float64(i%5-2)/2)
	}
	return out
}

func TestCompareRule(t *testing.T) {
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		base, head []float64
		lower      bool
		want       string
	}{
		{"unchanged", around(10), around(10), true, "ok"},
		{"within bound", around(10), scale(around(10), 1.05), true, "ok"},
		{"regression", around(10), scale(around(10), 1.2), true, "regression"},
		{"gain lower", around(10), scale(around(10), 0.9), true, "gain"},
		{"gain higher", around(10), scale(around(10), 1.1), false, "gain"},
		{"higher regression", around(10), scale(around(10), 0.8), false, "regression"},
		// The base spread (100%) is wider than the bound: no verdict.
		{"unresolved", ramp(10), scale(ramp(10), 1.05), true, "unresolved"},
		// Every head run beats every base run, but the medians differ by less
		// than the base spread: not a gain, yet resolved.
		{"all better", ramp(10), scale(ramp(10), 0.05), true, "ok"},
		// Head wins 8 of 10 pairs: not a gain.
		{"eight of ten", around(10), append(scale(around(10)[:8], 0.9), scale(around(10)[8:], 1.01)...), true, "ok"},
	} {
		v := compareRuns(tc.base, tc.head, tc.lower, 0.1)
		if v.Outcome != tc.want {
			t.Errorf("%s: %s (worse %.3f spread %.3f wins %d/%d), want %s", tc.name, v.Outcome, v.Worse, v.Spread, v.Wins, v.Pairs, tc.want)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if fmt.Sprint(bf.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end %v\nwant %v", bf.EndToEnd, endToEnd)
	}
	if fmt.Sprint(bf.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer %v\nwant %v", bf.PerLayer, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d is %+v, code has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || !m.lowerIsBetter() {
		t.Errorf("the first end-to-end metric must be setup_s, lower-is-better, in s; got %+v", m)
	}
}

// tinySizes runs every workload in a few seconds.
var tinySizes = sizes{
	suiteScale:        20_000,
	tipErrCeilingPct:  5,
	suiteBenches:      []string{"x264", "imagick", "mcf"},
	sampledScale:      300_000,
	sampledBenches:    []string{"mcf", "x264"},
	sampledProbeScale: 50_000,
	fleetScale:        20_000,
	fleetBenches:      []string{"x264", "mcf"},
	fleetJobs:         12,
	proxyGets:         10,
}

// TestSmoke runs every workload at tiny scale for one pass, traced, and
// checks that every metric BENCHMARK.json names is emitted with its unit
// and that no operation failed.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	bf := readBenchmarkFile(t)
	var out bytes.Buffer
	recs, err := execute(context.Background(), options{workloads: workloads, seed: 1, trace: true}, tinySizes, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(workloads) {
		t.Fatalf("%d records for %d workloads", len(recs), len(workloads))
	}
	for _, rec := range recs {
		if rec.Failed != 0 || rec.FailedPct != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", rec.Workload, rec.Failed, rec.Attempted, rec.Failures)
		}
		for _, want := range []struct {
			defs  []metricDef
			trace bool
		}{{bf.EndToEnd, false}, {bf.PerLayer, true}} {
			var last bytes.Buffer
			if err := printResult(&last, []runRecord{rec}, want.trace); err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(last.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want.defs) {
				t.Errorf("%s: result %s", rec.Workload, last.String())
			}
			for _, m := range want.defs {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %+v, want a number in %s", rec.Workload, m.Name, got, m.Unit)
				}
				if !lineRE(rec.Workload, m).MatchString(out.String()) {
					t.Errorf("%s: no output line for %s", rec.Workload, m.Name)
				}
			}
		}
	}
}

func lineRE(workload string, m metricDef) *regexp.Regexp {
	return regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(workload+" "+m.Name) + ` \S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
}

// TestPinReference regenerates testdata/reference.json; it only runs when
// TIP_BENCH_PIN is set:
//
//	TIP_BENCH_PIN=1 go test -run TestPinReference -timeout 30m
func TestPinReference(t *testing.T) {
	if os.Getenv("TIP_BENCH_PIN") == "" {
		t.Skip("set TIP_BENCH_PIN=1 to regenerate testdata/reference.json")
	}
	sz := defaultSizes
	sz.pinned = false
	ref := reference{}
	for _, seed := range []uint64{1, 2} {
		bySeed := map[string]map[string]string{}
		for _, w := range workloads {
			r, err := measure(context.Background(), w, seed, sz, 0)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed > 0 {
				t.Fatalf("seed %d %s: %v", seed, w.name, r.failures)
			}
			bySeed[w.name] = r.digests
		}
		for _, b := range sz.sampledBenches {
			wl, err := workload.LoadScaled(b, seed, sz.sampledScale)
			if err != nil {
				t.Fatal(err)
			}
			st, err := tip.MeasureStats(wl, cpu.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			bySeed["sampled-long"][b+fullCyclesSuffix] = strconv.FormatUint(st.Cycles, 10)
		}
		ref[strconv.FormatUint(seed, 10)] = bySeed
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/reference.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote testdata/reference.json: %s", strings.Join(sortedKeys(ref), ", "))
}
