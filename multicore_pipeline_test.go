package tip

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/multicore"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// goldenCaptureMulticorePath holds a gzipped TIPTRC3 stream captured from a
// pinned two-core run (mcf co-running with x264 over the shared LLC). Like
// the single-core golden it pins byte-exact determinism of the whole capture
// path — here additionally the lockstep interleaving and the core-ID deltas.
const goldenCaptureMulticorePath = "testdata/golden_capture_multicore.trc.gz"

func loadScaled(t *testing.T, name string, scale uint64) *Workload {
	t.Helper()
	w, err := workload.LoadScaled(name, 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// mcPair loads the canonical two-core test pair: mcf (DRAM-bound) and x264
// (compute-lean), freshly instantiated so every capture starts from the
// same stream state.
func mcPair(t *testing.T, scale uint64) []*Workload {
	return []*Workload{loadScaled(t, "mcf", scale), loadScaled(t, "x264", scale)}
}

// TestCaptureMulticoreMatchesGolden re-captures the pinned two-core run and
// compares the encoded TIPTRC3 stream byte-for-byte against the committed
// golden. Regenerate (only when the trace format or core model deliberately
// changes) with:
//
//	TIP_GEN_GOLDEN_CAPTURE=1 go test -run TestCaptureMulticoreMatchesGolden .
func TestCaptureMulticoreMatchesGolden(t *testing.T) {
	capt, _, err := CaptureMulticore(nil, mcPair(t, 8_000), DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()
	var got bytes.Buffer
	if _, err := capt.WriteTo(&got); err != nil {
		t.Fatal(err)
	}

	if os.Getenv("TIP_GEN_GOLDEN_CAPTURE") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenCaptureMulticorePath), 0o755); err != nil {
			t.Fatal(err)
		}
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		if _, err := zw.Write(got.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCaptureMulticorePath, gz.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d raw bytes (%d gzipped), %d cycles, %d records",
			goldenCaptureMulticorePath, got.Len(), gz.Len(), capt.Cycles(), capt.Records())
		return
	}

	f, err := os.Open(goldenCaptureMulticorePath)
	if err != nil {
		t.Fatalf("missing golden multicore capture (regenerate with TIP_GEN_GOLDEN_CAPTURE=1): %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < len(want) && i < got.Len() && got.Bytes()[i] == want[i] {
			i++
		}
		t.Fatalf("multicore capture diverged from golden: got %d bytes, want %d, first difference at offset %d",
			got.Len(), len(want), i)
	}
}

// sameProfiles fails the test unless two results carry exactly equal Oracle
// and per-kind sampled profiles. "Exactly" is the contract: the replayed
// path must reproduce the direct path's attributed cycles bit for bit, so
// float tolerance would hide real divergence.
func sameProfiles(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ao, bo := a.Oracle.Profile, b.Oracle.Profile
	if len(ao.InstCycles) != len(bo.InstCycles) {
		t.Fatalf("%s: oracle profile sizes differ", label)
	}
	for i := range ao.InstCycles {
		if ao.InstCycles[i] != bo.InstCycles[i] {
			t.Fatalf("%s: oracle inst %d differs: %v vs %v", label, i, ao.InstCycles[i], bo.InstCycles[i])
		}
	}
	if len(a.Sampled) != len(b.Sampled) {
		t.Fatalf("%s: sampled profiler sets differ", label)
	}
	for k, sa := range a.Sampled {
		sb, ok := b.Sampled[k]
		if !ok {
			t.Fatalf("%s: %v missing from second result", label, k)
		}
		for i := range sa.Profile.InstCycles {
			if sa.Profile.InstCycles[i] != sb.Profile.InstCycles[i] {
				t.Fatalf("%s: %v inst %d differs: %v vs %v",
					label, k, i, sa.Profile.InstCycles[i], sb.Profile.InstCycles[i])
			}
		}
	}
}

// TestSingleCoreMulticoreMatchesPipeline is the v3 metamorphic anchor: a
// one-core multicore run through the TIPTRC3 capture/demux path must
// produce exactly the profiles the single-core TIPTRC2 pipeline produces
// for the same workload — same core stepping, same cache topology (the
// private stack at physical offset 0 over its own LLC), same calibrated
// interval, so any divergence is a v3 codec or demux bug.
func TestSingleCoreMulticoreMatchesPipeline(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Check = true

	single, err := Run(loadScaled(t, "imagick", 60_000), rc)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulticore(context.Background(), []*Workload{loadScaled(t, "imagick", 60_000)}, rc)
	if err != nil {
		t.Fatal(err)
	}
	mc := multi.Cores[0]
	if single.Stats.Cycles != mc.Stats.Cycles {
		t.Fatalf("cycle counts differ: single %d, multicore %d", single.Stats.Cycles, mc.Stats.Cycles)
	}
	if single.SampleInterval != mc.SampleInterval {
		t.Fatalf("calibrated intervals differ: single %d, multicore %d", single.SampleInterval, mc.SampleInterval)
	}
	sameProfiles(t, "single vs 1-core multicore", single, mc)
}

// TestMulticoreReplayWorkerInvariance pins that fanning the per-core
// matrices over more replay shards never changes any core's profiles: a
// capture replayed with ReplayWorkers 1 and 4 must agree exactly per core.
func TestMulticoreReplayWorkerInvariance(t *testing.T) {
	capt, stats, err := CaptureMulticore(nil, mcPair(t, 30_000), DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()

	rc := DefaultRunConfig()
	rc.Check = true
	results := make([]*MulticoreResult, 0, 2)
	for _, workers := range []int{1, 4} {
		rc.ReplayWorkers = workers
		res, err := RunMulticoreCaptured(context.Background(), mcPair(t, 30_000), capt, stats, rc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, res)
	}
	for core := range results[0].Cores {
		sameProfiles(t, "workers 1 vs 4", results[0].Cores[core], results[1].Cores[core])
	}
}

// TestRunMulticoreCapturedAbortsOnConsumerFault is the multicore twin of
// TestRunCapturedAbortsOnConsumerFault. ExtraConsumers are rejected on this
// route, so the failing consumer is each core's invariant checker, fed a
// capture whose core-0 commit counts are corrupted from a quarter of the
// way in: the replay must stop within a poll interval of the first
// violation, at one worker as at four, rather than stream on and collect
// one violation per corrupted record.
func TestRunMulticoreCapturedAbortsOnConsumerFault(t *testing.T) {
	capt, stats, err := CaptureMulticore(nil, mcPair(t, 30_000), DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()
	var plain collectRecords
	if _, _, err := capt.Replay(&plain); err != nil {
		t.Fatal(err)
	}
	bad := trace.NewCaptureV3()
	defer bad.Close()
	corrupted := 0
	for i := range plain.recs {
		r := &plain.recs[i]
		if i >= len(plain.recs)/4 && r.Core == 0 && r.CommitCount > 0 {
			r.CommitCount++
			corrupted++
		}
		bad.OnCycle(r)
	}
	bad.Finish(capt.Cycles())
	if corrupted < 4*trace.DefaultChunkRecords {
		t.Fatalf("only %d corrupted records; the test needs a longer capture", corrupted)
	}

	for _, workers := range []int{1, 4} {
		rc := DefaultRunConfig()
		rc.Check = true
		rc.ReplayWorkers = workers
		res, err := RunMulticoreCaptured(context.Background(), mcPair(t, 30_000), bad, stats, rc)
		if err == nil || !strings.Contains(err.Error(), "commit-count") {
			t.Fatalf("workers=%d: err = %v, want the checker's commit-count violation", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: got a result from a failed replay", workers)
		}
		var n int
		if _, scanErr := fmt.Sscanf(err.Error()[strings.Index(err.Error(), "check: "):], "check: %d", &n); scanErr != nil {
			t.Fatalf("workers=%d: no violation count in %q: %v", workers, err, scanErr)
		}
		if n > 2*trace.DefaultChunkRecords {
			t.Fatalf("workers=%d: %d violations of %d corrupted records; the replay did not stop at the first poll", workers, n, corrupted)
		}
	}
}

// TestRunMulticoreRejectsSampled pins that both multicore entry points refuse
// a sampled RunConfig instead of silently running it in full detail.
func TestRunMulticoreRejectsSampled(t *testing.T) {
	rc := DefaultRunConfig()
	if err := ConfigureSampled(&rc, 0, 0, ""); err != nil {
		t.Fatal(err)
	}
	if res, err := RunMulticore(context.Background(), mcPair(t, 5_000), rc); !errors.Is(err, errMulticoreSampled) || res != nil {
		t.Fatalf("RunMulticore: result %v, err %v; want a sampled rejection", res, err)
	}
	capt, stats, err := CaptureMulticore(nil, mcPair(t, 5_000), rc.Core)
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()
	if res, err := RunMulticoreCaptured(context.Background(), mcPair(t, 5_000), capt, stats, rc); !errors.Is(err, errMulticoreSampled) || res != nil {
		t.Fatalf("RunMulticoreCaptured: result %v, err %v; want a sampled rejection", res, err)
	}
}

// TestRunMulticoreRejectsExtraConsumers pins that both multicore entry
// points refuse extra consumers, which would each see one core's filtered
// stream, instead of silently dropping them.
func TestRunMulticoreRejectsExtraConsumers(t *testing.T) {
	capt, stats, err := CaptureMulticore(nil, mcPair(t, 5_000), DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()
	for name, set := range map[string]func(*RunConfig){
		"ExtraConsumers": func(rc *RunConfig) { rc.ExtraConsumers = []trace.Consumer{&trace.CountingConsumer{}} },
		"ExtraConsumersAt": func(rc *RunConfig) {
			rc.ExtraConsumersAt = func(uint64, uint64) []trace.Consumer { return nil }
		},
	} {
		rc := DefaultRunConfig()
		set(&rc)
		if res, err := RunMulticore(context.Background(), mcPair(t, 5_000), rc); !errors.Is(err, errMulticoreExtras) || res != nil {
			t.Fatalf("%s: RunMulticore: result %v, err %v; want an extra-consumer rejection", name, res, err)
		}
		if res, err := RunMulticoreCaptured(context.Background(), mcPair(t, 5_000), capt, stats, rc); !errors.Is(err, errMulticoreExtras) || res != nil {
			t.Fatalf("%s: RunMulticoreCaptured: result %v, err %v; want an extra-consumer rejection", name, res, err)
		}
	}
}

// collectRecords decodes a capture into plaintext record copies.
type collectRecords struct {
	recs []trace.Record
}

func (c *collectRecords) OnCycle(r *trace.Record) { c.recs = append(c.recs, *r) }
func (c *collectRecords) Finish(uint64)           {}

// TestMulticoreRelabelingSwapsProfiles pins the demux layer's symmetry
// under core relabeling: re-encoding a two-core capture with the core IDs
// swapped (0↔1) and replaying it with the workload/stats assignment swapped
// must swap the per-core profiles exactly. (Swapping the *workload
// placement* at capture time is deliberately not exact: the lockstep loop
// arbitrates same-cycle shared-LLC accesses in core order, so physical
// placement changes timing — the same reason placement matters on real
// hardware; DESIGN.md §12 records this.)
func TestMulticoreRelabelingSwapsProfiles(t *testing.T) {
	ws := mcPair(t, 30_000)
	capt, stats, err := CaptureMulticore(nil, ws, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()

	rc := DefaultRunConfig()
	rc.SampleInterval = 53
	rc.Check = true
	orig, err := RunMulticoreCaptured(context.Background(), ws, capt, stats, rc)
	if err != nil {
		t.Fatal(err)
	}

	// Relabel: decode, flip the core tags, re-encode as v3.
	var all collectRecords
	if _, _, err := capt.Replay(&all); err != nil {
		t.Fatal(err)
	}
	w := trace.NewCaptureV3()
	defer w.Close()
	for i := range all.recs {
		all.recs[i].Core ^= 1
		w.OnCycle(&all.recs[i])
	}
	w.Finish(capt.Cycles())
	relabeled, err := trace.NewCaptureFromEncoded(encoded(t, w), capt.Records(), capt.Cycles())
	if err != nil {
		t.Fatal(err)
	}

	swapped, err := RunMulticoreCaptured(context.Background(),
		[]*Workload{ws[1], ws[0]}, relabeled, []CoreStats{stats[1], stats[0]}, rc)
	if err != nil {
		t.Fatal(err)
	}
	sameProfiles(t, "core 0 vs relabeled core 1", orig.Cores[0], swapped.Cores[1])
	sameProfiles(t, "core 1 vs relabeled core 0", orig.Cores[1], swapped.Cores[0])
}

// TestPerCoreTIPAccurateThroughReplay is the acceptance-criterion test: the
// captured/replayed multicore path must (a) reproduce the direct lockstep
// run's per-core profiles byte-identically and (b) keep each core's TIP
// profile accurate against that core's own Oracle under shared-LLC
// contention, mirroring internal/multicore's direct-path contention test.
func TestPerCoreTIPAccurateThroughReplay(t *testing.T) {
	ws := mcPair(t, 50_000)
	rc := DefaultRunConfig()
	rc.SampleInterval = 53
	rc.Check = true

	// Direct path: the same per-core matrices observe the live lockstep
	// run, no capture in between.
	direct, directStats, err := runMulticoreDirect(ws, rc)
	if err != nil {
		t.Fatal(err)
	}

	capt, stats, err := CaptureMulticore(nil, mcPair(t, 50_000), DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer capt.Close()
	for i := range stats {
		if stats[i].Cycles != directStats[i].Cycles {
			t.Fatalf("core %d: capture run cycles %d != direct run cycles %d", i, stats[i].Cycles, directStats[i].Cycles)
		}
	}
	replayed, err := RunMulticoreCaptured(context.Background(), mcPair(t, 50_000), capt, stats, rc)
	if err != nil {
		t.Fatal(err)
	}

	for i := range replayed.Cores {
		sameProfiles(t, "direct vs replayed", direct[i], replayed.Cores[i])
		res := replayed.Cores[i]
		tipErr := res.Err(KindTIP, GranInstruction)
		nciErr := res.Err(KindNCI, GranInstruction)
		if tipErr > 0.10 {
			t.Errorf("core %d (%s): TIP error %.3f vs own Oracle exceeds 0.10", i, res.Workload.Name, tipErr)
		}
		if nciErr < tipErr {
			t.Errorf("core %d (%s): NCI error %.3f below TIP's %.3f", i, res.Workload.Name, nciErr, tipErr)
		}
	}
}

// runMulticoreDirect runs ws on the lockstep system with each core's
// profiler matrix observing the live record stream — the pre-capture
// direct path, used as the byte-identity reference for replayed runs.
func runMulticoreDirect(ws []*Workload, rc RunConfig) ([]*Result, []CoreStats, error) {
	matrices := make([]consumerMatrix, len(ws))
	specs := make([]multicore.CoreSpec, len(ws))
	for i, w := range ws {
		matrices[i] = buildMatrix(w, rc, rc.SampleInterval, 0)
		specs[i] = multicore.CoreSpec{
			Workload:  w,
			Consumers: matrices[i].shards(1),
		}
	}
	results, err := multicore.New(multicore.Config{Core: rc.Core}, specs).Run()
	if err != nil {
		return nil, nil, err
	}
	out := make([]*Result, len(ws))
	stats := make([]CoreStats, len(ws))
	for i, w := range ws {
		m := &matrices[i]
		if m.checker != nil {
			if cerr := m.checker.Err(); cerr != nil {
				return nil, nil, cerr
			}
		}
		stats[i] = results[i].Stats
		out[i] = &Result{
			Workload:       w,
			Stats:          results[i].Stats,
			Oracle:         m.oracle,
			Sampled:        m.byKind,
			SampleInterval: rc.SampleInterval,
		}
	}
	return out, stats, nil
}
