package tip

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tipprof/tip/internal/multicore"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// goldenCaptureMulticorePath holds a gzipped TIPTRC3 stream captured from a
// pinned two-core run (mcf co-running with x264 over the shared LLC): every
// core's records interleaved in lockstep, each tagged with its core. The
// layout is retired and the file is never regenerated; it pins what each
// per-core capture must hold.
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

// captureMulticore runs ws lockstep through RunMulticoreStreaming with one
// capture per core, as tipd's cold path does, and returns each core's
// capture and run statistics. The captures close when the test ends.
func captureMulticore(t *testing.T, ws []*Workload) ([]*TraceCapture, []CoreStats) {
	t.Helper()
	capts := make([]*TraceCapture, len(ws))
	for i := range capts {
		capts[i] = trace.NewCapture()
		t.Cleanup(func() { capts[i].Close() })
	}
	rc := DefaultRunConfig()
	rc.Profilers = []Kind{}
	res, err := RunMulticoreStreaming(context.Background(), ws, rc, capts...)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]CoreStats, len(ws))
	for i, cr := range res.Cores {
		if err := capts[i].Err(); err != nil {
			t.Fatal(err)
		}
		stats[i] = cr.Stats
	}
	return capts, stats
}

// readGzip returns the decompressed contents of a gzipped file.
func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCaptureMulticoreMatchesGolden re-captures the pinned two-core run, teed
// from the fused multicore pipeline, and checks each core's capture against that core's records in the golden
// interleaved stream: record for record, in Records(), and in the Finish
// total, which is the core's last committing cycle plus one.
func TestCaptureMulticoreMatchesGolden(t *testing.T) {
	want, err := splitV3ByCore(readGzip(t, goldenCaptureMulticorePath))
	if err != nil {
		t.Fatal(err)
	}
	capts, stats := captureMulticore(t, mcPair(t, 8_000))
	if len(capts) != len(want) {
		t.Fatalf("%d captures, golden stream holds %d cores", len(capts), len(want))
	}
	for i, capt := range capts {
		var got collectRecords
		if _, _, err := capt.Replay(&got); err != nil {
			t.Fatal(err)
		}
		if capt.Records() != uint64(len(want[i])) || len(got.recs) != len(want[i]) {
			t.Fatalf("core %d: capture holds %d records (Records() %d), golden %d",
				i, len(got.recs), capt.Records(), len(want[i]))
		}
		lastCommit := uint64(0)
		for j := range want[i] {
			if got.recs[j] != want[i][j] {
				t.Fatalf("core %d record %d differs from golden:\n got %+v\nwant %+v", i, j, got.recs[j], want[i][j])
			}
			if want[i][j].CommitCount > 0 {
				lastCommit = want[i][j].Cycle
			}
		}
		if capt.Cycles() != lastCommit+1 || stats[i].Cycles != lastCommit+1 {
			t.Fatalf("core %d: Finish total %d, stats %d; golden's last commit is at cycle %d",
				i, capt.Cycles(), stats[i].Cycles, lastCommit)
		}
	}
}

// TestSingleCoreMulticoreCaptureMatchesCaptureWorkload pins the 1-core
// identity at the trace: core 0 of the lockstep system builds the hierarchy
// cpu.New builds and gets its quiescent cycles as repeats, so a one-core
// multicore capture is byte for byte the single-core capture.
func TestSingleCoreMulticoreCaptureMatchesCaptureWorkload(t *testing.T) {
	single, stats, err := CaptureWorkload(loadScaled(t, "mcf", 8_000), DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	multi, mstats := captureMulticore(t, []*Workload{loadScaled(t, "mcf", 8_000)})
	if !bytes.Equal(encoded(t, multi[0]), encoded(t, single)) {
		t.Fatal("1-core multicore capture differs from CaptureWorkload's")
	}
	if multi[0].Records() != single.Records() || multi[0].Cycles() != single.Cycles() || mstats[0] != stats {
		t.Fatalf("1-core multicore: %d records, %d cycles, stats %+v; single-core: %d, %d, %+v",
			multi[0].Records(), multi[0].Cycles(), mstats[0], single.Records(), single.Cycles(), stats)
	}
}

// runCounter counts the runs and cycles a replay delivers through OnRepeat.
type runCounter struct {
	trace.CountingConsumer
	runs, repeated uint64
}

func (c *runCounter) OnRepeat(r *trace.Record, n uint64) {
	c.runs++
	c.repeated += n
	c.Cycles += n
}

// TestMulticoreReplayDeliversRuns replays mcf's capture from a lockstep
// mcf+x264 run: its stalled stretches under shared-LLC contention must
// reach a consumer that takes runs as OnRepeat runs, as on a single-core
// replay, and the run cycles must add up to the capture's records.
func TestMulticoreReplayDeliversRuns(t *testing.T) {
	capts, _ := captureMulticore(t, mcPair(t, 30_000))
	var c runCounter
	if _, records, err := capts[0].ReplayShards(context.Background(), 0, &c); err != nil || records != c.Cycles {
		t.Fatalf("replay: %d records, consumer counted %d cycles (%v)", records, c.Cycles, err)
	}
	if c.runs == 0 || c.repeated < c.Cycles/10 {
		t.Fatalf("mcf's replay delivered %d runs covering %d of %d cycles; want its stalls as runs", c.runs, c.repeated, c.Cycles)
	}
	t.Logf("mcf: %d runs cover %d of %d cycles", c.runs, c.repeated, c.Cycles)
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

// TestSingleCoreMulticoreMatchesPipeline is the 1-core anchor at the
// profiles: a one-core multicore run must produce exactly the profiles the
// single-core pipeline produces for the same workload — same core stepping,
// same cache topology (the private stack at physical offset 0 over its own
// LLC), same calibrated interval.
func TestSingleCoreMulticoreMatchesPipeline(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Check = true

	single, err := Run(context.Background(), loadScaled(t, "imagick", 60_000), rc)
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
	capts, stats := captureMulticore(t, mcPair(t, 30_000))

	rc := DefaultRunConfig()
	rc.Check = true
	results := make([]*MulticoreResult, 0, 2)
	for _, workers := range []int{1, 4} {
		rc.ReplayWorkers = workers
		res, err := RunMulticoreCaptured(context.Background(), mcPair(t, 30_000), capts, stats, rc)
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
// core-0 capture whose commit counts are corrupted from a quarter of the
// way in: the replay must stop within a poll interval of the first
// violation, at one worker as at four, rather than stream on and collect
// one violation per corrupted record.
func TestRunMulticoreCapturedAbortsOnConsumerFault(t *testing.T) {
	capts, stats := captureMulticore(t, mcPair(t, 30_000))
	var plain collectRecords
	if _, _, err := capts[0].Replay(&plain); err != nil {
		t.Fatal(err)
	}
	bad := trace.NewCapture()
	defer bad.Close()
	corrupted := 0
	for i := range plain.recs {
		r := &plain.recs[i]
		if i >= len(plain.recs)/4 && r.CommitCount > 0 {
			r.CommitCount++
			corrupted++
		}
		bad.OnCycle(r)
	}
	bad.Finish(capts[0].Cycles())
	if corrupted < 4*trace.DefaultChunkRecords {
		t.Fatalf("only %d corrupted records; the test needs a longer capture", corrupted)
	}

	for _, workers := range []int{1, 4} {
		rc := DefaultRunConfig()
		rc.Check = true
		rc.ReplayWorkers = workers
		res, err := RunMulticoreCaptured(context.Background(), mcPair(t, 30_000), []*TraceCapture{bad, capts[1]}, stats, rc)
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
	if res, err := RunMulticoreStreaming(context.Background(), mcPair(t, 5_000), rc); !errors.Is(err, errMulticoreSampled) || res != nil {
		t.Fatalf("RunMulticoreStreaming: result %v, err %v; want a sampled rejection", res, err)
	}
	capts, stats := captureMulticore(t, mcPair(t, 5_000))
	if res, err := RunMulticoreCaptured(context.Background(), mcPair(t, 5_000), capts, stats, rc); !errors.Is(err, errMulticoreSampled) || res != nil {
		t.Fatalf("RunMulticoreCaptured: result %v, err %v; want a sampled rejection", res, err)
	}
}

// TestRunMulticoreRejectsExtraConsumers pins that both multicore entry
// points refuse extra consumers, which would each see one core's stream,
// instead of silently dropping them.
func TestRunMulticoreRejectsExtraConsumers(t *testing.T) {
	capts, stats := captureMulticore(t, mcPair(t, 5_000))
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
		if res, err := RunMulticoreStreaming(context.Background(), mcPair(t, 5_000), rc); !errors.Is(err, errMulticoreExtras) || res != nil {
			t.Fatalf("%s: RunMulticoreStreaming: result %v, err %v; want an extra-consumer rejection", name, res, err)
		}
		if res, err := RunMulticoreCaptured(context.Background(), mcPair(t, 5_000), capts, stats, rc); !errors.Is(err, errMulticoreExtras) || res != nil {
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

// TestMulticoreRelabelingSwapsProfiles pins the replay's symmetry under core
// relabeling: replaying a two-core run's captures with the capture,
// workload and stats assignment swapped must swap the per-core profiles
// exactly. (Swapping the *workload placement* at capture time is
// deliberately not exact: the lockstep loop arbitrates same-cycle
// shared-LLC accesses in core order, so physical placement changes timing —
// the same reason placement matters on real hardware; DESIGN.md §12 records
// this.)
func TestMulticoreRelabelingSwapsProfiles(t *testing.T) {
	ws := mcPair(t, 30_000)
	capts, stats := captureMulticore(t, ws)

	rc := DefaultRunConfig()
	rc.SampleInterval = 53
	rc.Check = true
	orig, err := RunMulticoreCaptured(context.Background(), ws, capts, stats, rc)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := RunMulticoreCaptured(context.Background(), []*Workload{ws[1], ws[0]},
		[]*TraceCapture{capts[1], capts[0]}, []CoreStats{stats[1], stats[0]}, rc)
	if err != nil {
		t.Fatal(err)
	}
	sameProfiles(t, "core 0 vs relabeled core 1", orig.Cores[0], swapped.Cores[1])
	sameProfiles(t, "core 1 vs relabeled core 0", orig.Cores[1], swapped.Cores[0])
	if orig.TotalCycles != swapped.TotalCycles {
		t.Fatalf("total cycles %d, relabeled %d", orig.TotalCycles, swapped.TotalCycles)
	}
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

	capts, stats := captureMulticore(t, mcPair(t, 50_000))
	for i := range stats {
		if stats[i].Cycles != directStats[i].Cycles {
			t.Fatalf("core %d: capture run cycles %d != direct run cycles %d", i, stats[i].Cycles, directStats[i].Cycles)
		}
	}
	replayed, err := RunMulticoreCaptured(context.Background(), mcPair(t, 50_000), capts, stats, rc)
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
	results, err := multicore.New(rc.Core, specs).Run(nil)
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

// TestMulticoreStreamingMatchesRunMulticore pins the Pilot policy per core
// against the Exact one. When every core ends inside DefaultPilotCycles,
// each core's pilot is its whole run, so RunMulticoreStreaming's result is
// RunMulticore's. With an explicit interval neither policy calibrates, and
// the streamed cores stay equal past the pilot window.
func TestMulticoreStreamingMatchesRunMulticore(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scale    uint64
		interval uint64
	}{
		{"inside-pilot", 20_000, 0},
		{"fixed-interval", 60_000, 53},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := DefaultRunConfig()
			rc.SampleInterval = tc.interval
			rc.Check = true
			exact, err := RunMulticore(context.Background(), mcPair(t, tc.scale), rc)
			if err != nil {
				t.Fatal(err)
			}
			pilot, err := RunMulticoreStreaming(context.Background(), mcPair(t, tc.scale), rc)
			if err != nil {
				t.Fatal(err)
			}
			if tc.interval == 0 && exact.TotalCycles >= DefaultPilotCycles {
				t.Fatalf("the run lasts %d cycles, past the %d-cycle pilot window", exact.TotalCycles, DefaultPilotCycles)
			}
			if tc.interval != 0 && exact.TotalCycles < 2*DefaultPilotCycles {
				t.Fatalf("the run lasts %d cycles; the test needs one well past the pilot window", exact.TotalCycles)
			}
			if exact.TotalCycles != pilot.TotalCycles {
				t.Fatalf("total cycles: exact %d, pilot %d", exact.TotalCycles, pilot.TotalCycles)
			}
			for i := range exact.Cores {
				e, p := exact.Cores[i], pilot.Cores[i]
				if e.Stats != p.Stats || e.SampleInterval != p.SampleInterval || *e.Stack() != *p.Stack() {
					t.Fatalf("core %d: exact stats %+v interval %d, pilot stats %+v interval %d",
						i, e.Stats, e.SampleInterval, p.Stats, p.SampleInterval)
				}
				sameProfiles(t, fmt.Sprintf("core %d exact vs pilot", i), e, p)
			}
		})
	}
}

// TestMulticoreProducerFailure fails the lockstep run after core 0 finished:
// core 1 exceeds MaxCycles. Under both policies the run must fail naming
// core 1 and return no result, and the producer must Fail only core 1's
// stream, since a second close of core 0's finished stream would panic.
func TestMulticoreProducerFailure(t *testing.T) {
	short := func() []*Workload { return []*Workload{loadScaled(t, "x264", 60_000), loadScaled(t, "mcf", 60_000)} }
	rc := DefaultRunConfig()
	rc.Profilers = []Kind{KindTIP}
	base, err := RunMulticore(context.Background(), short(), rc)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := base.Cores[0].Stats.Cycles, base.Cores[1].Stats.Cycles
	if c0 >= DefaultPilotCycles || c1 < 2*DefaultPilotCycles {
		t.Fatalf("core cycles %d and %d; the test needs core 0 inside the pilot window and core 1 well past it", c0, c1)
	}
	rc.Core.MaxCycles = (c0 + c1) / 2
	for name, run := range map[string]func(context.Context, []*Workload, RunConfig, ...*TraceCapture) (*MulticoreResult, error){
		"exact": RunMulticore,
		"pilot": RunMulticoreStreaming,
	} {
		res, err := run(context.Background(), short(), rc)
		if err == nil || !strings.Contains(err.Error(), "tip: core 1: ") || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("%s: err = %v, want core 1's MaxCycles failure", name, err)
		}
		if res != nil {
			t.Fatalf("%s: got a result from a failed run", name)
		}
	}
}

// blockingConsumer stalls its replay shard at the first record past cycle
// from until ctx is cancelled, signalling blocked once.
type blockingConsumer struct {
	from    uint64
	ctx     context.Context
	blocked chan struct{}
	once    *sync.Once
}

func (b blockingConsumer) OnCycle(r *trace.Record) {
	if r.Cycle >= b.from {
		b.once.Do(func() { close(b.blocked) })
		<-b.ctx.Done()
	}
}

func (b blockingConsumer) Finish(uint64) {}

// TestMulticorePilotCancelWhileRingFull cancels a Pilot-policy multicore run
// while core 0's replay is stalled past its pilot window, so the lockstep
// producer is blocked on core 0's full ring: the run must return the
// cancellation promptly.
func TestMulticorePilotCancelWhileRingFull(t *testing.T) {
	ws := mcPair(t, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked, once := make(chan struct{}), &sync.Once{}
	rc := DefaultRunConfig()
	rc.Profilers = []Kind{KindTIP}
	rc.ExtraConsumersAt = func(uint64, uint64) []trace.Consumer {
		return []trace.Consumer{blockingConsumer{from: DefaultPilotCycles + 8192, ctx: ctx, blocked: blocked, once: once}}
	}
	done := make(chan error, 1)
	go func() {
		_, err := runFused(ctx, ws, rc, DefaultPilotCycles, lockstep(ws, rc.Core, nil))
		done <- err
	}()
	select {
	case <-blocked:
	case err := <-done:
		t.Fatalf("the run ended before its replay stalled: %v", err)
	}
	// Give the producer time to fill the ring behind the stalled shard.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the run did not return within 10s of its cancellation")
	}
}

// faultingConsumer fails its replay shard at the first record it observes.
type faultingConsumer struct{ err error }

var errInjectedFault = errors.New("injected consumer fault")

func (f *faultingConsumer) OnCycle(*trace.Record) { f.err = errInjectedFault }
func (f *faultingConsumer) Finish(uint64)         {}
func (f *faultingConsumer) Err() error            { return f.err }

// TestMulticoreCoreFailureStopsProducer fails x264's replay as soon as its
// core finishes, while mcf's consumer still waits for its pilot window and
// so never reaches its own replay. The run must stop mcf's stream and the
// producer, which would otherwise fill mcf's ring with nothing draining it
// and block forever, and return the fault.
func TestMulticoreCoreFailureStopsProducer(t *testing.T) {
	ws := mcPair(t, 100_000)
	rc := DefaultRunConfig()
	rc.Profilers = []Kind{KindTIP}
	rc.ExtraConsumersAt = func(uint64, uint64) []trace.Consumer { return []trace.Consumer{&faultingConsumer{}} }
	done := make(chan error, 1)
	go func() {
		_, err := runFused(context.Background(), ws, rc, DefaultPilotCycles, lockstep(ws, rc.Core, nil))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errInjectedFault) {
			t.Fatalf("err = %v, want the injected fault", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the run did not return within 10s of a core's failure")
	}
}
