package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/fleet"
)

// fetchPprof downloads a job's TIP pprof payload.
func fetchPprof(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/pprof?profiler=TIP")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: status %d (%v)", resp.StatusCode, err)
	}
	return data
}

// TestStoreServesWarmAcrossNodes is the fleet's core serving claim: a key
// captured (simulated) on node A is served warm on node B straight from the
// shared store — no second simulation anywhere — and once both nodes are
// warm, their pprof payloads for the key are bit-identical.
func TestStoreServesWarmAcrossNodes(t *testing.T) {
	storeDir := t.TempDir()
	stA, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	sA, tsA := newTestServer(t, Config{Workers: 1, Store: stA})
	sB, tsB := newTestServer(t, Config{Workers: 1, Store: stB})

	runs0 := cpu.RunsStarted()

	// Cold on the whole fleet: node A simulates and publishes.
	vA, code := submit(t, tsA, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit to A: status %d", code)
	}
	doneA := waitTerminal(t, tsA, vA.ID)
	if doneA.State != stateDone || doneA.CaptureSource != "simulated" {
		t.Fatalf("A: state=%s source=%q (%s), want done/simulated",
			doneA.State, doneA.CaptureSource, doneA.Error)
	}
	if _, _, puts := stA.Counters(); puts != 1 {
		t.Fatalf("A published %d captures, want 1", puts)
	}

	// Same key on node B: warm from the store, no simulation.
	vB, code := submit(t, tsB, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit to B: status %d", code)
	}
	doneB := waitTerminal(t, tsB, vB.ID)
	if doneB.State != stateDone || doneB.CaptureSource != "store" {
		t.Fatalf("B: state=%s source=%q (%s), want done/store",
			doneB.State, doneB.CaptureSource, doneB.Error)
	}
	if doneB.CacheHit {
		t.Fatal("store pull misreported as a local cache hit")
	}
	if got := cpu.RunsStarted() - runs0; got != 1 {
		t.Fatalf("fleet ran %d simulations for one key, want exactly 1", got)
	}
	if sB.met.simulationCount() != 0 || sA.met.simulationCount() != 1 {
		t.Fatalf("simulation counters A=%d B=%d, want 1/0",
			sA.met.simulationCount(), sB.met.simulationCount())
	}

	// Warm profiles are bit-identical from any node. (Node A's first
	// answer came from the fused pilot-calibrated run, so compare a warm
	// rerun on A — exact calibration, like B's replay — against B.)
	vA2, _ := submit(t, tsA, testSpec())
	doneA2 := waitTerminal(t, tsA, vA2.ID)
	if doneA2.State != stateDone || doneA2.CaptureSource != "cache" {
		t.Fatalf("A rerun: state=%s source=%q", doneA2.State, doneA2.CaptureSource)
	}
	pA := fetchPprof(t, tsA, vA2.ID)
	pB := fetchPprof(t, tsB, vB.ID)
	if !bytes.Equal(pA, pB) {
		t.Fatalf("warm pprof differs across nodes: %d vs %d bytes", len(pA), len(pB))
	}

	// Both nodes expose the store traffic in /metrics.
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"tipd_store_hits_total 1\n", "tipd_simulations_total 0\n"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("B /metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestSaturation429Jitter pins the retry-storm fix: the saturated response
// carries a jittered retry_after_ms in [500, 1500) and a Retry-After header
// that rounds it up to whole seconds, plus the queue state a coordinator
// uses as its steal signal.
func TestSaturation429Jitter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release, started := blockingExecute(s)
	defer release()

	if _, code := submit(t, ts, testSpec()); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started")
	}
	if _, code := submit(t, ts, testSpec()); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", code)
	}

	body, _ := json.Marshal(testSpec())
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rej struct {
			RetryAfterMS int `json:"retry_after_ms"`
			QueueDepth   int `json:"queue_depth"`
			QueueCap     int `json:"queue_cap"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rej)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || err != nil {
			t.Fatalf("saturated submit %d: status %d (%v)", i, resp.StatusCode, err)
		}
		if rej.RetryAfterMS < 500 || rej.RetryAfterMS >= 1500 {
			t.Fatalf("retry_after_ms = %d, want in [500, 1500)", rej.RetryAfterMS)
		}
		if rej.QueueCap != 1 || rej.QueueDepth != 1 {
			t.Fatalf("queue state = %d/%d, want 1/1", rej.QueueDepth, rej.QueueCap)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra != (rej.RetryAfterMS+999)/1000 {
			t.Fatalf("Retry-After %q does not round up retry_after_ms %d",
				resp.Header.Get("Retry-After"), rej.RetryAfterMS)
		}
	}
}

// warnCollector is a threadsafe warning sink for Store.SetWarnf.
type warnCollector struct {
	mu   sync.Mutex
	msgs []string
}

func (wc *warnCollector) logf(format string, args ...any) {
	wc.mu.Lock()
	wc.msgs = append(wc.msgs, fmt.Sprintf(format, args...))
	wc.mu.Unlock()
}

func (wc *warnCollector) contains(sub string) bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for _, m := range wc.msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}

// fetchCorePprof downloads one core's TIP pprof payload of a multicore job.
func fetchCorePprof(t *testing.T, ts *httptest.Server, id string, core int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/pprof?profiler=TIP&core=%d", ts.URL, id, core))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("core %d pprof: status %d (%v)", core, resp.StatusCode, err)
	}
	return data
}

// TestMulticoreStoreRestartRoundTrip carries a multicore job's per-core
// captures across a crash through the store and checks (a) a
// daemon started on the same store while the first was never shut down —
// the stand-in for kill -9 — serves the core set from "store" with per-core
// stats and pprof intact and no simulation, and (b) a corrupted sidecar
// reads as a warned miss that re-simulates instead of failing startup.
func TestMulticoreStoreRestartRoundTrip(t *testing.T) {
	storeDir := t.TempDir()
	openStore := func() *fleet.Store {
		st, err := fleet.OpenStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	spec := JobSpec{
		Cores: []CoreJobSpec{
			{Bench: "mcf", Scale: testScale},
			{Bench: "x264", Scale: testScale},
		},
		Profilers:     []string{"TIP"},
		TargetSamples: 256,
	}

	// First daemon: simulate, then abandon it. Nothing is drained or
	// persisted on the way out; the capture reached the store when it was
	// simulated.
	_, ts1 := newTestServer(t, Config{Workers: 1, Store: openStore()})
	v, code := submit(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done1 := waitTerminal(t, ts1, v.ID)
	if done1.State != stateDone || done1.CaptureSource != sourceSimulated {
		t.Fatalf("multicore job: state=%s source=%q (%s)", done1.State, done1.CaptureSource, done1.Error)
	}

	// The store must hold one entry per core: a "cores" id ending in the
	// core's index, and one stats entry each.
	sidecars, err := filepath.Glob(filepath.Join(storeDir, "cores-*.json"))
	if err != nil || len(sidecars) != 2 {
		t.Fatalf("multicore sidecars = %v (%v), want one per core", sidecars, err)
	}
	for i, sidecar := range sidecars {
		raw, err := os.ReadFile(sidecar)
		if err != nil {
			t.Fatal(err)
		}
		var meta struct {
			ID    string      `json:"id"`
			Stats []cpu.Stats `json:"core_stats"`
		}
		if err := json.Unmarshal(raw, &meta); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(meta.ID, "cores-") || !strings.HasSuffix(meta.ID, fmt.Sprintf("-%d", i)) || len(meta.Stats) != 1 {
			t.Fatalf("sidecar id=%q core_stats=%d, want core %d's entry with one stats entry", meta.ID, len(meta.Stats), i)
		}
	}

	// Restart beside the abandoned daemon: the same core set must come
	// from the store with no simulation. (Lockstep multicore capture does
	// not go through Core.Run, so the daemon's own simulation counter is
	// the witness here, not cpu.RunsStarted.)
	s2, ts2 := newTestServer(t, Config{Workers: 1, Store: openStore()})
	v2, code := submit(t, ts2, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit after restart: status %d", code)
	}
	done2 := waitTerminal(t, ts2, v2.ID)
	if done2.State != stateDone || done2.CacheHit || done2.CaptureSource != sourceStore {
		t.Fatalf("restarted daemon: state=%s hit=%v source=%q (%s)",
			done2.State, done2.CacheHit, done2.CaptureSource, done2.Error)
	}
	if got := s2.Health().Simulations; got != 0 {
		t.Fatalf("stored entry still simulated %d times", got)
	}
	if done2.Result == nil || len(done2.Result.Cores) != 2 {
		t.Fatalf("restored multicore result = %+v", done2.Result)
	}
	for i, c := range done2.Result.Cores {
		want := done1.Result.Cores[i]
		if c.Bench != want.Bench || c.Cycles != want.Cycles || c.Committed != want.Committed {
			t.Fatalf("core %d restored as %s %d/%d, want %s %d/%d", i,
				c.Bench, c.Cycles, c.Committed, want.Bench, want.Cycles, want.Committed)
		}
		if !bytes.Equal(fetchCorePprof(t, ts1, v.ID, i), fetchCorePprof(t, ts2, v2.ID, i)) {
			t.Fatalf("core %d pprof differs after restart", i)
		}
	}

	// Corrupt core 1's sidecar: the next daemon must start, warn,
	// re-simulate the whole set, and repair the entry.
	if err := os.WriteFile(sidecars[1], []byte(`{"id":`), 0o644); err != nil {
		t.Fatal(err)
	}
	wc := &warnCollector{}
	st3 := openStore()
	st3.SetWarnf(wc.logf)
	s3, ts3 := newTestServer(t, Config{Workers: 1, Store: st3})
	v3, code := submit(t, ts3, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit after corruption: status %d", code)
	}
	done3 := waitTerminal(t, ts3, v3.ID)
	if done3.State != stateDone || done3.CaptureSource != sourceSimulated {
		t.Fatalf("corrupted entry: state=%s source=%q (%s), want done/simulated",
			done3.State, done3.CaptureSource, done3.Error)
	}
	if got := s3.Health().Simulations; got != 1 {
		t.Fatalf("corrupted entry re-simulated %d times, want 1", got)
	}
	if !wc.contains("corrupted sidecar") {
		t.Fatalf("no corruption warning logged: %v", wc.msgs)
	}
	if _, _, puts := st3.Counters(); puts != 2 {
		t.Fatalf("re-simulated set published %d captures, want one per core", puts)
	}
}

// TestMulticoreOldInterleavedStoreEntry puts an entry of the shape earlier
// versions stored for a core set — one interleaved TIPTRC3 capture under
// the set's bare id — into a store: a daemon on that store must never read
// it, so the job simulates exactly once and completes, and once every
// per-core entry is stored the superseded entry is removed.
func TestMulticoreOldInterleavedStoreEntry(t *testing.T) {
	storeDir := t.TempDir()
	cores := []CoreJobSpec{{Bench: "mcf", Seed: 1, Scale: 8_000}, {Bench: "x264", Seed: 1, Scale: 8_000}}
	oldID := captureKey{Cores: coreSetHash(cores), Core: coreConfigHash(cpu.DefaultConfig())}.id()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "golden_capture_multicore.trc.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	meta := fmt.Sprintf(`{"id":%q,"records":1,"cycles":1,"sha256":%q,"core_stats":[{},{}]}`, oldID, hex.EncodeToString(sum[:]))
	if err := os.WriteFile(filepath.Join(storeDir, oldID+".trc"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(storeDir, oldID+".json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Store: st})
	v, code := submit(t, ts, JobSpec{Cores: cores, Profilers: []string{"TIP"}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitTerminal(t, ts, v.ID)
	if done.State != stateDone || done.CaptureSource != sourceSimulated {
		t.Fatalf("job over an old store entry: state=%s source=%q (%s), want done/simulated",
			done.State, done.CaptureSource, done.Error)
	}
	if got := s.Health().Simulations; got != 1 {
		t.Fatalf("job simulated %d times, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(storeDir, oldID+"-0.json")); err != nil {
		t.Fatalf("core 0's capture was not stored beside the old entry: %v", err)
	}
	for _, ext := range []string{".trc", ".json"} {
		if _, err := os.Stat(filepath.Join(storeDir, oldID+ext)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("superseded %s%s still in the store (stat: %v)", oldID, ext, err)
		}
	}
}

// TestShutdownTimeoutAbortsInFlight pins the drain bound: a wedged job
// cannot hold Shutdown past its context deadline — the job's context is
// cancelled and Shutdown returns the deadline error promptly.
func TestShutdownTimeoutAbortsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// The job ignores release and only exits on ctx cancellation — a stand-
	// in for a wedged simulation that only the drain bound can stop.
	started := make(chan string, 1)
	s.execute = func(ctx context.Context, jb *job) (*jobOutcome, error) {
		started <- jb.id
		<-ctx.Done()
		return nil, ctx.Err()
	}

	v, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("bounded drain took %s", elapsed)
	}
	if got, _ := getJob(t, ts, v.ID); got.State != stateCanceled {
		t.Fatalf("aborted job state = %s, want canceled", got.State)
	}
}

// TestHealthzFleetSignal checks /healthz carries the fields the coordinator
// and humans share: queue state, cache occupancy, drain flag, and the
// store counters when a store is configured.
func TestHealthzFleetSignal(t *testing.T) {
	st, err := fleet.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 3, Store: st})

	v, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitTerminal(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining || h.Workers != 2 || h.QueueCap != 3 {
		t.Fatalf("healthz basics = %+v", h)
	}
	if h.CacheEntries != 1 || h.CacheBytes == 0 {
		t.Fatalf("healthz cache occupancy = %d entries / %d bytes, want 1 entry", h.CacheEntries, h.CacheBytes)
	}
	if h.Simulations != 1 || !h.StoreEnabled || h.StorePuts != 1 {
		t.Fatalf("healthz fleet counters = %+v", h)
	}
	if h.CoreHash == "" {
		t.Fatal("healthz missing core_hash")
	}

	// Drain state shows up in the same signal.
	s.StartDrain()
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 Health
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || !h2.Draining {
		t.Fatalf("draining healthz: status %d, %+v (old probes need the plain 200)", resp2.StatusCode, h2)
	}
}
