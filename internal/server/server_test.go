package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/fleet"
	"github.com/tipprof/tip/internal/pprofenc"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/workload"
)

// testScale keeps simulated workloads small enough that a full
// capture+replay job completes in well under a second.
const testScale = 20_000

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) (JobView, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

// waitTerminal polls a job until it leaves queued/running.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, code := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if v.State != stateQueued && v.State != stateRunning {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobView{}
}

func testSpec() JobSpec {
	return JobSpec{
		Bench:         "x264",
		Seed:          1,
		Scale:         testScale,
		Profilers:     []string{"TIP"},
		TargetSamples: 256,
	}
}

func kindByName(t *testing.T, name string) profiler.Kind {
	t.Helper()
	for _, k := range profiler.AllKinds() {
		if k.String() == name {
			return k
		}
	}
	t.Fatalf("no profiler kind %q", name)
	return 0
}

// TestJobLifecycle drives the full submit → poll → fetch-pprof → delete
// flow against a real simulation, and checks the daemon's pprof payload is
// bit-for-bit identical to the batch pipeline's encoding of the same run.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	v, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if v.ID == "" || (v.State != stateQueued && v.State != stateRunning) {
		t.Fatalf("submit returned %+v", v)
	}

	done := waitTerminal(t, ts, v.ID)
	if done.State != stateDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.CacheHit {
		t.Fatal("first job for a key must be a cache miss")
	}
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if done.Result.Cycles == 0 || done.Result.SampleInterval == 0 {
		t.Fatalf("implausible result: %+v", done.Result)
	}
	if len(done.Result.Profiles["Oracle"]) == 0 || len(done.Result.Profiles["TIP"]) == 0 {
		t.Fatalf("missing profiles: have %v", len(done.Result.Profiles))
	}
	if _, ok := done.Result.Errors["TIP"]; !ok {
		t.Fatalf("missing TIP error: %v", done.Result.Errors)
	}
	if done.Timing == nil || done.Timing.ReplayWorkers != 2 {
		t.Fatalf("timing = %+v, want replay_workers 2", done.Timing)
	}

	// The listing includes the job (without the heavy result payload).
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []JobView `json:"jobs"`
	}
	json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != v.ID || listing.Jobs[0].Result != nil {
		t.Fatalf("listing = %+v", listing)
	}

	// pprof export must match the batch pipeline bit-for-bit.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/pprof?profiler=TIP")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(got) == 0 {
		t.Fatalf("pprof: status %d, %d bytes", resp.StatusCode, len(got))
	}

	spec := testSpec()
	w, err := workload.LoadScaled(spec.Bench, spec.Seed, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	rc := tip.DefaultRunConfig()
	rc.Profilers = []profiler.Kind{kindByName(t, "TIP")}
	rc.TargetSamples = spec.TargetSamples
	rc.ReplayWorkers = 2
	res, err := tip.Run(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pprofenc.Encode(res.Sampled[kindByName(t, "TIP")].Profile,
		pprofenc.JobOptions(spec.Bench, spec.Seed, spec.Scale, "TIP", res.SampleInterval))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon pprof (%d bytes) differs from batch encoding (%d bytes)", len(got), len(want))
	}

	// Oracle export works too; an unknown profiler is a client error.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/pprof?profiler=Oracle")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Oracle pprof: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/pprof?profiler=NCI")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pprof for profiler outside the job: status %d, want 400", resp.StatusCode)
	}

	// DELETE on a terminal job forgets it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete finished job: status %d", resp.StatusCode)
	}
	if _, code := getJob(t, ts, v.ID); code != http.StatusNotFound {
		t.Fatalf("deleted job still retrievable: status %d", code)
	}
}

// TestCacheSingleSimulation submits several identical jobs concurrently and
// asserts exactly one cycle-level simulation ran between them — the rest hit
// the capture cache (or joined the in-flight capture) and only replayed.
func TestCacheSingleSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	const n = 4
	runs0 := cpu.RunsStarted()
	ids := make([]string, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, code := submit(t, ts, testSpec())
			if code != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, code)
				return
			}
			mu.Lock()
			ids[i] = v.ID
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	hits := 0
	for _, id := range ids {
		v := waitTerminal(t, ts, id)
		if v.State != stateDone {
			t.Fatalf("job %s finished %s (%s)", id, v.State, v.Error)
		}
		if v.CacheHit {
			hits++
		}
	}
	if got := cpu.RunsStarted() - runs0; got != 1 {
		t.Fatalf("%d identical jobs started %d simulations, want exactly 1", n, got)
	}
	if hits != n-1 {
		t.Fatalf("%d jobs reported cache hits, want %d", hits, n-1)
	}

	// The sharing is observable in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tipd_capture_cache_misses_total 1\n",
		fmt.Sprintf("tipd_capture_cache_hits_total %d\n", n-1),
		fmt.Sprintf("tipd_jobs_total{state=\"done\"} %d\n", n),
		fmt.Sprintf("tipd_jobs_accepted_total %d\n", n),
		"tipd_capture_seconds_count 4\n",
		"tipd_capture_cache_entries 1\n",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", prom)
	}
}

// TestSampledJobBypassesCache submits the same sampled spec twice and checks
// that neither run touches the capture cache: sampled runs produce no full
// trace to store, so both jobs must simulate (no cache hit, no cached
// entries) and both results must carry the sampling summary.
func TestSampledJobBypassesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	spec := testSpec()
	spec.Sampled = true
	spec.WindowCycles = 2048
	spec.WindowInterval = 8192
	spec.WarmupCycles = 1024
	for i := 0; i < 2; i++ {
		v, code := submit(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		v = waitTerminal(t, ts, v.ID)
		if v.State != stateDone {
			t.Fatalf("job %d finished %s (%s)", i, v.State, v.Error)
		}
		if v.CacheHit {
			t.Errorf("sampled job %d reported a capture-cache hit", i)
		}
		if v.Result == nil || v.Result.Sampling == nil {
			t.Fatalf("job %d result missing sampling summary", i)
		}
		if v.Result.Sampling.Windows == 0 || v.Result.Sampling.DetailedFraction >= 1 {
			t.Errorf("job %d sampling summary implausible: %+v", i, v.Result.Sampling)
		}
		// Normalized defaults are echoed back in the spec.
		if v.Spec.WindowCycles != spec.WindowCycles || v.Spec.WindowInterval != spec.WindowInterval {
			t.Errorf("job %d spec geometry not echoed: %+v", i, v.Spec)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tipd_capture_cache_misses_total 0\n",
		"tipd_capture_cache_hits_total 0\n",
		"tipd_capture_cache_entries 0\n",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// blockingExecute stubs the job runner with one that parks until released
// (or until the job's context is canceled).
func blockingExecute(s *Server) (release func(), started chan string) {
	started = make(chan string, 64)
	gate := make(chan struct{})
	s.execute = func(ctx context.Context, jb *job) (*jobOutcome, error) {
		started <- jb.id
		select {
		case <-gate:
			return &jobOutcome{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }, started
}

// TestSaturationRejects fills the worker pool and the queue, then checks the
// next submission is refused with 429 + Retry-After instead of blocking.
func TestSaturationRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release, started := blockingExecute(s)
	defer release()

	// First job occupies the single worker.
	a, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit a: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first job")
	}

	// Second job fills the queue.
	b, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit b: status %d", code)
	}

	// Third submission must be rejected, not block.
	body, _ := json.Marshal(testSpec())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	release()
	for _, id := range []string{a.ID, b.ID} {
		if v := waitTerminal(t, ts, id); v.State != stateDone {
			t.Fatalf("job %s finished %s after release", id, v.State)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "tipd_jobs_rejected_total 1\n") {
		t.Fatalf("/metrics does not count the rejection:\n%s", prom)
	}
}

// TestDeleteCancelsRunning cancels an in-flight job via its context and
// checks the worker pool survives to run the next job.
func TestDeleteCancelsRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release, started := blockingExecute(s)
	defer release()

	v, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("delete running job: status %d, want 202", resp.StatusCode)
	}
	if got := waitTerminal(t, ts, v.ID); got.State != stateCanceled {
		t.Fatalf("job finished %s, want canceled", got.State)
	}

	// The pool is not wedged: the next job still runs.
	w2, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker wedged after cancellation")
	}
	release()
	if got := waitTerminal(t, ts, w2.ID); got.State != stateDone {
		t.Fatalf("post-cancel job finished %s", got.State)
	}
}

// TestDeleteQueuedJob cancels a job before any worker picks it up.
func TestDeleteQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release, started := blockingExecute(s)
	defer release()

	a, _ := submit(t, ts, testSpec())
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first job never started")
	}
	b, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit b: status %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var bv JobView
	json.NewDecoder(resp.Body).Decode(&bv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || bv.State != stateCanceled {
		t.Fatalf("delete queued job: status %d state %s", resp.StatusCode, bv.State)
	}

	release()
	if got := waitTerminal(t, ts, a.ID); got.State != stateDone {
		t.Fatalf("job a finished %s", got.State)
	}
	// The canceled job must stay canceled even after the worker drains it.
	if got, _ := getJob(t, ts, b.ID); got.State != stateCanceled {
		t.Fatalf("queued-then-canceled job became %s", got.State)
	}
}

// TestExecuteCanceledContext checks the real runner honors cancellation: a
// canceled context aborts before (or during) the cycle-level simulation.
func TestExecuteCanceledContext(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	spec := testSpec()
	kinds, gran, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	jb := &job{id: "jtest", spec: spec, kinds: kinds, gran: gran}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.executeJob(ctx, jb); err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("executeJob with canceled ctx: err = %v", err)
	}
}

// TestShutdownDrainsAndRestartsFromStore submits work, shuts the daemon down
// gracefully, and checks (a) queued jobs finish rather than vanish, (b) new
// submissions are refused while draining, and (c) a fresh daemon pointed at
// the same store serves the capture from disk without re-simulating, with
// pprof bytes identical to the first daemon's.
func TestShutdownDrainsAndRestartsFromStore(t *testing.T) {
	storeDir := t.TempDir()
	st, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	b, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Both jobs drained to done; one simulated, the other replayed the
	// shared capture.
	var replayed string
	for _, id := range []string{a.ID, b.ID} {
		v, code := getJob(t, ts, id)
		if code != http.StatusOK || v.State != stateDone {
			t.Fatalf("after drain, job %s: status %d state %s (%s)", id, code, v.State, v.Error)
		}
		if v.CaptureSource == sourceCache {
			replayed = id
		}
	}
	if replayed == "" {
		t.Fatal("neither drained job replayed the shared capture")
	}
	// Submissions are refused while draining.
	if _, code := submit(t, ts, testSpec()); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}

	// A fresh daemon finds the capture in the store: the same job is served
	// from "store" with zero new simulations.
	runs0 := cpu.RunsStarted()
	st2, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Workers: 1, Store: st2})
	v, code := submit(t, ts2, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit to warm daemon: status %d", code)
	}
	done := waitTerminal(t, ts2, v.ID)
	if done.State != stateDone {
		t.Fatalf("warm job finished %s (%s)", done.State, done.Error)
	}
	if done.CaptureSource != sourceStore {
		t.Fatalf("warm-start job source %q, want store", done.CaptureSource)
	}
	if got := cpu.RunsStarted() - runs0; got != 0 {
		t.Fatalf("warm daemon ran %d simulations, want 0", got)
	}
	if !bytes.Equal(fetchPprof(t, ts, replayed), fetchPprof(t, ts2, v.ID)) {
		t.Fatal("restarted daemon's pprof differs from the first daemon's")
	}
}

// TestFailedPublishStillServesJob removes the store directory under a
// running daemon: publishing the fresh capture fails, yet the job completes
// from its one simulation with the failure logged, and the store records no
// put.
func TestFailedPublishStillServesJob(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	st, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(storeDir); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	runs0 := cpu.RunsStarted()
	s, ts := newTestServer(t, Config{Workers: 1, Store: st, Logf: logf})
	v, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitTerminal(t, ts, v.ID)
	if done.State != stateDone || done.CaptureSource != sourceSimulated {
		t.Fatalf("job: state=%s source=%q (%s), want done/simulated", done.State, done.CaptureSource, done.Error)
	}
	if got := cpu.RunsStarted() - runs0; got != 1 || s.met.simulationCount() != 1 {
		t.Fatalf("ran %d simulations (counter %d), want 1", got, s.met.simulationCount())
	}
	if _, _, puts := st.Counters(); puts != 0 {
		t.Fatalf("store counted %d puts, want 0", puts)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, m := range logs {
		if strings.Contains(m, "publishing") {
			return
		}
	}
	t.Fatalf("failed publish not logged: %q", logs)
}

// TestBadRequests exercises the client-error paths.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release, started := blockingExecute(s)
	defer release()

	for _, tc := range []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"missing bench", `{}`},
		{"unknown bench", `{"bench":"doom"}`},
		{"unknown profiler", `{"bench":"x264","profilers":["perf"]}`},
		{"bad granularity", `{"bench":"x264","granularity":"loop"}`},
		{"replay workers out of range", `{"bench":"x264","replay_workers":99}`},
		{"window_cycles without sampled", `{"bench":"x264","window_cycles":4096}`},
		{"window_interval without sampled", `{"bench":"x264","window_interval":65536}`},
		{"warmup_cycles without sampled", `{"bench":"x264","warmup_cycles":1024}`},
		{"window exceeds interval", `{"bench":"x264","sampled":true,"window_cycles":1048576,"window_interval":4096}`},
		{"warmup overflows gap", `{"bench":"x264","sampled":true,"window_cycles":4096,"window_interval":8192,"warmup_cycles":8192}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	if _, code := getJob(t, ts, "j99999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j99999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown job: status %d, want 404", resp.StatusCode)
	}

	// pprof for a job that is not done is a conflict.
	v, _ := submit(t, ts, testSpec())
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/pprof")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("pprof of running job: status %d, want 409", resp.StatusCode)
	}
	release()
	waitTerminal(t, ts, v.ID)
}

// TestHealthz sanity-checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var h struct {
		OK      bool `json:"ok"`
		Workers int  `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Workers != 1 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestConfigRejectsPartialCore is the regression test for the fill bug that
// keyed the "use the default core" decision on Core.FetchWidth alone: a
// partially-populated config (FetchWidth set, everything else zero) was
// accepted silently and panicked the first worker that built a core. New
// must reject it up front.
func TestConfigRejectsPartialCore(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.Core.FetchWidth = 8
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a partially-populated core config")
	} else if !strings.Contains(err.Error(), "core config") {
		t.Fatalf("err = %v, want a core config rejection", err)
	}

	// A fully zero core config still selects the Table 1 default...
	s, _ := newTestServer(t, Config{Workers: 1})
	if s.cfg.Core.FetchWidth != cpu.DefaultConfig().FetchWidth {
		t.Fatalf("zero core config not defaulted: %+v", s.cfg.Core)
	}
	// ...and an explicit complete config passes validation unchanged.
	custom := cpu.DefaultConfig()
	custom.ROBEntries = 64
	s2, _ := newTestServer(t, Config{Workers: 1, Core: custom})
	if s2.cfg.Core.ROBEntries != 64 {
		t.Fatalf("valid custom core config was rewritten: %+v", s2.cfg.Core)
	}
}

// TestFusedMissReportsReplayOnly checks a cache-miss job runs the fused
// streaming path: simulation and replay overlap, so the job reports all its
// wall-clock as replay and zero as a separate capture phase, while a
// subsequent hit reports a capture phase of ~0 and a real replay.
func TestFusedMissReportsReplayOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	v, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	miss := waitTerminal(t, ts, v.ID)
	if miss.State != stateDone || miss.CacheHit {
		t.Fatalf("first job: state=%s hit=%v (%s)", miss.State, miss.CacheHit, miss.Error)
	}
	if miss.Timing == nil || miss.Timing.CaptureSeconds != 0 || miss.Timing.ReplaySeconds <= 0 {
		t.Fatalf("fused miss timing = %+v, want capture 0 and replay > 0", miss.Timing)
	}

	v2, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", code)
	}
	hit := waitTerminal(t, ts, v2.ID)
	if hit.State != stateDone || !hit.CacheHit {
		t.Fatalf("second job: state=%s hit=%v (%s)", hit.State, hit.CacheHit, hit.Error)
	}
	if hit.Timing == nil || hit.Timing.ReplaySeconds <= 0 {
		t.Fatalf("cache hit timing = %+v, want a replay phase", hit.Timing)
	}
}

// TestMulticoreJobLifecycle drives a two-core job end to end: per-core
// results in the job view, per-core pprof export byte-identical to the batch
// multicore pipeline (including the "core" sample label), a cache hit on
// resubmission, and rejection of out-of-range core selectors.
func TestMulticoreJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := JobSpec{
		Cores: []CoreJobSpec{
			{Bench: "mcf", Scale: testScale},
			{Bench: "x264", Scale: testScale},
		},
		Profilers:     []string{"TIP"},
		TargetSamples: 256,
	}

	v, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitTerminal(t, ts, v.ID)
	if done.State != stateDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.CacheHit {
		t.Fatal("first multicore job for a core set must be a cache miss")
	}
	res := done.Result
	if res == nil || len(res.Cores) != 2 {
		t.Fatalf("multicore result = %+v, want 2 cores", res)
	}
	if res.Cycles == 0 {
		t.Fatal("multicore result has no total cycles")
	}
	for i, want := range []string{"mcf", "x264"} {
		cv := res.Cores[i]
		if cv.Bench != want {
			t.Fatalf("core %d bench = %q, want %q", i, cv.Bench, want)
		}
		if cv.Cycles == 0 || cv.SampleInterval == 0 {
			t.Fatalf("core %d: implausible result %+v", i, cv)
		}
		if _, ok := cv.Errors["TIP"]; !ok {
			t.Fatalf("core %d missing TIP error: %v", i, cv.Errors)
		}
		if len(cv.Profiles["Oracle"]) == 0 || len(cv.Profiles["TIP"]) == 0 {
			t.Fatalf("core %d missing profiles", i)
		}
	}

	// Per-core pprof must match the batch multicore pipeline bit for bit,
	// core label included.
	ws := make([]*tip.Workload, 2)
	for i, c := range spec.Cores {
		w, err := workload.LoadScaled(c.Bench, 1, c.Scale)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	rc := tip.DefaultRunConfig()
	rc.Profilers = []profiler.Kind{kindByName(t, "TIP")}
	rc.TargetSamples = spec.TargetSamples
	rc.ReplayWorkers = 2
	batch, err := tip.RunMulticore(context.Background(), ws, rc)
	if err != nil {
		t.Fatal(err)
	}
	for core, c := range spec.Cores {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/pprof?profiler=TIP&core=%d", ts.URL, v.ID, core))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(got) == 0 {
			t.Fatalf("core %d pprof: status %d, %d bytes", core, resp.StatusCode, len(got))
		}
		opt := pprofenc.JobOptions(c.Bench, 1, c.Scale, "TIP", batch.Cores[core].SampleInterval)
		opt.Labels = []pprofenc.Label{{Key: "core", Value: fmt.Sprint(core)}}
		want, err := pprofenc.Encode(batch.Cores[core].Sampled[kindByName(t, "TIP")].Profile, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("core %d: daemon pprof (%d bytes) differs from batch encoding (%d bytes)",
				core, len(got), len(want))
		}
	}

	// Out-of-range core selector is a client error.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/pprof?core=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("core=2 on a 2-core job: status %d, want 400", resp.StatusCode)
	}

	// The same core set again hits the capture cache.
	v2, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	done2 := waitTerminal(t, ts, v2.ID)
	if done2.State != stateDone || !done2.CacheHit {
		t.Fatalf("resubmitted job: state %s, cacheHit %v; want done hit", done2.State, done2.CacheHit)
	}
	for i := range done.Result.Cores {
		if done.Result.Cores[i].SampleInterval != done2.Result.Cores[i].SampleInterval {
			t.Fatalf("core %d interval changed across cache hit", i)
		}
	}
}

// TestMulticoreSpecValidation exercises the "cores" job spec rejections.
func TestMulticoreSpecValidation(t *testing.T) {
	pair := []CoreJobSpec{{Bench: "mcf"}, {Bench: "x264"}}
	bad := []JobSpec{
		{Cores: pair, Bench: "mcf"},
		{Cores: pair, Sampled: true},
		{Cores: []CoreJobSpec{{Bench: "nope"}}},
		{Cores: []CoreJobSpec{{}}},
		{Cores: make([]CoreJobSpec, 5)},
	}
	for i := range bad {
		if _, _, err := bad[i].normalize(); err == nil {
			t.Errorf("spec %d (%+v) unexpectedly valid", i, bad[i])
		}
	}
	good := JobSpec{Cores: pair}
	if _, _, err := good.normalize(); err != nil {
		t.Fatalf("plain cores spec rejected: %v", err)
	}
	if good.Cores[0].Seed != 1 || good.Cores[1].Seed != 1 {
		t.Fatalf("per-core seeds not defaulted: %+v", good.Cores)
	}
}

// TestNormalizeResolvesSampledSchedule checks a sampled spec's schedule is
// resolved to literal cycle counts: zero geometry takes the defaults,
// warmup_auto overrides warmup_cycles with the heuristic, and
// window_workers is clamped to [0,16].
func TestNormalizeResolvesSampledSchedule(t *testing.T) {
	cases := []struct {
		spec                     JobSpec
		window, interval, warmup uint64
		workers                  int
	}{
		{JobSpec{Bench: "mcf", Sampled: true},
			tip.DefaultSampledWindow, tip.DefaultSampledInterval, tip.DefaultSampledWarmup, 0},
		{JobSpec{Bench: "mcf", Sampled: true, WindowInterval: 1 << 20, WarmupCycles: 4096, WarmupAuto: true, WindowWorkers: 99},
			tip.DefaultSampledWindow, 1 << 20, tip.AutoWarmupCycles(tip.DefaultSampledWindow, 1<<20), 16},
		{JobSpec{Bench: "mcf", Sampled: true, WindowCycles: 2048, WindowInterval: 16384, WarmupCycles: 1024, WindowWorkers: -3},
			2048, 16384, 1024, 0},
	}
	for i, tc := range cases {
		sp := tc.spec
		if _, _, err := sp.normalize(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if sp.WindowCycles != tc.window || sp.WindowInterval != tc.interval ||
			sp.WarmupCycles != tc.warmup || sp.WindowWorkers != tc.workers {
			t.Errorf("case %d: resolved %d/%d/%d workers %d, want %d/%d/%d workers %d", i,
				sp.WindowCycles, sp.WindowInterval, sp.WarmupCycles, sp.WindowWorkers,
				tc.window, tc.interval, tc.warmup, tc.workers)
		}
	}
}
