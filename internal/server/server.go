// Package server implements tipd, the networked profiling service over the
// TIP capture/replay pipeline: clients POST profiling jobs, a bounded worker
// pool runs them (reusing cached captures so repeated jobs skip the
// cycle-level simulation and only replay), and results are served as JSON
// profiles or gzipped pprof protobufs that open in `go tool pprof`.
//
// This is the §3.1 deployment story turned into a service: perf records TIP
// samples online and profiles are rebuilt offline on demand — tipd plays the
// perf-server role, with the simulator standing in for the hardware.
//
// API:
//
//	POST   /v1/jobs             submit a job (JobSpec body) — 202, or 429 when saturated
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job state + JSON profile when done
//	GET    /v1/jobs/{id}/pprof  gzipped pprof protobuf (?profiler=TIP|Oracle|...)
//	DELETE /v1/jobs/{id}        cancel a queued/running job, or forget a finished one
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/fleet"
	"github.com/tipprof/tip/internal/pprofenc"
)

// Config parameterises the daemon.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS, min 1). Each
	// worker runs one job at a time; replay fan-out happens inside a job.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; submissions beyond it
	// are rejected with 429 + Retry-After (default 16).
	QueueDepth int
	// CacheEntries bounds the capture cache (default 8 captures).
	CacheEntries int
	// CacheBytes bounds the capture cache's encoded footprint
	// (default 1 GiB).
	CacheBytes uint64
	// JobTimeout bounds one job's execution (default 10m).
	JobTimeout time.Duration
	// MaxRetainedJobs bounds finished jobs kept for retrieval; the oldest
	// terminal jobs are forgotten first (default 256).
	MaxRetainedJobs int
	// Core is the simulated core configuration for every job (default
	// Table 1). It is part of the capture-cache key.
	Core cpu.Config
	// Store, when set, is the capture store and the cache's only
	// persistence tier: cache misses try the store before simulating, and
	// freshly simulated captures are published to it as they finish. A
	// local directory makes one daemon's captures survive restarts and
	// crashes; a shared one lets any node in a fleet serve any warm key.
	Store *fleet.Store
	// Logf receives operational warnings (failed store publishes). Default
	// log.Printf.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 8
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 1 << 30
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 256
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	// Only a fully zero core config selects the Table 1 default. Anything
	// else must stand on its own: keying the decision on a single field
	// (the old FetchWidth==0 check) silently accepted partially-populated
	// configs that later panicked the first worker that built a core.
	if reflect.DeepEqual(c.Core, cpu.Config{}) {
		c.Core = cpu.DefaultConfig()
	} else if err := c.Core.Validate(); err != nil {
		return fmt.Errorf("core config: %w", err)
	}
	return nil
}

// Server is the tipd daemon.
type Server struct {
	cfg      Config
	coreHash string

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // creation order, for retention
	nextID   uint64
	queue    chan *job
	running  int
	draining bool

	workers  sync.WaitGroup
	baseCtx  context.Context
	abort    context.CancelFunc
	cache    *captureCache
	met      *metrics
	mux      *http.ServeMux
	shutdown bool

	// execute runs one job; tests stub it to control timing and failure.
	execute func(ctx context.Context, jb *job) (*jobOutcome, error)
}

// New builds a Server and starts the worker pool. Captures in cfg.Store are
// read lazily, on the first miss for their key.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		coreHash: coreConfigHash(cfg.Core),
		jobs:     map[string]*job{},
		queue:    make(chan *job, cfg.QueueDepth),
		cache:    newCaptureCache(cfg.CacheEntries, cfg.CacheBytes, cfg.Store, cfg.Logf),
		met:      newMetrics(),
		mux:      http.NewServeMux(),
	}
	s.baseCtx, s.abort = context.WithCancel(context.Background())
	s.execute = s.executeJob
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/jobs/{id}/pprof", s.handlePprof)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// worker pulls jobs off the queue until the queue closes at shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	for jb := range s.queue {
		s.runJob(jb)
	}
}

// runJob drives one job through running → terminal state.
func (s *Server) runJob(jb *job) {
	s.mu.Lock()
	if jb.state != stateQueued {
		// Cancelled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	jb.state = stateRunning
	jb.started = time.Now()
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	jb.cancel = cancel
	s.running++
	s.mu.Unlock()

	out, err := s.execute(ctx, jb)
	timedOut := ctx.Err() != nil && errors.Is(ctx.Err(), context.DeadlineExceeded)
	cancel()

	s.mu.Lock()
	s.running--
	jb.finished = time.Now()
	jb.cancel = nil
	state := stateDone
	switch {
	case err == nil:
		jb.outcome = out
		jb.source = out.source
		jb.timing = out.timing
	case errors.Is(err, context.Canceled):
		state = stateCanceled
		jb.errMsg = "canceled"
	case timedOut || errors.Is(err, context.DeadlineExceeded):
		state = stateFailed
		jb.errMsg = fmt.Sprintf("timed out after %s", s.cfg.JobTimeout)
	default:
		state = stateFailed
		jb.errMsg = err.Error()
	}
	jb.state = state
	var cycles uint64
	simulated := false
	if state == stateDone && jb.outcome != nil {
		if jb.outcome.res != nil {
			cycles = jb.outcome.res.Stats.Cycles
		} else if jb.outcome.multi != nil {
			cycles = jb.outcome.multi.TotalCycles
		}
		// A store pull is not a simulation: only fresh cycle-level runs
		// (capture misses and sampled windows) count simulated cycles.
		simulated = jb.outcome.source == sourceSimulated || jb.outcome.source == sourceSampled
	}
	s.met.jobFinished(state, jb.timing.Capture.Seconds(), jb.timing.Replay.Seconds(), cycles, simulated)
	s.mu.Unlock()
}

// StartDrain marks the daemon draining: new submissions are refused with
// 503, queued and running jobs keep executing, and reads keep being served.
// Fleet workers call this (and push a draining heartbeat) before Shutdown so
// the coordinator takes the node off the ring while its jobs finish.
// Idempotent.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.startDrainLocked()
	s.mu.Unlock()
}

func (s *Server) startDrainLocked() {
	if s.draining {
		return
	}
	s.draining = true
	// Closing the queue lets the workers run every already-accepted job
	// and then exit; handleSubmit stops adding to it once draining is set.
	close(s.queue)
}

// Shutdown gracefully stops the daemon: new submissions are refused and
// queued and running jobs drain. Nothing is persisted here: every capture
// reached the store when it was simulated. If ctx expires first, in-flight jobs are aborted via their
// contexts and Shutdown returns ctx's error after they unwind — ctx is the
// drain-timeout bound, so a wedged job cannot hold shutdown forever.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	s.startDrainLocked()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.abort() // cancel in-flight job contexts
		<-done
		return ctx.Err()
	}
}

// --- HTTP handlers ---------------------------------------------------------

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	kinds, gran, err := spec.normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.nextID++
	jb := &job{
		id:      fmt.Sprintf("j%08d", s.nextID),
		spec:    spec,
		kinds:   kinds,
		gran:    gran,
		state:   stateQueued,
		created: time.Now(),
	}
	// Admission control: the queue send must not block — a full queue is
	// a saturated service, and the client should back off and retry. The
	// retry hint is jittered (fleet.RetryAfterMS) so the backed-off
	// clients don't return in one synchronized storm, and the body carries
	// the queue state so a fleet coordinator can treat the 429 as a steal
	// signal.
	select {
	case s.queue <- jb:
	default:
		s.nextID--
		depth, qcap := len(s.queue), s.cfg.QueueDepth
		s.mu.Unlock()
		s.met.jobRejected()
		ms := fleet.RetryAfterMS()
		w.Header().Set("Retry-After", strconv.Itoa((ms+999)/1000))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":          "job queue saturated; retry later",
			"retry_after_ms": ms,
			"queue_depth":    depth,
			"queue_cap":      qcap,
		})
		return
	}
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	s.retainLocked()
	v := s.view(jb)
	s.mu.Unlock()
	s.met.jobAccepted()

	w.Header().Set("Location", "/v1/jobs/"+jb.id)
	writeJSON(w, http.StatusAccepted, v)
}

// retainLocked forgets the oldest terminal jobs beyond MaxRetainedJobs.
// Queued and running jobs are never forgotten. Caller holds s.mu.
func (s *Server) retainLocked() {
	if len(s.jobs) <= s.cfg.MaxRetainedJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.cfg.MaxRetainedJobs
	for _, id := range s.order {
		jb := s.jobs[id]
		if jb == nil {
			continue
		}
		if excess > 0 && (jb.state == stateDone || jb.state == stateFailed || jb.state == stateCanceled) {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		if jb := s.jobs[id]; jb != nil {
			v := s.view(jb)
			v.Result = nil // keep the listing light
			views = append(views, v)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jb := s.jobs[r.PathValue("id")]
	if jb == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	v := s.view(jb)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	jb := s.jobs[id]
	if jb == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	switch jb.state {
	case stateQueued:
		// The worker that eventually pops it will skip it.
		jb.state = stateCanceled
		jb.errMsg = "canceled before start"
		jb.finished = time.Now()
		s.met.jobFinished(stateCanceled, 0, 0, 0, false)
		v := s.view(jb)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, v)
	case stateRunning:
		// Cancel the job's context; the worker observes the abort within
		// a few thousand simulated cycles (capture) or between record
		// chunks (sharded replay) and marks the job canceled.
		if jb.cancel != nil {
			jb.cancel()
		}
		v := s.view(jb)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, v)
	default:
		// Terminal: forget the job.
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jb := s.jobs[r.PathValue("id")]
	if jb == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if jb.state != stateDone || jb.outcome == nil ||
		(jb.outcome.res == nil && jb.outcome.multi == nil) {
		state := jb.state
		s.mu.Unlock()
		httpError(w, http.StatusConflict, fmt.Sprintf("job is %s, not done", state))
		return
	}
	res := jb.outcome.res
	multi := jb.outcome.multi
	spec := jb.spec
	s.mu.Unlock()

	// Multicore jobs expose one pprof file per core (?core=N, default 0);
	// the samples carry a "core" string label so merged or archived
	// profiles stay distinguishable (`go tool pprof -tags`).
	bench, seed, scale := spec.Bench, spec.Seed, spec.Scale
	var labels []pprofenc.Label
	if multi != nil {
		core := 0
		if cs := r.URL.Query().Get("core"); cs != "" {
			n, err := strconv.Atoi(cs)
			if err != nil || n < 0 || n >= len(multi.Cores) {
				httpError(w, http.StatusBadRequest,
					fmt.Sprintf("core %q out of range [0,%d)", cs, len(multi.Cores)))
				return
			}
			core = n
		}
		res = multi.Cores[core]
		cs := spec.Cores[core]
		bench, seed, scale = cs.Bench, cs.Seed, cs.Scale
		labels = []pprofenc.Label{{Key: "core", Value: strconv.Itoa(core)}}
	} else if r.URL.Query().Get("core") != "" {
		httpError(w, http.StatusBadRequest, "core selects a core of a multicore job; this job is single-core")
		return
	}

	name := r.URL.Query().Get("profiler")
	if name == "" {
		name = "TIP"
	}
	prof := res.Oracle.Profile
	if name != "Oracle" {
		found := false
		for k, sp := range res.Sampled {
			if k.String() == name {
				prof = sp.Profile
				found = true
				break
			}
		}
		if !found {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("profiler %q not in this job (use Oracle or one of the job's profilers)", name))
			return
		}
	}
	opt := pprofenc.JobOptions(bench, seed, scale, name, res.SampleInterval)
	opt.Labels = labels
	data, err := pprofenc.Encode(prof, opt)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-%s.pb.gz", bench, name))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries, bytes := s.cache.counters()
	s.mu.Lock()
	g := gauges{
		queueDepth:   len(s.queue),
		running:      s.running,
		workers:      s.cfg.Workers,
		draining:     s.draining,
		cacheHits:    hits,
		cacheMisses:  misses,
		cacheEntries: entries,
		cacheBytes:   bytes,
	}
	s.mu.Unlock()
	if st := s.cfg.Store; st != nil {
		g.store = true
		g.storeHits, g.storeMisses, g.storePuts = st.Counters()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writeProm(w, g)
}

// Health is the daemon's self-reported state: what /healthz serves, what a
// fleet member pushes in heartbeats, and what a human probes — one struct so
// all three read the same signal. The response stays a plain 200 regardless
// of load or drain state, so liveness probes written against the old
// endpoint keep working; drain is a field, not a status code.
type Health struct {
	OK           bool   `json:"ok"`
	Draining     bool   `json:"draining"`
	Jobs         int    `json:"jobs"`
	QueueDepth   int    `json:"queue_depth"`
	QueueCap     int    `json:"queue_cap"`
	Running      int    `json:"running"`
	Workers      int    `json:"workers"`
	CacheEntries int    `json:"cache_entries"`
	CacheBytes   uint64 `json:"cache_bytes"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	Simulations  uint64 `json:"simulations"`
	CoreHash     string `json:"core_hash"`
	StoreEnabled bool   `json:"store"`
	StoreHits    uint64 `json:"store_hits,omitempty"`
	StoreMisses  uint64 `json:"store_misses,omitempty"`
	StorePuts    uint64 `json:"store_puts,omitempty"`
}

// Health snapshots the daemon's state.
func (s *Server) Health() Health {
	hits, misses, entries, bytes := s.cache.counters()
	h := Health{
		OK:           true,
		CacheEntries: entries,
		CacheBytes:   bytes,
		CacheHits:    hits,
		CacheMisses:  misses,
		Simulations:  s.met.simulationCount(),
		CoreHash:     s.coreHash,
	}
	if st := s.cfg.Store; st != nil {
		h.StoreEnabled = true
		h.StoreHits, h.StoreMisses, h.StorePuts = st.Counters()
	}
	s.mu.Lock()
	h.Draining = s.draining
	h.Jobs = len(s.jobs)
	h.QueueDepth = len(s.queue)
	h.QueueCap = s.cfg.QueueDepth
	h.Running = s.running
	h.Workers = s.cfg.Workers
	s.mu.Unlock()
	return h
}

// NodeHealth maps the Health snapshot onto the heartbeat a fleet member
// pushes to its coordinator.
func (s *Server) NodeHealth() fleet.NodeHealth {
	h := s.Health()
	return fleet.NodeHealth{
		CoreHash:     h.CoreHash,
		Draining:     h.Draining,
		QueueDepth:   h.QueueDepth,
		QueueCap:     h.QueueCap,
		Running:      h.Running,
		Workers:      h.Workers,
		CacheEntries: h.CacheEntries,
		CacheBytes:   h.CacheBytes,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}
