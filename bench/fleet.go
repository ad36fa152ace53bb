package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/fleet"
	"github.com/tipprof/tip/internal/pprofenc"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/server"
	"github.com/tipprof/tip/internal/workload"
)

// jobKey is one tipd capture key.
type jobKey struct {
	bench       string
	seed, scale uint64
}

func (k jobKey) id() string { return fmt.Sprintf("%s:%d", k.bench, k.seed) }

func (k jobKey) body() []byte {
	b, _ := json.Marshal(server.JobSpec{
		Bench: k.bench, Seed: k.seed, Scale: k.scale,
		Profilers: fleetProfilers, TargetSamples: fleetTargetSamples,
		ReplayWorkers: 1,
	})
	return b
}

// encodeTIP encodes a result's TIP profile exactly as tipd serves it.
func encodeTIP(res *tip.Result, k jobKey) ([]byte, error) {
	sp, ok := res.Sampled[profiler.KindTIP]
	if !ok {
		return nil, errors.New("result has no TIP profile")
	}
	return pprofenc.Encode(sp.Profile, pprofenc.JobOptions(k.bench, k.seed, k.scale, "TIP", res.SampleInterval))
}

// directWarm does what a warm tipd job does, through the library alone:
// it captures the key's workload, then replays the capture through the
// job's matrix and encodes the TIP pprof, timing those last two steps.
func directWarm(ctx context.Context, k jobKey) (*workload.Workload, []byte, time.Duration, error) {
	w, err := workload.LoadScaled(k.bench, k.seed, k.scale)
	if err != nil {
		return nil, nil, 0, err
	}
	capt, stats, err := tip.CaptureWorkload(w, cpu.DefaultConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	defer capt.Close()
	start := time.Now()
	res, err := tip.RunCaptured(ctx, w, capt, stats, jobRunConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := encodeTIP(res, k)
	return w, data, time.Since(start), err
}

// loopbackFleet is an in-process coordinator plus tipd workers, each with
// one job worker, sharing a capture store under the temp directory.
type loopbackFleet struct {
	coordURL string
	nodes    map[string]*fleetNode
	storeDir string
	stops    []func()
	beats    sync.WaitGroup
}

type fleetNode struct {
	url   string
	srv   *server.Server
	store *fleet.Store
}

func startFleet(workers int) (*loopbackFleet, error) {
	dir, err := os.MkdirTemp("", "bench-store-")
	if err != nil {
		return nil, err
	}
	f := &loopbackFleet{storeDir: dir, nodes: map[string]*fleetNode{}}
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	if f.coordURL, err = f.serve(coord.Handler()); err != nil {
		f.close()
		return nil, err
	}
	beatCtx, stopBeats := context.WithCancel(context.Background())
	f.stops = append(f.stops, func() {
		stopBeats()
		f.beats.Wait()
	})
	for i := 0; i < workers; i++ {
		st, err := fleet.OpenStore(dir)
		if err != nil {
			f.close()
			return nil, err
		}
		srv, err := server.New(server.Config{Workers: 2, Store: st})
		if err != nil {
			f.close()
			return nil, err
		}
		url, err := f.serve(srv.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.stops = append(f.stops, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		name := fmt.Sprintf("w%d", i)
		f.nodes[name] = &fleetNode{url: url, srv: srv, store: st}
		m := &fleet.Member{
			Coordinator: f.coordURL,
			Name:        name,
			URL:         url,
			Interval:    200 * time.Millisecond,
			Snapshot: func() fleet.NodeHealth {
				h := srv.Health()
				return fleet.NodeHealth{
					CoreHash: h.CoreHash, Draining: h.Draining,
					QueueDepth: h.QueueDepth, QueueCap: h.QueueCap,
					Running: h.Running, Workers: h.Workers,
					CacheEntries: h.CacheEntries, CacheBytes: h.CacheBytes,
				}
			},
		}
		f.beats.Add(1)
		go func() {
			defer f.beats.Done()
			m.Run(beatCtx)
		}()
	}
	// Every worker must be on the ring before the first job.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var h struct {
			RingNodes int `json:"ring_nodes"`
		}
		if getJSON(f.coordURL+"/healthz", &h) == nil && h.RingNodes >= workers {
			return f, nil
		}
		time.Sleep(time.Millisecond)
	}
	f.close()
	return nil, fmt.Errorf("fleet never reached %d ring nodes", workers)
}

// serve starts an HTTP server for h on a loopback port.
func (f *loopbackFleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	f.stops = append(f.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// close stops everything in reverse start order and removes the store.
func (f *loopbackFleet) close() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
	f.stops = nil
	os.RemoveAll(f.storeDir)
}

func (f *loopbackFleet) simulations() (n uint64) {
	for _, nd := range f.nodes {
		n += nd.srv.Health().Simulations
	}
	return n
}

func (f *loopbackFleet) storeCounters() (hits, puts uint64) {
	for _, nd := range f.nodes {
		h, _, p := nd.store.Counters()
		hits += h
		puts += p
	}
	return hits, puts
}

var httpClient = &http.Client{Timeout: 60 * time.Second}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobView is the part of the job view the benchmark reads.
type jobView struct {
	ID            string    `json:"id"`
	State         string    `json:"state"`
	Error         string    `json:"error"`
	Created       time.Time `json:"created"`
	Started       time.Time `json:"started"`
	Finished      time.Time `json:"finished"`
	CacheHit      bool      `json:"cache_hit"`
	CaptureSource string    `json:"capture_source"`
	Node          string    `json:"node"`
	Stolen        bool      `json:"stolen"`
	RetryAfterMS  int       `json:"retry_after_ms"`
	Timing        struct {
		ReplaySeconds float64 `json:"replay_seconds"`
	} `json:"timing"`
	Result struct {
		Cycles uint64 `json:"cycles"`
	} `json:"result"`
}

func (v *jobView) warm() bool { return v.CaptureSource == "cache" || v.CaptureSource == "store" }

// jobRecord is one client-observed job.
type jobRecord struct {
	key        int
	start      time.Time
	latency    time.Duration // submit to pprof received
	fetch      time.Duration // the pprof GET
	view       jobView
	pprof      string // digest
	retries429 int
	err        error
}

// session is one closed-loop run of jobs against a fleet.
type session struct {
	f    *loopbackFleet
	keys []jobKey
	jobs []jobRecord
	wall time.Duration
}

// runSession drives the jobs in order with fleetClients closed-loop
// clients: each submits, polls every fleetPoll until the job is terminal,
// then fetches its TIP pprof. The jobs run in segments of fleetSegment:
// between segments the clients wait for each other and between is called.
// A non-nil tracer records client-side spans.
func runSession(ctx context.Context, f *loopbackFleet, keys []jobKey, order []int, tr *tracer, between func()) (*session, error) {
	s := &session{f: f, keys: keys, jobs: make([]jobRecord, len(order))}
	root := tr.start("fleet.session", -1)
	start := time.Now()
	var paused time.Duration
	for lo := 0; lo < len(order) && ctx.Err() == nil; lo += fleetSegment {
		if lo > 0 {
			t := time.Now()
			between()
			paused += time.Since(t)
		}
		hi := min(lo+fleetSegment, len(order))
		next := atomic.Int64{}
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c := 0; c < fleetClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi || ctx.Err() != nil {
						return
					}
					s.jobs[i] = s.runJob(ctx, order[i], tr, root)
				}
			}()
		}
		wg.Wait()
	}
	s.wall = time.Since(start) - paused
	tr.end(root, uint64(len(order)))
	return s, ctx.Err()
}

func (s *session) runJob(ctx context.Context, key int, tr *tracer, parent int) jobRecord {
	rec := jobRecord{key: key}
	k := s.keys[key]
	span := tr.startArg("job", k.id(), parent)
	defer func() { tr.end(span, 1) }()
	start := time.Now()
	rec.start = start

	sub := tr.start("client.submit", span)
	for {
		resp, err := httpClient.Post(s.f.coordURL+"/v1/jobs", "application/json", bytes.NewReader(k.body()))
		if err != nil {
			rec.err = err
			tr.end(sub, 0)
			return rec
		}
		err = json.NewDecoder(resp.Body).Decode(&rec.view)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rec.retries429++
			time.Sleep(time.Duration(rec.view.RetryAfterMS) * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted || err != nil {
			rec.err = fmt.Errorf("submit %s: %s %v", k.id(), resp.Status, err)
			tr.end(sub, 0)
			return rec
		}
		break
	}
	tr.end(sub, 1)
	id := rec.view.ID

	wait := tr.start("client.wait", span)
	polls := uint64(0)
	for rec.view.State != "done" {
		if rec.view.State == "failed" || rec.view.State == "canceled" {
			rec.err = fmt.Errorf("job %s %s: %s", k.id(), rec.view.State, rec.view.Error)
			tr.end(wait, polls)
			return rec
		}
		if ctx.Err() != nil {
			rec.err = ctx.Err()
			tr.end(wait, polls)
			return rec
		}
		time.Sleep(fleetPoll)
		polls++
		if err := getJSON(s.f.coordURL+"/v1/jobs/"+id, &rec.view); err != nil {
			rec.err = err
			tr.end(wait, polls)
			return rec
		}
	}
	tr.end(wait, polls)

	get := tr.start("client.pprof", span)
	t := time.Now()
	data, err := getBytes(s.f.coordURL + "/v1/jobs/" + id + "/pprof?profiler=TIP")
	rec.fetch = time.Since(t)
	tr.end(get, uint64(len(data)))
	if err != nil {
		rec.err = err
		return rec
	}
	rec.pprof = sha(data)
	rec.latency = time.Since(start)
	return rec
}

func getBytes(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

// passResult turns the session into the pass's measurements and checks:
// every job completed, each key simulated exactly once, and every warm job
// of a key served the same pprof bytes from whichever node ran it.
func (s *session) passResult() *passResult {
	pr := &passResult{digests: map[string]string{}}
	warmNodes := map[string]map[string]bool{}
	for _, j := range s.jobs {
		k := s.keys[j.key].id()
		if j.err != nil {
			pr.checks = append(pr.checks, check{name: "job " + k, detail: j.err.Error()})
			continue
		}
		pr.ops = append(pr.ops, opTime{j.start, j.start.Add(j.latency)})
		pr.mcycles += float64(j.view.Result.Cycles) / 1e6
		kind := "cold"
		if j.view.warm() {
			kind = "warm"
			if warmNodes[k] == nil {
				warmNodes[k] = map[string]bool{}
			}
			warmNodes[k][j.view.Node] = true
		}
		dk := k + "." + kind
		if prev, ok := pr.digests[dk]; !ok {
			pr.digests[dk] = j.pprof
		} else if prev != j.pprof {
			pr.checks = append(pr.checks, check{name: "identical " + kind + " pprof " + k,
				detail: fmt.Sprintf("node %s served %s, earlier %s", j.view.Node, short(j.pprof), short(prev))})
		}
	}
	for _, k := range s.keys {
		for _, kind := range []string{"warm", "cold"} {
			if _, ok := pr.digests[k.id()+"."+kind]; !ok {
				pr.checks = append(pr.checks, check{name: kind + " job served " + k.id(), detail: "no " + kind + " job completed"})
			}
		}
	}
	sims := s.f.simulations()
	pr.checks = append(pr.checks, check{
		name: "one simulation per key", ok: sims == uint64(len(s.keys)),
		detail: fmt.Sprintf("%d simulations for %d keys", sims, len(s.keys)),
	})
	return pr
}

// layerMetrics derives the server and fleet per-layer metrics from the job
// views and the store counters.
func (s *session) layerMetrics(lm map[string]float64) {
	var queue, warmExec, coldExec, warmReplay, client, fetch []float64
	hits, stolen, retries := 0, 0, 0
	for _, j := range s.jobs {
		if j.err != nil {
			continue
		}
		v := j.view
		life := v.Finished.Sub(v.Created)
		queue = append(queue, ms(v.Started.Sub(v.Created)))
		exec := ms(v.Finished.Sub(v.Started))
		if v.warm() {
			warmExec = append(warmExec, exec)
			warmReplay = append(warmReplay, v.Timing.ReplaySeconds*1e3)
		} else {
			coldExec = append(coldExec, exec)
		}
		client = append(client, ms(j.latency-life-j.fetch))
		fetch = append(fetch, ms(j.fetch))
		if v.CacheHit {
			hits++
		}
		if v.Stolen {
			stolen++
		}
		retries += j.retries429
	}
	n := float64(len(queue))
	lm["server.queue_ms.p50"] = median(queue)
	lm["server.exec_ms.warm.p50"] = median(warmExec)
	lm["server.exec_ms.cold.p50"] = median(coldExec)
	lm["server.replay_ms.warm.p50"] = median(warmReplay)
	lm["server.client_ms.p50"] = median(client)
	lm["server.pprof_fetch_ms.p50"] = median(fetch)
	lm["server.cache_hit_ratio"] = float64(hits) / n
	lm["server.simulations"] = float64(s.f.simulations())
	lm["fleet.steal_ratio"] = float64(stolen) / n
	lm["fleet.retries_429"] = float64(retries)
	h, p := s.f.storeCounters()
	lm["fleet.store_hits"] = float64(h)
	lm["fleet.store_puts"] = float64(p)
}

// proxyHop is the median extra time a job read takes through the
// coordinator over reading it from its node directly, alternating the two.
func (s *session) proxyHop(gets int) (float64, error) {
	var routes struct {
		Jobs []struct {
			ID       string `json:"id"`
			Node     string `json:"node"`
			RemoteID string `json:"remote_id"`
		} `json:"jobs"`
	}
	if err := getJSON(s.f.coordURL+"/v1/jobs", &routes); err != nil {
		return 0, err
	}
	if len(routes.Jobs) == 0 {
		return 0, errors.New("no routed jobs")
	}
	r := routes.Jobs[len(routes.Jobs)-1]
	nd := s.f.nodes[r.Node]
	if nd == nil {
		return 0, fmt.Errorf("unknown node %q", r.Node)
	}
	var via, direct []float64
	var v jobView
	for i := 0; i < gets; i++ {
		t := time.Now()
		if err := getJSON(s.f.coordURL+"/v1/jobs/"+r.ID, &v); err != nil {
			return 0, err
		}
		via = append(via, ms(time.Since(t)))
		t = time.Now()
		if err := getJSON(nd.url+"/v1/jobs/"+r.RemoteID, &v); err != nil {
			return 0, err
		}
		direct = append(direct, ms(time.Since(t)))
	}
	return median(via) - median(direct), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
