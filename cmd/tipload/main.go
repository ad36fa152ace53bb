// Command tipload is the fleet load harness: it drives a tipd coordinator
// (or a single tipd) with many concurrent clients submitting a mixed
// warm/cold job universe, honors jittered 429 backpressure with capped
// exponential backoff, and reports latency percentiles, cache/store hit
// rates, steal rate, and per-node job counts as schema-versioned JSON.
//
// Point it at a running fleet:
//
//	tipload -target http://localhost:7270 -clients 64 -jobs 512
//
// or let it spin up a loopback fleet in-process (coordinator + N workers
// sharing one capture store) and load that:
//
//	tipload -fleet 3 -clients 64 -jobs 512
//
// The gate fields CI consumes: .repeat_hit_rate (≥0.95 on a healthy
// fleet — repeated keys must be served by the capture cache or the shared
// store, not re-simulated) and .lost (must be 0 — every accepted job
// stays fetchable, including across a worker drain).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tipprof/tip/internal/fleet"
	"github.com/tipprof/tip/internal/server"
)

const schemaVersion = 1

type config struct {
	target     string
	clients    int
	jobs       int
	benches    []string
	seeds      int
	scale      uint64
	samples    int
	poll       time.Duration
	jobTimeout time.Duration
	maxBackoff time.Duration
}

// jobResult is one client-observed job outcome.
type jobResult struct {
	key       string
	repeatKey bool // the key had already completed fleet-wide at submit time
	latency   time.Duration
	state     string // done | failed | canceled | lost | rejected
	source    string // simulated | cache | store | sampled
	cacheHit  bool
	node      string
	stolen    bool
	retries   int
}

// latencySummary is percentile output in milliseconds.
type latencySummary struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// report is tipload's JSON output.
type report struct {
	SchemaVersion int    `json:"schema_version"`
	Target        string `json:"target"`
	Clients       int    `json:"clients"`
	Jobs          int    `json:"jobs"`
	UniverseKeys  int    `json:"universe_keys"`
	ElapsedMS     int64  `json:"elapsed_ms"`

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Lost      int `json:"lost"`
	Rejected  int `json:"rejected"`

	Retries429 uint64 `json:"retries_429"`

	Latency     latencySummary `json:"latency_ms"`
	WarmLatency latencySummary `json:"warm_latency_ms"`

	RepeatKeyJobs int     `json:"repeat_key_jobs"`
	RepeatKeyHits int     `json:"repeat_key_hits"`
	RepeatHitRate float64 `json:"repeat_hit_rate"`

	Sources    map[string]int `json:"sources"`
	StolenJobs int            `json:"stolen_jobs"`
	StealRate  float64        `json:"steal_rate"`
	PerNode    map[string]int `json:"per_node"`
}

func main() {
	var (
		target     = flag.String("target", "", "coordinator (or single tipd) base URL to load")
		fleetN     = flag.Int("fleet", 0, "spin up an in-process loopback fleet of N workers instead of -target")
		storeDir   = flag.String("store", "", "capture store dir for -fleet mode (default: a temp dir)")
		clients    = flag.Int("clients", 32, "concurrent clients")
		jobs       = flag.Int("jobs", 128, "total jobs to submit")
		benches    = flag.String("bench", "x264,mcf,imagick", "comma-separated benchmark universe")
		seeds      = flag.Int("seeds", 2, "seeds per benchmark (universe = benches × seeds)")
		scale      = flag.Uint64("scale", 200_000, "dynamic-instruction scale per job")
		samples    = flag.Int("samples", 256, "target samples per profile")
		poll       = flag.Duration("poll", 50*time.Millisecond, "job status poll interval")
		jobTimeout = flag.Duration("job-timeout", 2*time.Minute, "per-job client deadline (submit through terminal)")
		maxBackoff = flag.Duration("max-backoff", 5*time.Second, "cap on 429 exponential backoff")
		out        = flag.String("o", "-", "write the JSON report here (- = stdout)")
	)
	flag.Parse()

	cfg := config{
		target:     strings.TrimRight(*target, "/"),
		clients:    *clients,
		jobs:       *jobs,
		benches:    strings.Split(*benches, ","),
		seeds:      *seeds,
		scale:      *scale,
		samples:    *samples,
		poll:       *poll,
		jobTimeout: *jobTimeout,
		maxBackoff: *maxBackoff,
	}

	if *fleetN > 0 {
		dir := *storeDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "tipload-store-"); err != nil {
				fmt.Fprintln(os.Stderr, "tipload:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
		}
		url, shutdown, err := spawnFleet(*fleetN, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tipload:", err)
			os.Exit(1)
		}
		defer shutdown()
		cfg.target = url
		fmt.Fprintf(os.Stderr, "tipload: loopback fleet of %d workers at %s (store %s)\n", *fleetN, url, dir)
	}
	if cfg.target == "" {
		fmt.Fprintln(os.Stderr, "tipload: need -target or -fleet")
		os.Exit(1)
	}

	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tipload:", err)
		os.Exit(1)
	}
	data, _ := json.MarshalIndent(rep, "", "  ")
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tipload:", err)
		os.Exit(1)
	}
	if rep.Lost > 0 || rep.Failed > 0 {
		os.Exit(2)
	}
}

// runLoad drives the configured universe with cfg.clients workers and
// aggregates the report.
func runLoad(cfg config) (*report, error) {
	universe := buildUniverse(cfg)
	if len(universe) == 0 {
		return nil, fmt.Errorf("empty job universe")
	}

	ld := &loader{
		cfg:       cfg,
		client:    &http.Client{Timeout: 30 * time.Second},
		completed: map[string]bool{},
	}
	results := make([]jobResult, cfg.jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.jobs {
					return
				}
				results[i] = ld.runOne(universe[i%len(universe)])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		SchemaVersion: schemaVersion,
		Target:        cfg.target,
		Clients:       cfg.clients,
		Jobs:          cfg.jobs,
		UniverseKeys:  len(universe),
		ElapsedMS:     elapsed.Milliseconds(),
		Retries429:    ld.retries429.Load(),
		Sources:       map[string]int{},
		PerNode:       map[string]int{},
	}
	var all, warm []time.Duration
	for _, r := range results {
		switch r.state {
		case "done":
			rep.Completed++
			all = append(all, r.latency)
			if r.source != "" {
				rep.Sources[r.source]++
			}
			hit := r.cacheHit || r.source == "cache" || r.source == "store"
			if hit {
				warm = append(warm, r.latency)
			}
			if r.repeatKey {
				rep.RepeatKeyJobs++
				if hit {
					rep.RepeatKeyHits++
				}
			}
			if r.stolen {
				rep.StolenJobs++
			}
			node := r.node
			if node == "" {
				node = "local"
			}
			rep.PerNode[node]++
		case "failed":
			rep.Failed++
		case "canceled":
			rep.Canceled++
		case "lost":
			rep.Lost++
		default:
			rep.Rejected++
		}
	}
	rep.Latency = summarize(all)
	rep.WarmLatency = summarize(warm)
	if rep.RepeatKeyJobs > 0 {
		rep.RepeatHitRate = float64(rep.RepeatKeyHits) / float64(rep.RepeatKeyJobs)
	}
	if rep.Completed > 0 {
		rep.StealRate = float64(rep.StolenJobs) / float64(rep.Completed)
	}
	return rep, nil
}

// jobSpec is the submitted body; key doubles as the repeat-tracking id.
type jobSpec struct {
	body []byte
	key  string
}

func buildUniverse(cfg config) []jobSpec {
	var out []jobSpec
	for _, b := range cfg.benches {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		for s := 1; s <= cfg.seeds; s++ {
			body, _ := json.Marshal(map[string]any{
				"bench": b, "seed": s, "scale": cfg.scale,
				"profilers": []string{"TIP"}, "target_samples": cfg.samples,
			})
			out = append(out, jobSpec{body: body, key: fmt.Sprintf("%s:%d:%d", b, s, cfg.scale)})
		}
	}
	return out
}

// loader is the shared client state.
type loader struct {
	cfg        config
	client     *http.Client
	retries429 atomic.Uint64

	mu        sync.Mutex
	completed map[string]bool // keys with at least one completed job
}

func (ld *loader) keyCompleted(key string) bool {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return ld.completed[key]
}

func (ld *loader) markCompleted(key string) {
	ld.mu.Lock()
	ld.completed[key] = true
	ld.mu.Unlock()
}

// jobView is the subset of the tipd/coordinator job view tipload reads.
type jobView struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	Error         string `json:"error"`
	CacheHit      bool   `json:"cache_hit"`
	CaptureSource string `json:"capture_source"`
	Node          string `json:"node"`
	Stolen        bool   `json:"stolen"`
	RetryAfterMS  int    `json:"retry_after_ms"`
}

// runOne submits one job with 429 backoff and polls it to a terminal state.
func (ld *loader) runOne(spec jobSpec) jobResult {
	res := jobResult{key: spec.key, repeatKey: ld.keyCompleted(spec.key)}
	deadline := time.Now().Add(ld.cfg.jobTimeout)
	start := time.Now()

	v, ok := ld.submit(spec, deadline, &res)
	if !ok {
		return res
	}
	res.node, res.stolen = v.Node, v.Stolen

	for time.Now().Before(deadline) {
		time.Sleep(ld.cfg.poll)
		cur, status, err := ld.get(v.ID)
		if err != nil {
			continue // transient; the deadline bounds us
		}
		if status == http.StatusNotFound {
			// Accepted earlier but gone now: the fleet lost it.
			res.state = "lost"
			return res
		}
		switch cur.State {
		case "done", "failed", "canceled":
			res.state = cur.State
			res.latency = time.Since(start)
			res.cacheHit = cur.CacheHit
			res.source = cur.CaptureSource
			if cur.Node != "" {
				res.node = cur.Node
			}
			if cur.State == "done" {
				ld.markCompleted(spec.key)
			}
			return res
		}
	}
	res.state = "lost" // accepted but never reached a terminal state in time
	return res
}

// submit POSTs the spec, honoring 429 retry_after_ms with capped
// exponential backoff (the hint is already jittered server-side; doubling
// it per consecutive rejection keeps a saturated fleet from being hammered).
func (ld *loader) submit(spec jobSpec, deadline time.Time, res *jobResult) (jobView, bool) {
	backoffMult := 1
	for time.Now().Before(deadline) {
		resp, err := ld.client.Post(ld.cfg.target+"/v1/jobs", "application/json", bytes.NewReader(spec.body))
		if err != nil {
			res.retries++
			time.Sleep(250 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		var v jobView
		json.Unmarshal(body, &v)
		switch resp.StatusCode {
		case http.StatusAccepted:
			return v, true
		case http.StatusTooManyRequests:
			ld.retries429.Add(1)
			res.retries++
			ra := v.RetryAfterMS
			if ra <= 0 {
				ra = 750
			}
			sleep := time.Duration(ra) * time.Millisecond * time.Duration(backoffMult)
			if sleep > ld.cfg.maxBackoff {
				sleep = ld.cfg.maxBackoff
			} else {
				backoffMult *= 2
			}
			time.Sleep(sleep)
		case http.StatusServiceUnavailable:
			res.retries++
			time.Sleep(500 * time.Millisecond)
		default:
			res.state = "rejected"
			return jobView{}, false
		}
	}
	res.state = "rejected"
	return jobView{}, false
}

func (ld *loader) get(id string) (jobView, int, error) {
	resp, err := ld.client.Get(ld.cfg.target + "/v1/jobs/" + id)
	if err != nil {
		return jobView{}, 0, err
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && resp.StatusCode == http.StatusOK {
		return jobView{}, 0, err
	}
	return v, resp.StatusCode, nil
}

func summarize(ds []time.Duration) latencySummary {
	if len(ds) == 0 {
		return latencySummary{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pct := func(q float64) float64 {
		return float64(ds[int(q*float64(len(ds)-1))].Microseconds()) / 1000
	}
	return latencySummary{
		P50:   pct(0.50),
		P90:   pct(0.90),
		P99:   pct(0.99),
		Max:   float64(ds[len(ds)-1].Microseconds()) / 1000,
		Count: len(ds),
	}
}

// spawnFleet starts a coordinator plus n workers on loopback listeners, all
// sharing one capture store, and returns the coordinator URL.
func spawnFleet(n int, storeDir string) (string, func(), error) {
	var closers []func()
	shutdown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}

	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	coordURL, stop, err := serveLoopback(coord.Handler())
	if err != nil {
		return "", nil, err
	}
	closers = append(closers, stop)

	beatCtx, stopBeats := context.WithCancel(context.Background())
	closers = append(closers, stopBeats)
	for i := 0; i < n; i++ {
		st, err := fleet.OpenStore(storeDir)
		if err != nil {
			shutdown()
			return "", nil, err
		}
		s, err := server.New(server.Config{Workers: 2, QueueDepth: 8, Store: st})
		if err != nil {
			shutdown()
			return "", nil, err
		}
		url, stop, err := serveLoopback(s.Handler())
		if err != nil {
			shutdown()
			return "", nil, err
		}
		srv := s
		closers = append(closers, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			stop()
		})
		m := &fleet.Member{
			Coordinator: coordURL,
			Name:        fmt.Sprintf("w%d", i),
			URL:         url,
			Interval:    200 * time.Millisecond,
			Snapshot:    s.NodeHealth,
		}
		go m.Run(beatCtx)
	}

	// Wait for every worker to land on the ring before loading.
	client := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < 100; i++ {
		resp, err := client.Get(coordURL + "/healthz")
		if err == nil {
			var h struct {
				RingNodes int `json:"ring_nodes"`
			}
			json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if h.RingNodes >= n {
				return coordURL, shutdown, nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	shutdown()
	return "", nil, fmt.Errorf("fleet never converged to %d ring nodes", n)
}

func serveLoopback(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}
