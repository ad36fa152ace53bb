package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// CoordinatorConfig parameterises the fleet coordinator.
type CoordinatorConfig struct {
	// HeartbeatTTL is how long a worker stays on the ring without a
	// heartbeat (default 5s).
	HeartbeatTTL time.Duration
	// MaxRoutedJobs bounds the submit-routing table; the oldest routes are
	// forgotten first (default 4096). A forgotten route returns 404 like a
	// forgotten tipd job.
	MaxRoutedJobs int
	// ProxyTimeout bounds one proxied request to a worker (default 30s).
	ProxyTimeout time.Duration
}

func (c *CoordinatorConfig) fill() {
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 5 * time.Second
	}
	if c.MaxRoutedJobs <= 0 {
		c.MaxRoutedJobs = 4096
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 30 * time.Second
	}
}

// routedJob maps one coordinator job id to where it actually ran.
type routedJob struct {
	node     string
	remoteID string
	key      string
	stolen   bool
}

// Coordinator fronts a fleet of tipd workers. Submissions are
// consistent-hashed by capture key onto the ring — so repeated jobs for one
// key land on the node whose LRU cache is warm for it — with a single steal
// hop to the second-choice owner when the home node rejects (429 saturated,
// 503 draining, or unreachable). Job reads and cancels proxy through to the
// owning node with the coordinator's job id rewritten in.
//
// API (client-facing routes mirror tipd's):
//
//	POST   /v1/jobs                submit: route by capture key, steal on saturation
//	GET    /v1/jobs                routing table (coordinator id → node, remote id)
//	GET    /v1/jobs/{id}           proxy to the owning node
//	DELETE /v1/jobs/{id}           proxy to the owning node
//	GET    /v1/jobs/{id}/pprof     proxy (bytes pass through untouched)
//	POST   /fleet/v1/register      worker heartbeat (NodeHealth body)
//	GET    /fleet/v1/nodes         fleet membership + per-node routing counters
//	GET    /metrics                Prometheus text exposition
//	GET    /healthz                liveness + ring size
type Coordinator struct {
	cfg    CoordinatorConfig
	reg    *registry
	client *http.Client
	mux    *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*routedJob
	order   []string
	nextID  uint64
	routed  uint64
	steals  uint64
	rejects uint64 // all candidates saturated
	errors  uint64 // proxy failures
}

// NewCoordinator builds a Coordinator with an empty fleet; workers appear as
// their heartbeats arrive.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg.fill()
	c := &Coordinator{
		cfg:    cfg,
		reg:    newRegistry(cfg.HeartbeatTTL),
		client: &http.Client{Timeout: cfg.ProxyTimeout},
		mux:    http.NewServeMux(),
		jobs:   map[string]*routedJob{},
	}
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs", c.handleList)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleProxyGet)
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleProxyDelete)
	c.mux.HandleFunc("GET /v1/jobs/{id}/pprof", c.handleProxyPprof)
	c.mux.HandleFunc("POST /fleet/v1/register", c.handleRegister)
	c.mux.HandleFunc("GET /fleet/v1/nodes", c.handleNodes)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	return c
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// RouteKey derives the ring key from a tipd job spec body. Only the fields
// that enter the capture-cache key matter (bench/seed/scale, or the ordered
// core set); everything else — profilers, granularity, replay workers —
// changes how a capture is consumed, not which capture it is, so specs that
// share a capture always hash to the same home node. The defaulting below
// mirrors JobSpec.normalize (seed 0 → 1) so explicit and implicit defaults
// key identically.
func RouteKey(specJSON []byte) (string, error) {
	var spec struct {
		Bench string `json:"bench"`
		Seed  uint64 `json:"seed"`
		Scale uint64 `json:"scale"`
		Cores []struct {
			Bench string `json:"bench"`
			Seed  uint64 `json:"seed"`
			Scale uint64 `json:"scale"`
		} `json:"cores"`
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return "", fmt.Errorf("bad job spec: %w", err)
	}
	if len(spec.Cores) > 0 {
		var b strings.Builder
		b.WriteString("cores:")
		for _, cs := range spec.Cores {
			seed := cs.Seed
			if seed == 0 {
				seed = 1
			}
			fmt.Fprintf(&b, "%s:%d:%d,", cs.Bench, seed, cs.Scale)
		}
		return b.String(), nil
	}
	if spec.Bench == "" {
		return "", fmt.Errorf("bench is required")
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return fmt.Sprintf("%s:%d:%d", spec.Bench, seed, spec.Scale), nil
}

// maxBodyBytes caps the request bodies the coordinator reads.
const maxBodyBytes = 1 << 20

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var h NodeHealth
	err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&h)
	if err != nil || h.Name == "" || h.URL == "" {
		cWriteJSON(w, http.StatusBadRequest, map[string]any{"error": "heartbeat needs name and url"})
		return
	}
	c.reg.heartbeat(h, time.Now())
	cWriteJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleSubmit routes one submission: forward to the home node, steal to the
// next ring owner if the home rejects, 429 with jitter when every candidate
// is saturated.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		cWriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	key, err := RouteKey(body)
	if err != nil {
		cWriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	// Home plus one steal candidate: a second hop already smooths hot
	// spots, and bounding the walk keeps a saturated fleet's rejects fast.
	cands := c.reg.owners(key, 2, time.Now())
	if len(cands) == 0 {
		cWriteJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no workers registered"})
		return
	}
	saturated := 0
	for i, cand := range cands {
		resp, err := c.client.Post(cand.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			c.bump(&c.errors)
			continue
		}
		respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if rerr != nil {
			c.bump(&c.errors)
			continue
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			c.acceptRouted(w, key, cand.Name, i > 0, respBody)
			return
		case http.StatusTooManyRequests:
			// Saturated: steal to the next owner on the ring.
			saturated++
			continue
		case http.StatusServiceUnavailable:
			// Draining but its heartbeat hasn't told us yet.
			continue
		default:
			// A real answer (e.g. 400 bad spec): relay it verbatim.
			for k, vs := range resp.Header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(respBody)
			return
		}
	}
	c.bump(&c.rejects)
	if saturated > 0 {
		ms := RetryAfterMS()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", (ms+999)/1000))
		cWriteJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":          "fleet saturated; retry later",
			"retry_after_ms": ms,
		})
		return
	}
	cWriteJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no reachable worker for key"})
}

// acceptRouted records the mapping for an accepted job and relays the
// worker's 202 with the coordinator's id (and the serving node) swapped in.
func (c *Coordinator) acceptRouted(w http.ResponseWriter, key, node string, stolen bool, respBody []byte) {
	var view map[string]any
	if err := json.Unmarshal(respBody, &view); err != nil {
		c.bump(&c.errors)
		cWriteJSON(w, http.StatusBadGateway, map[string]any{"error": "bad worker response"})
		return
	}
	remoteID, _ := view["id"].(string)

	c.mu.Lock()
	c.nextID++
	c.routed++
	if stolen {
		c.steals++
	}
	id := fmt.Sprintf("f%08d", c.nextID)
	c.jobs[id] = &routedJob{node: node, remoteID: remoteID, key: key, stolen: stolen}
	c.order = append(c.order, id)
	for len(c.order) > c.cfg.MaxRoutedJobs {
		delete(c.jobs, c.order[0])
		c.order = c.order[1:]
	}
	c.mu.Unlock()
	c.reg.routed(node, stolen)

	view["id"] = id
	view["node"] = node
	view["stolen"] = stolen
	w.Header().Set("Location", "/v1/jobs/"+id)
	cWriteJSON(w, http.StatusAccepted, view)
}

// lookup resolves a coordinator job id to (node URL, remote id).
func (c *Coordinator) lookup(id string) (rj *routedJob, url string, ok bool) {
	c.mu.Lock()
	rj = c.jobs[id]
	c.mu.Unlock()
	if rj == nil {
		return nil, "", false
	}
	url = c.reg.url(rj.node)
	return rj, url, url != ""
}

// proxyJSON forwards method to the owning worker and relays the response
// with coordinator ids swapped back in.
func (c *Coordinator) proxyJSON(w http.ResponseWriter, method, id, suffix string) {
	rj, base, ok := c.lookup(id)
	if !ok {
		cWriteJSON(w, http.StatusNotFound, map[string]any{"error": "no such job"})
		return
	}
	req, err := http.NewRequest(method, base+"/v1/jobs/"+rj.remoteID+suffix, nil)
	if err != nil {
		cWriteJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.bump(&c.errors)
		cWriteJSON(w, http.StatusBadGateway, map[string]any{"error": fmt.Sprintf("node %s unreachable: %v", rj.node, err)})
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		c.bump(&c.errors)
		cWriteJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error()})
		return
	}
	var view map[string]any
	if len(body) > 0 && json.Unmarshal(body, &view) == nil && view != nil {
		if _, has := view["id"]; has {
			view["id"] = id
			view["node"] = rj.node
			view["stolen"] = rj.stolen
		}
		cWriteJSON(w, resp.StatusCode, view)
		return
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

func (c *Coordinator) handleProxyGet(w http.ResponseWriter, r *http.Request) {
	c.proxyJSON(w, http.MethodGet, r.PathValue("id"), "")
}

func (c *Coordinator) handleProxyDelete(w http.ResponseWriter, r *http.Request) {
	c.proxyJSON(w, http.MethodDelete, r.PathValue("id"), "")
}

// handleProxyPprof relays the binary pprof payload untouched: the fleet's
// contract is that warm profiles are bit-identical from any node, so the
// coordinator must not reframe them.
func (c *Coordinator) handleProxyPprof(w http.ResponseWriter, r *http.Request) {
	rj, base, ok := c.lookup(r.PathValue("id"))
	if !ok {
		cWriteJSON(w, http.StatusNotFound, map[string]any{"error": "no such job"})
		return
	}
	url := base + "/v1/jobs/" + rj.remoteID + "/pprof"
	if q := r.URL.RawQuery; q != "" {
		url += "?" + q
	}
	resp, err := c.client.Get(url)
	if err != nil {
		c.bump(&c.errors)
		cWriteJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error()})
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	jobs := make([]map[string]any, 0, len(c.order))
	for _, id := range c.order {
		if rj := c.jobs[id]; rj != nil {
			jobs = append(jobs, map[string]any{
				"id": id, "node": rj.node, "remote_id": rj.remoteID,
				"key": rj.key, "stolen": rj.stolen,
			})
		}
	}
	c.mu.Unlock()
	cWriteJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	views := c.reg.views(time.Now())
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	cWriteJSON(w, http.StatusOK, map[string]any{"nodes": views})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	views := c.reg.views(time.Now())
	onRing := 0
	for _, v := range views {
		if v.OnRing {
			onRing++
		}
	}
	cWriteJSON(w, http.StatusOK, map[string]any{
		"ok": true, "role": "coordinator", "nodes": len(views), "ring_nodes": onRing,
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	views := c.reg.views(time.Now())
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	c.mu.Lock()
	routed, steals, rejects, errs := c.routed, c.steals, c.rejects, c.errors
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP fleet_jobs_routed_total Submissions accepted by some worker.\n")
	fmt.Fprintf(w, "# TYPE fleet_jobs_routed_total counter\n")
	fmt.Fprintf(w, "fleet_jobs_routed_total %d\n", routed)
	fmt.Fprintf(w, "# HELP fleet_steals_total Jobs routed to a non-home node because the home was saturated.\n")
	fmt.Fprintf(w, "# TYPE fleet_steals_total counter\n")
	fmt.Fprintf(w, "fleet_steals_total %d\n", steals)
	fmt.Fprintf(w, "# HELP fleet_rejected_total Submissions rejected with every candidate unavailable.\n")
	fmt.Fprintf(w, "# TYPE fleet_rejected_total counter\n")
	fmt.Fprintf(w, "fleet_rejected_total %d\n", rejects)
	fmt.Fprintf(w, "# HELP fleet_proxy_errors_total Worker requests that failed at the transport level.\n")
	fmt.Fprintf(w, "# TYPE fleet_proxy_errors_total counter\n")
	fmt.Fprintf(w, "fleet_proxy_errors_total %d\n", errs)
	fmt.Fprintf(w, "# HELP fleet_nodes Registered workers (on the ring or not).\n")
	fmt.Fprintf(w, "# TYPE fleet_nodes gauge\n")
	fmt.Fprintf(w, "fleet_nodes %d\n", len(views))
	fmt.Fprintf(w, "# HELP fleet_node_assigned_total Jobs routed to a node as its home.\n")
	fmt.Fprintf(w, "# TYPE fleet_node_assigned_total counter\n")
	for _, v := range views {
		fmt.Fprintf(w, "fleet_node_assigned_total{node=%q} %d\n", v.Name, v.Assigned)
	}
	fmt.Fprintf(w, "# HELP fleet_node_stolen_total Jobs a node received as a steal.\n")
	fmt.Fprintf(w, "# TYPE fleet_node_stolen_total counter\n")
	for _, v := range views {
		fmt.Fprintf(w, "fleet_node_stolen_total{node=%q} %d\n", v.Name, v.Stolen)
	}
}

func (c *Coordinator) bump(ctr *uint64) {
	c.mu.Lock()
	*ctr++
	c.mu.Unlock()
}

// RetryAfterMS picks a jittered retry hint for saturation 429s: a fixed
// Retry-After synchronizes every backed-off client into retry storms that
// re-saturate the queue in lockstep, so spread them over [500ms, 1500ms).
// tipd's own 429 path uses the same draw.
func RetryAfterMS() int { return 500 + rand.IntN(1000) }

func cWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
