package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// fakeWorker mimics tipd's job API: 202 with a fresh id, or 429 when
// saturated, or 503 when draining. It records which specs it accepted.
type fakeWorker struct {
	name string
	ts   *httptest.Server

	mu        sync.Mutex
	saturated bool
	accepted  []string // raw bodies
	nextID    int
	gets      []string // remote ids fetched
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		fw.mu.Lock()
		defer fw.mu.Unlock()
		if fw.saturated {
			w.Header().Set("Retry-After", "1")
			cWriteJSON(w, http.StatusTooManyRequests, map[string]any{
				"error": "job queue saturated; retry later", "retry_after_ms": 700,
			})
			return
		}
		fw.nextID++
		fw.accepted = append(fw.accepted, buf.String())
		cWriteJSON(w, http.StatusAccepted, map[string]any{
			"id": fmt.Sprintf("%s-j%d", fw.name, fw.nextID), "state": "queued",
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fw.mu.Lock()
		fw.gets = append(fw.gets, r.PathValue("id"))
		fw.mu.Unlock()
		cWriteJSON(w, http.StatusOK, map[string]any{
			"id": r.PathValue("id"), "state": "done", "cache_hit": true,
		})
	})
	fw.ts = httptest.NewServer(mux)
	t.Cleanup(fw.ts.Close)
	return fw
}

func (fw *fakeWorker) setSaturated(v bool) {
	fw.mu.Lock()
	fw.saturated = v
	fw.mu.Unlock()
}

func (fw *fakeWorker) acceptedCount() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return len(fw.accepted)
}

func (fw *fakeWorker) health(draining bool) NodeHealth {
	return NodeHealth{Name: fw.name, URL: fw.ts.URL, Draining: draining, Workers: 2}
}

func newTestCoordinator(t *testing.T) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func register(t *testing.T, ts *httptest.Server, h NodeHealth) {
	t.Helper()
	body, _ := json.Marshal(h)
	resp, err := http.Post(ts.URL+"/fleet/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
}

func submitRaw(t *testing.T, ts *httptest.Server, spec string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

func TestCoordinatorAffinityAndProxy(t *testing.T) {
	_, ts := newTestCoordinator(t)
	a, b := newFakeWorker(t, "a"), newFakeWorker(t, "b")
	register(t, ts, a.health(false))
	register(t, ts, b.health(false))

	// Same key routes to the same node every time.
	spec := `{"bench":"mcf","scale":100000}`
	first, code := submitRaw(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", code, first)
	}
	home := first["node"].(string)
	if first["stolen"].(bool) {
		t.Fatal("unsaturated submit marked stolen")
	}
	for i := 0; i < 5; i++ {
		v, code := submitRaw(t, ts, spec)
		if code != http.StatusAccepted || v["node"].(string) != home {
			t.Fatalf("repeat submit landed on %v (status %d), want %s", v["node"], code, home)
		}
	}
	if got := a.acceptedCount() + b.acceptedCount(); got != 6 {
		t.Fatalf("workers accepted %d jobs, want 6", got)
	}
	if a.acceptedCount() != 0 && b.acceptedCount() != 0 {
		t.Fatal("one key spread across both nodes")
	}

	// The coordinator id proxies through to the owning worker.
	id := first["id"].(string)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var view map[string]any
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || view["id"] != id || view["state"] != "done" {
		t.Fatalf("proxied get = %v (status %d)", view, resp.StatusCode)
	}
	if view["node"] != home {
		t.Fatalf("proxied view node = %v, want %s", view["node"], home)
	}
}

func TestCoordinatorStealsOnSaturation(t *testing.T) {
	_, ts := newTestCoordinator(t)
	a, b := newFakeWorker(t, "a"), newFakeWorker(t, "b")
	register(t, ts, a.health(false))
	register(t, ts, b.health(false))

	spec := `{"bench":"x264","scale":50000}`
	first, code := submitRaw(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	home := first["node"].(string)
	workers := map[string]*fakeWorker{"a": a, "b": b}
	other := "a"
	if home == "a" {
		other = "b"
	}

	// Saturate the home node: the next submit must steal to the other.
	workers[home].setSaturated(true)
	v, code := submitRaw(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("steal submit: status %d (%v)", code, v)
	}
	if v["node"].(string) != other || !v["stolen"].(bool) {
		t.Fatalf("steal went to %v (stolen=%v), want %s", v["node"], v["stolen"], other)
	}

	// Saturate both: jittered 429.
	workers[other].setSaturated(true)
	v, code = submitRaw(t, ts, spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("fully saturated submit: status %d (%v)", code, v)
	}
	ms, ok := v["retry_after_ms"].(float64)
	if !ok || ms < 500 || ms >= 1500 {
		t.Fatalf("retry_after_ms = %v, want in [500, 1500)", v["retry_after_ms"])
	}

	// Metrics reflect the steal and the reject.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"fleet_steals_total 1", "fleet_rejected_total 1", "fleet_jobs_routed_total 2"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

func TestCoordinatorExcludesDrainingNodes(t *testing.T) {
	_, ts := newTestCoordinator(t)
	a, b := newFakeWorker(t, "a"), newFakeWorker(t, "b")
	register(t, ts, a.health(false))
	register(t, ts, b.health(false))

	// Drain b: every key must now route to a, without steals.
	register(t, ts, b.health(true))
	for i := 0; i < 8; i++ {
		spec := `{"bench":"mcf","seed":` + strconv.Itoa(i+1) + `,"scale":50000}`
		v, code := submitRaw(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, code, v)
		}
		if v["node"].(string) != "a" || v["stolen"].(bool) {
			t.Fatalf("submit %d routed to %v (stolen=%v), want a unstolen", i, v["node"], v["stolen"])
		}
	}
	if b.acceptedCount() != 0 {
		t.Fatalf("draining node accepted %d jobs", b.acceptedCount())
	}

	// A drained-then-returned node rejoins the ring.
	register(t, ts, b.health(false))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if hz["ring_nodes"].(float64) != 2 {
		t.Fatalf("ring_nodes = %v after rejoin, want 2", hz["ring_nodes"])
	}
}

func TestCoordinatorBadSpecAndNoWorkers(t *testing.T) {
	_, ts := newTestCoordinator(t)
	if _, code := submitRaw(t, ts, `{"bench":"mcf"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit with no workers: status %d, want 503", code)
	}
	a := newFakeWorker(t, "a")
	register(t, ts, a.health(false))
	if _, code := submitRaw(t, ts, `{"scale":1}`); code != http.StatusBadRequest {
		t.Fatalf("missing bench: status %d, want 400", code)
	}
	if _, code := submitRaw(t, ts, `not json`); code != http.StatusBadRequest {
		t.Fatalf("garbage spec: status %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/f99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestCoordinatorForgetsOldestRoute routes one job more than the routing
// table holds and checks the oldest id is forgotten (404) while the newest
// still resolves. It calls acceptRouted directly, so no request leaves the
// process.
func TestCoordinatorForgetsOldestRoute(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	c.reg.heartbeat(NodeHealth{Name: "a", URL: "http://a.invalid"}, time.Now())
	var last string
	for i := 1; i <= maxRoutedJobs+1; i++ {
		rec := httptest.NewRecorder()
		c.acceptRouted(rec, "k", "a", false, []byte(fmt.Sprintf(`{"id":"r%d"}`, i)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("job %d: status %d, want 202", i, rec.Code)
		}
		var view map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		last, _ = view["id"].(string)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/f00000001", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("oldest route: status %d, want 404", rec.Code)
	}
	rj, url, ok := c.lookup(last)
	if !ok || url != "http://a.invalid" || rj.remoteID != fmt.Sprintf("r%d", maxRoutedJobs+1) {
		t.Fatalf("newest route %q: lookup = %+v, %q, %v", last, rj, url, ok)
	}
	if _, _, ok := c.lookup("f00000002"); !ok {
		t.Fatal("second-oldest route forgotten too early")
	}
}

func TestRouteKeyMatchesDefaults(t *testing.T) {
	// Explicit and implicit seed defaults key identically (normalize sets
	// seed 1), so they share a home node and a capture.
	k1, err := RouteKey([]byte(`{"bench":"mcf","scale":100}`))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RouteKey([]byte(`{"bench":"mcf","seed":1,"scale":100}`))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("default-seed keys differ: %q vs %q", k1, k2)
	}
	k3, err := RouteKey([]byte(`{"cores":[{"bench":"mcf","scale":100},{"bench":"x264","scale":100}]}`))
	if err != nil {
		t.Fatal(err)
	}
	k4, err := RouteKey([]byte(`{"cores":[{"bench":"x264","scale":100},{"bench":"mcf","scale":100}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k4 {
		t.Fatal("core order must be part of the key: placement is semantic")
	}
}

// postRegister posts body to a fresh coordinator's register endpoint and
// returns the status and the nodes it then lists.
func postRegister(body []byte) (int, []NodeView) {
	c := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/v1/register", bytes.NewReader(body)))
	return rec.Code, c.reg.views(time.Now())
}

// FuzzRegister posts arbitrary heartbeat bodies: each gets a 400 or a 200,
// never a panic, and a 200 registers exactly one node, with a non-empty name
// and URL.
func FuzzRegister(f *testing.F) {
	f.Add([]byte(`{"name":"n1","url":"http://127.0.0.1:7171","core_hash":"ab","queue_depth":2,"workers":2}`))
	f.Add([]byte(`{"name":"n1","url":"http://x","draining":true} trailing`))
	f.Add([]byte(`{"name":"","url":"http://x"}`))
	f.Add([]byte(`{"name":"n1"}`))
	f.Add([]byte(`{"name":"n1","url":"u","queue_depth":"deep"}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		code, nodes := postRegister(body)
		switch code {
		case http.StatusOK:
			if len(nodes) != 1 || nodes[0].Name == "" || nodes[0].URL == "" {
				t.Fatalf("200 for %q registered %+v", body, nodes)
			}
		case http.StatusBadRequest:
			if len(nodes) != 0 {
				t.Fatalf("400 for %q registered %+v", body, nodes)
			}
		default:
			t.Fatalf("status %d for %q", code, body)
		}
	})
}

// TestRegisterBodyCapped rejects a heartbeat whose body is over the 1 MiB
// cap, even though it is well-formed JSON.
func TestRegisterBodyCapped(t *testing.T) {
	pad := bytes.Repeat([]byte("x"), maxBodyBytes)
	body := []byte(`{"name":"n1","url":"http://x","core_hash":"` + string(pad) + `"}`)
	if code, nodes := postRegister(body); code != http.StatusBadRequest || len(nodes) != 0 {
		t.Fatalf("oversized heartbeat: status %d, nodes %+v", code, nodes)
	}
	if code, _ := postRegister([]byte(`{"name":"n1","url":"http://x"}`)); code != http.StatusOK {
		t.Fatalf("small heartbeat: status %d", code)
	}
}
