package serve_test

// In-process router tests: two real serve.Servers behind httptest listeners
// with a Router fronting them. Stickiness is asserted two ways — the
// X-Winrs-Shard header must be constant per geometry, and the fleet-wide
// plans_cached sum must equal the number of distinct geometries (each plan
// built exactly once, on exactly one shard).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"winrs"
	"winrs/internal/serve"
)

type routerFixture struct {
	router *serve.Router
	front  *httptest.Server
	nodes  []*httptest.Server
	ids    []string // node i's ring name, "http://shard-<i>"
}

// shardHosts routes a fixture's fixed ring names to its nodes' ephemeral
// listeners, so ring positions — and which geometries share a shard — do
// not depend on the ports the test happened to get.
type shardHosts map[string]string

func (h shardHosts) RoundTrip(req *http.Request) (*http.Response, error) {
	r := req.Clone(req.Context())
	r.URL.Host = h[req.URL.Host]
	r.Host = ""
	return http.DefaultTransport.RoundTrip(r)
}

func newRouterFixture(t *testing.T, nodeCount int) *routerFixture {
	t.Helper()
	f := &routerFixture{}
	hosts := shardHosts{}
	for i := 0; i < nodeCount; i++ {
		s := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		name := fmt.Sprintf("shard-%d", i)
		hosts[name] = strings.TrimPrefix(ts.URL, "http://")
		f.nodes = append(f.nodes, ts)
		f.ids = append(f.ids, "http://"+name)
	}
	f.router = serve.NewRouter(serve.RouterConfig{Nodes: f.ids})
	serve.SetRouterTransport(f.router, hosts)
	f.front = httptest.NewServer(f.router.Handler())
	t.Cleanup(f.front.Close)
	return f
}

// plansCached scrapes one node's /healthz for its plan-cache population.
func plansCached(t *testing.T, nodeURL string) int {
	t.Helper()
	resp, err := http.Get(nodeURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		PlansCached int `json:"plans_cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.PlansCached
}

// postViaRouter posts through the front and returns status, body, and the
// shard header.
func postViaRouter(url string, body []byte) (int, []byte, string, error) {
	resp, err := http.Post(url+"/v1/backward_filter", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header.Get("X-Winrs-Shard"), err
}

func routerGeos(n int) []winrs.Params {
	geos := make([]winrs.Params, n)
	for i := range geos {
		geos[i] = winrs.Params{
			N: 1, IH: 10 + 2*i, IW: 10 + 2*i, FH: 3, FW: 3,
			IC: 1 + i%3, OC: 1 + (i+1)%3, PH: 1, PW: 1,
		}
	}
	return geos
}

// TestRouterShardStickiness drives 12 distinct geometries, three requests
// each, through a 2-node fleet: every response must be correct, every
// geometry must stay on one shard, both shards must see traffic, and the
// fleet must hold exactly 12 plans total.
func TestRouterShardStickiness(t *testing.T) {
	f := newRouterFixture(t, 2)
	geos := routerGeos(12)
	shardOf := make([]string, len(geos))
	for i, p := range geos {
		x, dy := randLayer(t, int64(500+i), p)
		lib, err := winrs.BackwardFilter(p, x, dy)
		if err != nil {
			t.Fatal(err)
		}
		want := serve.AppendF32(nil, lib.Data)
		body := frameF32(t, p, x, dy)
		for rep := 0; rep < 3; rep++ {
			status, out, shard, err := postViaRouter(f.front.URL, body)
			if err != nil {
				t.Fatalf("geo %d rep %d: %v", i, rep, err)
			}
			if status != http.StatusOK {
				t.Fatalf("geo %d rep %d: status %d: %s", i, rep, status, out)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("geo %d rep %d: forwarded response differs from the library gradient", i, rep)
			}
			if shard == "" {
				t.Fatalf("geo %d rep %d: missing X-Winrs-Shard header", i, rep)
			}
			if rep == 0 {
				shardOf[i] = shard
			} else if shard != shardOf[i] {
				t.Fatalf("geo %d moved shards: %q then %q", i, shardOf[i], shard)
			}
		}
	}

	seen := map[string]bool{}
	for _, s := range shardOf {
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Errorf("all 12 geometries landed on one shard; the ring is not spreading")
	}

	total := 0
	for _, n := range f.nodes {
		total += plansCached(t, n.URL)
	}
	if total != len(geos) {
		t.Errorf("fleet holds %d plans for %d distinct geometries; stickiness leaked duplicates", total, len(geos))
	}
}

// TestRouterAdminAddDrain exercises the live-membership endpoints: drain
// must stop new picks for the node while the other keeps serving, and a
// re-add must restore it.
func TestRouterAdminAddDrain(t *testing.T) {
	f := newRouterFixture(t, 2)
	drained := f.ids[0]

	resp, err := http.Post(f.front.URL+"/admin/nodes/drain?node="+drained+"&timeout=5s", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}

	geos := routerGeos(8)
	p0 := geos[0]
	x, dy := randLayer(t, 600, p0)
	for i, p := range geos {
		x, dy := randLayer(t, int64(600+i), p)
		body := frameF32(t, p, x, dy)
		status, out, shard, err := postViaRouter(f.front.URL, body)
		if err != nil || status != http.StatusOK {
			t.Fatalf("geo %d after drain: status %d err %v: %s", i, status, err, out)
		}
		if shard == drained {
			t.Fatalf("geo %d routed to the drained node", i)
		}
	}

	var ring struct {
		Active int `json:"active"`
		Nodes  []struct {
			Addr     string `json:"addr"`
			Draining bool   `json:"draining"`
		} `json:"nodes"`
	}
	rr, err := http.Get(f.front.URL + "/admin/ring")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(rr.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if ring.Active != 1 || len(ring.Nodes) != 2 {
		t.Errorf("ring after drain: active=%d nodes=%d, want 1 active of 2", ring.Active, len(ring.Nodes))
	}

	// Re-add restores the node; the drained geometry set must again reach
	// both shards eventually (at least serve correctly through the front).
	resp, err = http.Post(f.front.URL+"/admin/nodes/add?node="+drained, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-add: status %d", resp.StatusCode)
	}
	body := frameF32(t, p0, x, dy)
	status, out, _, err := postViaRouter(f.front.URL, body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("request after re-add: status %d err %v: %s", status, err, out)
	}
}

// TestRouterDrainWaitsForInflight holds a forward in flight with a fault
// hook and asserts the drain endpoint blocks until it completes — the
// zero-dropped-requests property the loadtest exercises across processes.
func TestRouterDrainWaitsForInflight(t *testing.T) {
	s := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64})
	node := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		node.Close()
		s.Close()
	})
	rt := serve.NewRouter(serve.RouterConfig{Nodes: []string{node.URL}})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.Runtime().SetFaultHook(func(ctx context.Context, key serve.PlanKey) error {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	})
	defer s.Runtime().SetFaultHook(nil)

	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	x, dy := randLayer(t, 700, p)
	lib, err := winrs.BackwardFilter(p, x, dy)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.AppendF32(nil, lib.Data)
	body := frameF32(t, p, x, dy)

	slow := make(chan error, 1)
	go func() {
		status, out, _, err := postViaRouter(front.URL, body)
		if err == nil && (status != http.StatusOK || !bytes.Equal(out, want)) {
			err = fmt.Errorf("in-flight request during drain: status %d", status)
		}
		slow <- err
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("forward never reached the node")
	}

	drainDone := make(chan string, 1)
	go func() {
		resp, err := http.Post(front.URL+"/admin/nodes/drain?node="+node.URL+"&timeout=10s", "", nil)
		if err != nil {
			drainDone <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			drainDone <- fmt.Sprintf("status %d: %s", resp.StatusCode, b)
			return
		}
		drainDone <- ""
	}()

	// The drain must still be waiting while the forward is held.
	select {
	case msg := <-drainDone:
		t.Fatalf("drain returned (%q) while a forward was in flight", msg)
	case <-time.After(300 * time.Millisecond):
	}

	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("in-flight request failed across the drain: %v", err)
	}
	select {
	case msg := <-drainDone:
		if msg != "" {
			t.Fatalf("drain failed: %s", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete after the in-flight forward finished")
	}

	if !strings.Contains(scrapeRouterMetrics(t, front.URL), "winrs_router_nodes_active 0") {
		t.Error("router metrics do not show zero active nodes after the drain")
	}
}

func scrapeRouterMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRouterNoActiveNode pins the 503 + Retry-After contract when the ring
// is empty.
func TestRouterNoActiveNode(t *testing.T) {
	rt := serve.NewRouter(serve.RouterConfig{})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	p := winrs.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 2, OC: 2, PH: 1, PW: 1}
	x, dy := randLayer(t, 701, p)
	body := frameF32(t, p, x, dy)
	resp, err := http.Post(front.URL+"/v1/backward_filter", "application/octet-stream",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header on ring-empty rejection")
	}
}
