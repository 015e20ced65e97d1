package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insightalign/internal/mix"
	"insightalign/internal/obs"
)

// stubReplica is an httptest backend that answers /healthz 200 and lets
// the test script /v1/recommend behavior.
type stubReplica struct {
	srv   *httptest.Server
	hits  atomic.Int64
	serve func(w http.ResponseWriter, r *http.Request)
}

func newStubReplica(fn func(w http.ResponseWriter, r *http.Request)) *stubReplica {
	s := &stubReplica{serve: fn}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		s.serve(w, r)
	})
	s.srv = httptest.NewServer(mux)
	return s
}

func okRecommend(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"recipes":[]}`)
}

func testRouter(t *testing.T, cfg Config, urls ...string) *Router {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	cfg.Replicas = urls
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(64)
	}
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { rt.Shutdown(context.Background()) })
	return rt
}

func recommendBody(iv ...float64) []byte {
	b, _ := json.Marshal(map[string]any{"insight": iv, "beam_width": 3})
	return b
}

func postRecommend(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRouterAffinity(t *testing.T) {
	var stubs []*stubReplica
	var urls []string
	for i := 0; i < 3; i++ {
		s := newStubReplica(okRecommend)
		defer s.srv.Close()
		stubs = append(stubs, s)
		urls = append(urls, s.srv.URL)
	}
	cfg := DefaultConfig()
	cfg.DisableHedging = true
	rt := testRouter(t, cfg, urls...)
	h := rt.Handler()

	body := recommendBody(0.1, 0.2, 0.3)
	for i := 0; i < 20; i++ {
		if w := postRecommend(t, h, body); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body.String())
		}
	}
	// Cache affinity: every identical request lands on the key's owner.
	hit := 0
	for _, s := range stubs {
		if n := s.hits.Load(); n > 0 {
			hit++
			if n != 20 {
				t.Fatalf("owner got %d hits, want all 20", n)
			}
		}
	}
	if hit != 1 {
		t.Fatalf("%d replicas got traffic for one key, want 1", hit)
	}

	// Distinct keys spread across the fleet.
	for i := 0; i < 60; i++ {
		postRecommend(t, h, recommendBody(float64(i), float64(i)*0.5, 1))
	}
	spread := 0
	for _, s := range stubs {
		if s.hits.Load() > 0 {
			spread++
		}
	}
	if spread != 3 {
		t.Fatalf("distinct keys reached %d replicas, want 3", spread)
	}
}

func TestRouterFailoverHidesBackendErrors(t *testing.T) {
	bad := newStubReplica(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusBadGateway)
	})
	defer bad.srv.Close()
	good := newStubReplica(okRecommend)
	defer good.srv.Close()

	cfg := DefaultConfig()
	cfg.DisableHedging = true
	cfg.Breaker.MinSamples = 2
	cfg.Breaker.Window = 4
	rt := testRouter(t, cfg, bad.srv.URL, good.srv.URL)
	h := rt.Handler()

	// Whatever the key's owner, every request must come back 200: 502s
	// fail over to the surviving replica and never leak to the client.
	for i := 0; i < 30; i++ {
		w := postRecommend(t, h, recommendBody(float64(i), 2, 3))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d leaked status %d: %s", i, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Fleet-Replica"); got != good.srv.URL {
			t.Fatalf("request %d served by %q, want healthy replica %q", i, got, good.srv.URL)
		}
	}
	// Sustained 502s must have opened the bad replica's breaker.
	if st := rt.Replica(bad.srv.URL).BreakerState(); st == BreakerClosed {
		t.Fatalf("bad replica breaker still closed after sustained 502s")
	}
	// With the breaker open the bad replica stops receiving traffic.
	before := bad.hits.Load()
	for i := 0; i < 10; i++ {
		postRecommend(t, h, recommendBody(float64(100+i), 2, 3))
	}
	if after := bad.hits.Load(); after != before {
		t.Fatalf("breaker-open replica still received %d forwards", after-before)
	}
}

func TestRouterShedsWhenSaturated(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	slow := newStubReplica(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		okRecommend(w, r)
	})
	defer slow.srv.Close()

	cfg := DefaultConfig()
	cfg.DisableHedging = true
	cfg.MaxInflight = 1
	cfg.QueueDepth = 0
	cfg.QueueWait = 20 * time.Millisecond
	cfg.MaxAttempts = 1
	rt := testRouter(t, cfg, slow.srv.URL)
	h := rt.Handler()

	// Occupy the single admission slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if w := postRecommend(t, h, recommendBody(1, 2, 3)); w.Code != http.StatusOK {
			t.Errorf("in-flight request got %d", w.Code)
		}
	}()
	<-entered

	// The fleet is saturated: the next request must shed with 503 and a
	// Retry-After hint, not queue forever.
	w := postRecommend(t, h, recommendBody(4, 5, 6))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated fleet returned %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 shed response missing Retry-After")
	}
	close(release)
	wg.Wait()

	expo := rt.Metrics().Registry().Exposition()
	if !strings.Contains(expo, `insightalign_fleet_shed_total{reason="saturated"}`) {
		t.Fatalf("shed metric not exported:\n%s", expo)
	}
}

// TestRouterRelaysSaturatedFleet: when every replica answers 429 or 503,
// failover is spent and the client must see that answer, its body and its
// Retry-After, not a 502 that blames the router.
func TestRouterRelaysSaturatedFleet(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(strconv.Itoa(code), func(t *testing.T) {
			body := fmt.Sprintf(`{"error":"replica says %d"}`, code)
			busy := func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", "7")
				w.WriteHeader(code)
				io.WriteString(w, body)
			}
			a, b := newStubReplica(busy), newStubReplica(busy)
			defer a.srv.Close()
			defer b.srv.Close()
			cfg := DefaultConfig()
			cfg.DisableHedging = true
			w := postRecommend(t, testRouter(t, cfg, a.srv.URL, b.srv.URL).Handler(), recommendBody(1, 2, 3))
			if w.Code != code || w.Header().Get("Retry-After") != "7" || w.Body.String() != body {
				t.Fatalf("got %d Retry-After %q body %q, want the replicas' %d, 7, %q",
					w.Code, w.Header().Get("Retry-After"), w.Body.String(), code, body)
			}
			if a.hits.Load() != 1 || b.hits.Load() != 1 {
				t.Fatalf("hits %d/%d, want one forward to each replica", a.hits.Load(), b.hits.Load())
			}
		})
	}
}

// TestRouterHedgeWinsOverSlowPrimary stalls the owner of the first of n
// distinct insights on every request; a won hedge is the only way to a
// fast 200 for its keys. Over many keys it pins the adaptive trigger:
// canceled primaries never enter the latency window, so the trigger stays
// at its floor and the client p95 far below the stall.
func TestRouterHedgeWinsOverSlowPrimary(t *testing.T) {
	const stall = 400 * time.Millisecond
	for _, n := range []int{1, 100} {
		t.Run(fmt.Sprint(n, " keys"), func(t *testing.T) {
			var slowURL string
			handler := func(w http.ResponseWriter, r *http.Request) {
				if "http://"+r.Host == slowURL {
					select {
					case <-r.Context().Done():
						return
					case <-time.After(stall):
					}
				}
				okRecommend(w, r)
			}
			a, b := newStubReplica(handler), newStubReplica(handler)
			defer a.srv.Close()
			defer b.srv.Close()
			rt := testRouter(t, DefaultConfig(), a.srv.URL, b.srv.URL)
			slowURL = rt.Ring().Owner(routingKeyForTest(t, recommendBody(0, 9, 9)))

			var lat []time.Duration
			slowKeys := 0
			for i := 0; i < n; i++ {
				body := recommendBody(float64(i), 9, 9)
				if rt.Ring().Owner(routingKeyForTest(t, body)) == slowURL {
					slowKeys++
				}
				t0 := time.Now()
				w := postRecommend(t, rt.Handler(), body)
				lat = append(lat, time.Since(t0))
				if w.Code != http.StatusOK || w.Header().Get("X-Fleet-Replica") == slowURL {
					t.Fatalf("request %d: %d from %q, want 200 from the fast replica", i, w.Code, w.Header().Get("X-Fleet-Replica"))
				}
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if p95 := obs.QuantileDur(lat, 0.95); p95 >= stall/4 {
				t.Fatalf("p95 %v with hedging, want well under the %v stall", p95, stall)
			}
			if d := rt.hedgeDelay(); d != hedgeMinDelay {
				t.Fatalf("hedge trigger %v after %d requests, want the %v floor", d, n, hedgeMinDelay)
			}
			want := fmt.Sprintf(`insightalign_fleet_hedges_total{result="won"} %d`, slowKeys)
			if expo := rt.Metrics().Registry().Exposition(); !strings.Contains(expo, want) {
				t.Fatalf("want %q in the exposition:\n%s", want, expo)
			}
			assertQuiescent(t, rt, nil)
		})
	}
}

func routingKeyForTest(t *testing.T, body []byte) uint64 {
	t.Helper()
	key, err := routingKey("/v1/recommend", body)
	if err != nil {
		t.Fatalf("routingKey: %v", err)
	}
	return key
}

func TestRouterEjectsDeadReplicaFromRing(t *testing.T) {
	dead := newStubReplica(okRecommend)
	live := newStubReplica(okRecommend)
	defer live.srv.Close()

	cfg := DefaultConfig()
	cfg.DisableHedging = true
	cfg.EjectAfter = 2
	cfg.HealthTimeout = 200 * time.Millisecond
	rt := testRouter(t, cfg, dead.srv.URL, live.srv.URL)

	if got := len(rt.Ring().Members()); got != 2 {
		t.Fatalf("ring starts with %d members, want 2", got)
	}
	dead.srv.Close()
	for i := 0; i < cfg.EjectAfter; i++ {
		rt.PollHealthNow()
	}
	members := rt.Ring().Members()
	if len(members) != 1 || members[0] != live.srv.URL {
		t.Fatalf("ring members after ejection: %v, want only %s", members, live.srv.URL)
	}
	if rt.Replica(dead.srv.URL).Healthy() {
		t.Fatal("dead replica still marked healthy")
	}
	// Every key now routes to the survivor.
	for k := uint64(0); k < 50; k++ {
		if rt.Ring().Owner(mix.SplitMix64(k)) != live.srv.URL {
			t.Fatal("ejected replica still owns keys")
		}
	}
}

func TestRouterRejectsBadRequests(t *testing.T) {
	s := newStubReplica(okRecommend)
	defer s.srv.Close()
	cfg := DefaultConfig()
	cfg.DisableHedging = true
	rt := testRouter(t, cfg, s.srv.URL)
	h := rt.Handler()

	w := postRecommend(t, h, []byte("{not json"))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("invalid JSON got %d, want 400", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/recommend", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET got %d, want 405", rec.Code)
	}
	if n := s.hits.Load(); n != 0 {
		t.Fatalf("replica saw %d forwards for invalid requests, want 0", n)
	}
}

func TestRouterHealthzAggregates(t *testing.T) {
	a := newStubReplica(okRecommend)
	defer a.srv.Close()
	b := newStubReplica(okRecommend)

	cfg := DefaultConfig()
	cfg.DisableHedging = true
	rt := testRouter(t, cfg, a.srv.URL, b.srv.URL)
	rt.PollHealthNow()

	get := func() (int, HealthResponse) {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		var hr HealthResponse
		if err := json.NewDecoder(w.Body).Decode(&hr); err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
		return w.Code, hr
	}
	upCount := func(hr HealthResponse) int {
		n := 0
		for _, r := range hr.Replicas {
			if r.Up {
				n++
			}
		}
		return n
	}
	code, hr := get()
	if code != http.StatusOK || hr.Status != "ok" || upCount(hr) != 2 {
		t.Fatalf("full fleet healthz: code=%d %+v", code, hr)
	}
	b.srv.Close()
	rt.PollHealthNow()
	code, hr = get()
	if code != http.StatusOK || hr.Status != "degraded" || upCount(hr) != 1 {
		t.Fatalf("degraded fleet healthz: code=%d %+v", code, hr)
	}
	a.srv.Close()
	rt.PollHealthNow()
	code, hr = get()
	if code != http.StatusServiceUnavailable || hr.Status != "down" {
		t.Fatalf("dead fleet healthz: code=%d %+v", code, hr)
	}
}

func TestRouterBatchRouting(t *testing.T) {
	var stubs []*stubReplica
	var urls []string
	for i := 0; i < 2; i++ {
		s := newStubReplica(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"results":[]}`)
		})
		defer s.srv.Close()
		stubs = append(stubs, s)
		urls = append(urls, s.srv.URL)
	}
	cfg := DefaultConfig()
	cfg.DisableHedging = true
	rt := testRouter(t, cfg, urls...)

	body, _ := json.Marshal(map[string]any{
		"requests": []map[string]any{
			{"insight": []float64{1, 2, 3}},
			{"insight": []float64{4, 5, 6}},
		},
	})
	for i := 0; i < 10; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/recommend/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("batch request got %d: %s", w.Code, w.Body.String())
		}
	}
	hit := 0
	for _, s := range stubs {
		if s.hits.Load() > 0 {
			hit++
		}
	}
	if hit != 1 {
		t.Fatalf("identical batches hit %d replicas, want 1 (affinity)", hit)
	}
}

func TestRouterShutdownStopsHealthLoop(t *testing.T) {
	s := newStubReplica(okRecommend)
	defer s.srv.Close()
	cfg := DefaultConfig()
	cfg.HealthInterval = 10 * time.Millisecond
	rt := testRouter(t, cfg, s.srv.URL)
	if _, err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Post("http://"+rt.Addr()+"/v1/recommend", "application/json",
		bytes.NewReader(recommendBody(1, 2, 3)))
	if err != nil {
		t.Fatalf("routed request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed request got %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Double shutdown is safe; the health loop has exited (Shutdown waits
	// on the waitgroup, so reaching here proves it).
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", rt.Addr())); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	assertQuiescent(t, rt, nil)
}
