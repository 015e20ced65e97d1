package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"insightalign/internal/faultinject"
	"insightalign/internal/obs"
)

// TestServeDegradationEndToEnd drives the full failure lifecycle over HTTP:
// a hung backend turns requests into bounded 504s, the accumulated failures
// open the circuit breaker (instant 503 + Retry-After), the fault window
// clears, the half-open probe succeeds, the breaker closes, and the
// /metrics page agrees with every observed response.
func TestServeDegradationEndToEnd(t *testing.T) {
	// The injector hangs the first 4 backend invocations, then runs clean:
	// deterministic fault clearing without touching the server mid-test.
	inj := faultinject.New(faultinject.Config{
		Seed: 5, Rate: 1,
		Stages: []string{"backend"},
		Kinds:  []faultinject.Kind{faultinject.Hang},
		To:     4,
	})
	cfg := DefaultConfig()
	cfg.Model = smallCfg()
	cfg.RequestTimeout = 150 * time.Millisecond
	cfg.BackendHook = inj.HookFunc("backend")
	cfg.Breaker = BreakerConfig{
		Window: 8, MinSamples: 4, FailureRatio: 0.5,
		Cooldown: 500 * time.Millisecond, HalfOpenProbes: 1,
	}
	// Isolated registries so assertions count only this test's traffic.
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(64)
	ts, s, _, _ := newTestServer(t, cfg)

	iv := make([]float64, cfg.Model.InsightDim)
	for i := range iv {
		iv[i] = 0.1 * float64(i%7)
	}
	req := RecommendRequest{Insight: iv}

	// Phase 1: four hanging backend calls -> four 504s, each bounded by the
	// request deadline (not the test timeout).
	for i := 0; i < 4; i++ {
		start := time.Now()
		resp, body := postJSON(t, ts.URL+"/v1/recommend", req)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("hang %d: got %d (%s), want 504", i, resp.StatusCode, body)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("hang %d took %v; deadline did not bound the hung backend", i, d)
		}
	}
	if st := breakerFromHealthz(t, ts.URL); st != "open" {
		t.Fatalf("breaker %q after 4 failures, want open", st)
	}

	// Phase 2: the open breaker sheds instantly with a Retry-After hint.
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/recommend", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed: got %d (%s), want 503", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("shed took %v, want instant rejection", d)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 missing Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer", ra)
	}
	// Batch requests shed too.
	resp, _ = postJSON(t, ts.URL+"/v1/recommend/batch", BatchRequest{Requests: []RecommendRequest{req}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch shed: got %d, want 503", resp.StatusCode)
	}

	// Phase 3: cooldown elapses, the fault window has passed (run indices
	// >= 4 are clean), the half-open probe succeeds, and the breaker closes.
	time.Sleep(cfg.Breaker.Cooldown + 100*time.Millisecond)
	if st := breakerFromHealthz(t, ts.URL); st != "half_open" {
		t.Fatalf("breaker %q after cooldown, want half_open", st)
	}
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/recommend", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recovery request %d: got %d (%s), want 200", i, resp.StatusCode, body)
		}
		var rr RecommendResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if len(rr.Candidates) == 0 {
			t.Fatalf("recovery request %d returned no candidates", i)
		}
	}
	if st := breakerFromHealthz(t, ts.URL); st != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", st)
	}
	if got := inj.Applied(faultinject.Hang); got != 4 {
		t.Fatalf("injector applied %d hangs, want 4", got)
	}

	// Phase 4: /metrics agrees with everything observed above.
	exp := s.Metrics().Exposition()
	for _, want := range []string{
		`insightalign_serve_shed_total 2`,
		`insightalign_breaker_transitions_total{to="open"} 1`,
		`insightalign_breaker_transitions_total{to="half_open"} 1`,
		`insightalign_breaker_transitions_total{to="closed"} 1`,
		`insightalign_breaker_state 0`,
		`insightalign_requests_total{route="/v1/recommend",code="504"} 4`,
		`insightalign_requests_total{route="/v1/recommend",code="503"} 1`,
		`insightalign_requests_total{route="/v1/recommend",code="200"} 3`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", exp)
	}
}

// TestServeBackendErrorIs502 covers the non-hang backend failure path: an
// injected transient error surfaces as 502 Bad Gateway and trips the
// breaker like any other backend failure.
func TestServeBackendErrorIs502(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed: 9, Rate: 1,
		Stages: []string{"backend"},
		Kinds:  []faultinject.Kind{faultinject.Error},
	})
	cfg := DefaultConfig()
	cfg.Model = smallCfg()
	cfg.RequestTimeout = time.Second
	cfg.BackendHook = inj.HookFunc("backend")
	cfg.Breaker = BreakerConfig{Window: 4, MinSamples: 2, FailureRatio: 0.5, Cooldown: time.Minute}
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(64)
	ts, _, _, _ := newTestServer(t, cfg)

	iv := make([]float64, cfg.Model.InsightDim)
	req := RecommendRequest{Insight: iv}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/recommend", req)
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("got %d (%s), want 502", resp.StatusCode, body)
		}
	}
	if st := breakerFromHealthz(t, ts.URL); st != "open" {
		t.Fatalf("breaker %q after backend errors, want open", st)
	}
}

// TestServeHalfOpenSurvivesMalformedRequests is the probe-slot-leak
// regression over HTTP: requests admitted during half-open that die
// before reaching the backend (bad JSON, validation failures) must
// release their probe slot. Before the fix, two such requests against a
// 1-probe quota wedged the breaker in half-open and the server shed
// every subsequent request with 503 forever.
func TestServeHalfOpenSurvivesMalformedRequests(t *testing.T) {
	// Hang the first 2 backend calls to open the breaker, then run clean.
	inj := faultinject.New(faultinject.Config{
		Seed: 11, Rate: 1,
		Stages: []string{"backend"},
		Kinds:  []faultinject.Kind{faultinject.Hang},
		To:     2,
	})
	cfg := DefaultConfig()
	cfg.Model = smallCfg()
	cfg.RequestTimeout = 150 * time.Millisecond
	cfg.BackendHook = inj.HookFunc("backend")
	cfg.Breaker = BreakerConfig{
		Window: 4, MinSamples: 2, FailureRatio: 0.5,
		Cooldown: 200 * time.Millisecond, HalfOpenProbes: 1,
	}
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(64)
	ts, _, _, _ := newTestServer(t, cfg)

	iv := make([]float64, cfg.Model.InsightDim)
	req := RecommendRequest{Insight: iv}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/recommend", req); resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("hang %d: got %d (%s), want 504", i, resp.StatusCode, body)
		}
	}
	if st := breakerFromHealthz(t, ts.URL); st != "open" {
		t.Fatalf("breaker %q after hangs, want open", st)
	}
	time.Sleep(cfg.Breaker.Cooldown + 50*time.Millisecond)
	if st := breakerFromHealthz(t, ts.URL); st != "half_open" {
		t.Fatalf("breaker %q after cooldown, want half_open", st)
	}

	// Burn the probe quota repeatedly with requests that never reach the
	// backend: a syntactically invalid body and a wrong-width insight.
	resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: got %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{Insight: []float64{1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad insight width: got %d, want 400", resp.StatusCode)
	}

	// The slots freed: a valid request still probes and closes the breaker.
	if resp, body := postJSON(t, ts.URL+"/v1/recommend", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after malformed requests: got %d (%s), want 200", resp.StatusCode, body)
	}
	if st := breakerFromHealthz(t, ts.URL); st != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", st)
	}
}

// TestServeBreakerDisabled confirms the default path is unchanged: no
// breaker, no shedding, /healthz omits the state.
func TestServeBreakerDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = smallCfg()
	cfg.Breaker.Disabled = true
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(64)
	ts, _, _, _ := newTestServer(t, cfg)

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Breaker != "" {
		t.Fatalf("healthz reports breaker %q with the breaker disabled", h.Breaker)
	}
}

// breakerFromHealthz fetches /healthz and returns the breaker state string.
func breakerFromHealthz(t *testing.T, base string) string {
	t.Helper()
	res, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d: %+v", res.StatusCode, h)
	}
	return h.Breaker
}
