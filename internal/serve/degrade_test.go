package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"insightalign/internal/faultinject"
	"insightalign/internal/obs"
)

// TestServeDegradationEndToEnd drives a backend hang over HTTP: each hung
// call turns into a 504 bounded by the request deadline, the next request
// after the fault window is served at once (a replica has no breaker to
// shed it; the fleet router's per-replica breaker is the only one), and
// the /metrics page agrees with every observed response.
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

	// Phase 2: the fault window has passed (run indices >= 4 are clean),
	// and the very next requests decode.
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
	if got := inj.Applied(faultinject.Hang); got != 4 {
		t.Fatalf("injector applied %d hangs, want 4", got)
	}

	// Phase 3: /metrics agrees with everything observed above.
	exp := s.Metrics().Exposition()
	for _, want := range []string{
		`insightalign_requests_total{route="/v1/recommend",code="504"} 4`,
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
// injected transient error surfaces as 502 Bad Gateway on every request.
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
}
