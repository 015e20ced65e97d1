package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"insightalign/internal/obs"
	"insightalign/internal/obs/slo"
)

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// grepLines returns the lines of page containing substr, for failure
// messages that don't dump the whole exposition.
func grepLines(page, substr string) string {
	var out []string
	for _, ln := range strings.Split(page, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// obsConfig is e2eConfig on private registries, so exposition assertions
// see only this test's traffic.
func obsConfig() Config {
	cfg := e2eConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(64)
	return cfg
}

func obsRecommendOnce(t *testing.T, ts *httptest.Server, s *Server) RecommendResponse {
	t.Helper()
	iv := make([]float64, s.cfg.Model.InsightDim)
	for i := range iv {
		iv[i] = 0.01 * float64(i%7)
	}
	resp, body := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{Insight: iv})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend: %d %s", resp.StatusCode, body)
	}
	var rr RecommendResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// exemplarRe pulls the trace ID out of an OpenMetrics exemplar suffix.
var exemplarRe = regexp.MustCompile(`# \{trace_id="([0-9a-f]{16})"\}`)

// TestPerVersionMetricsAndExemplarResolution is the cross-link
// acceptance path: serve one request, find its model-version-labelled
// latency bucket on /metrics complete with a trace-ID exemplar, resolve
// that exact ID at /debug/traces?id=, and read an ok SLO verdict.
func TestPerVersionMetricsAndExemplarResolution(t *testing.T) {
	ts, s, _, _ := newTestServer(t, obsConfig())
	rr := obsRecommendOnce(t, ts, s)
	if rr.TraceID == "" {
		t.Fatal("response carries no trace ID")
	}
	version := s.reg.Version()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := readBody(t, resp)

	// The by-version family carries the request under its version label.
	wantSeries := `insightalign_request_duration_by_version_seconds_bucket{route="/v1/recommend",model_version="` + version + `"`
	if !strings.Contains(page, wantSeries) {
		t.Fatalf("no per-version latency series for %s:\n%s", version, grepLines(page, "by_version"))
	}
	// The QoR proxy histogram is fed from the decode path.
	if !strings.Contains(page, `insightalign_qor_logprob_count{model_version="`+version+`"} `) {
		t.Fatalf("no QoR series for %s:\n%s", version, grepLines(page, "qor"))
	}

	// Every exemplar on the page must resolve at /debug/traces?id= — and
	// the served request's own ID must be among them.
	ids := map[string]bool{}
	for _, m := range exemplarRe.FindAllStringSubmatch(page, -1) {
		ids[m[1]] = true
	}
	if len(ids) == 0 {
		t.Fatalf("no exemplars on /metrics:\n%s", grepLines(page, "_bucket"))
	}
	if !ids[rr.TraceID] {
		t.Fatalf("request trace %s absent from exemplars %v", rr.TraceID, ids)
	}
	for id := range ids {
		tresp, err := http.Get(ts.URL + "/debug/traces?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		tresp.Body.Close()
		if tresp.StatusCode != http.StatusOK {
			t.Fatalf("exemplar trace %s did not resolve: %d", id, tresp.StatusCode)
		}
	}

	// Healthy traffic leaves the default objectives' verdict at ok.
	if got := s.SLO().Worst(); got != slo.StateOK {
		t.Fatalf("SLO worst after healthy traffic = %v, want ok", got)
	}
}

// TestReloadRetiresVersionObservability reloads the model and asserts
// the outgoing version's per-version series are pruned from /metrics and
// its SLO scope leaves /debug/slo, while the new version starts fresh.
func TestReloadRetiresVersionObservability(t *testing.T) {
	ts, s, _, path := newTestServer(t, obsConfig())
	obsRecommendOnce(t, ts, s)
	v1 := s.reg.Version()

	resp, _ := postJSON(t, ts.URL+"/v1/models/reload", ReloadRequest{Path: path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d", resp.StatusCode)
	}
	v2 := s.reg.Version()
	if v2 == v1 {
		t.Fatalf("reload kept version %s", v1)
	}
	obsRecommendOnce(t, ts, s)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := readBody(t, mresp)
	if strings.Contains(page, `model_version="`+v1+`"`) {
		t.Fatalf("retired version %s still on /metrics:\n%s", v1, grepLines(page, v1))
	}
	if !strings.Contains(page, `model_version="`+v2+`"`) {
		t.Fatalf("live version %s missing from /metrics", v2)
	}

	sresp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep slo.Report
	if err := json.NewDecoder(sresp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	scopes := map[string]bool{}
	for _, v := range rep.Verdicts {
		scopes[v.Scope] = true
	}
	if scopes[v1] {
		t.Fatalf("retired version %s still scoped on /debug/slo: %v", v1, scopes)
	}
	if !scopes[slo.AggregateScope] || !scopes[v2] {
		t.Fatalf("/debug/slo scopes = %v, want aggregate + %s", scopes, v2)
	}
}

// TestHealthzFoldsSLOVerdict pages the server's SLO engine directly and
// asserts /healthz degrades in body while staying HTTP 200, so the fleet
// health poller does not eject a burning-but-alive replica.
func TestHealthzFoldsSLOVerdict(t *testing.T) {
	cfg := obsConfig()
	cfg.SLO = slo.New(slo.Config{Objectives: []slo.Objective{{
		Name: "availability", Kind: slo.Availability, Target: 0.9,
		FastWindow: 50 * time.Millisecond, SlowWindow: 600 * time.Millisecond,
		PageBurn: 5, WarnBurn: 2,
	}}})
	ts, s, _, _ := newTestServer(t, cfg)
	for i := 0; i < 200; i++ {
		s.SLO().ObserveRequest(slo.AggregateScope, 500, time.Millisecond)
	}
	if got := s.SLO().Worst(); got != slo.StatePage {
		t.Fatalf("engine state = %v, want page", got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz must stay 200, got %d", resp.StatusCode)
	}
	var hr HealthResponse
	if err := json.Unmarshal([]byte(body), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || hr.SLO != "page" {
		t.Fatalf("healthz = %+v, want degraded/page", hr)
	}
}
