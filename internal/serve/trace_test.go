package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"insightalign/internal/obs"
)

// waitTrace polls the tracer ring: the root span finalizes after the HTTP
// response is flushed, so the client can observe the body slightly before
// the trace lands.
func waitTrace(t *testing.T, tr *obs.Tracer, id string) *obs.TraceRecord {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rec := tr.Lookup(id); rec != nil {
			return rec
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("trace %s never finalized", id)
	return nil
}

// TestTracePropagation asserts one trace ID survives the full request
// path: HTTP handler -> admission gate -> decoder session, and that the
// same ID is echoed in the response body, the X-Trace-Id header, and
// resolvable at /debug/traces.
func TestTracePropagation(t *testing.T) {
	cfg := e2eConfig()
	cfg.Tracer = obs.NewTracer(16)
	ts, s, _, _ := newTestServer(t, cfg)

	iv := make([]float64, s.cfg.Model.InsightDim)
	resp, body := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{Insight: iv, BeamWidth: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend: %d %s", resp.StatusCode, body)
	}
	var rr RecommendResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.TraceID == "" || len(rr.TraceID) != 16 {
		t.Fatalf("response trace_id %q", rr.TraceID)
	}
	if h := resp.Header.Get("X-Trace-Id"); h != rr.TraceID {
		t.Fatalf("header trace %q != body trace %q", h, rr.TraceID)
	}

	rec := waitTrace(t, cfg.Tracer, rr.TraceID)
	byName := map[string]obs.SpanRecord{}
	byID := map[uint64]obs.SpanRecord{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
		byID[sp.SpanID] = sp
	}
	if rec.Root != "POST /v1/recommend" {
		t.Fatalf("root span %q", rec.Root)
	}
	dec, ok := byName["decoder_session"]
	if !ok {
		t.Fatalf("no decoder_session span in %+v", rec.Spans)
	}
	if dec.Attrs["batch_size"] == "" || dec.Attrs["model_version"] == "" {
		t.Fatalf("decoder_session attrs %v", dec.Attrs)
	}
	// The decoder session must chain back to the HTTP root through the
	// admission queue.
	adm, ok := byID[dec.ParentID]
	if !ok || adm.Name != "admission_queue" {
		t.Fatalf("decoder_session parented to %+v", adm)
	}
	root, ok := byID[adm.ParentID]
	if !ok || root.ParentID != 0 || root.Name != "POST /v1/recommend" {
		t.Fatalf("admission_queue parented to %+v", root)
	}

	// The same trace resolves over HTTP at /debug/traces?id=.
	hresp, err := http.Get(ts.URL + "/debug/traces?id=" + rr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?id=: %d %s", hresp.StatusCode, hbody)
	}
	var fetched obs.TraceRecord
	if err := json.Unmarshal(hbody, &fetched); err != nil || fetched.TraceID != rr.TraceID {
		t.Fatalf("debug trace: %v %s", err, hbody)
	}
}

// TestErrorResponsesCarryTraceAndVersion asserts the error JSON body of
// rejected requests includes the trace ID and the live model version.
func TestErrorResponsesCarryTraceAndVersion(t *testing.T) {
	cfg := e2eConfig()
	cfg.Tracer = obs.NewTracer(16)
	ts, s, _, _ := newTestServer(t, cfg)

	// Validation failure (400): traced route, so trace_id must be present.
	resp, body := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{Insight: []float64{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short insight: %d %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" || len(er.TraceID) != 16 {
		t.Fatalf("error body %+v", er)
	}
	if er.ModelVersion != s.reg.Version() {
		t.Fatalf("error model_version %q, want %q", er.ModelVersion, s.reg.Version())
	}
	if er.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Fatal("error trace_id differs from X-Trace-Id header")
	}
	// The failed request's trace is itself resolvable.
	rec := waitTrace(t, cfg.Tracer, er.TraceID)
	if rec.Root != "POST /v1/recommend" {
		t.Fatalf("root %q", rec.Root)
	}
}
