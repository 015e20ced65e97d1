package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/nn"
	"insightalign/internal/obs"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer boots a server over a model saved to disk and returns the
// httptest server, the serve.Server, and an independently loaded copy of
// the model for computing expected outputs.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *core.Model, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	saveModelFile(t, path, 7, cfg.Model)

	reg, err := NewRegistry(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	cfg.Logger = quietLogger()
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	ref, err := core.New(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadParamsFile(path, ref.Params()); err != nil {
		t.Fatal(err)
	}
	return ts, s, ref, path
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func e2eConfig() Config {
	cfg := DefaultConfig()
	cfg.Model = smallCfg()
	cfg.QueueDepth = 128
	cfg.RequestTimeout = 30 * time.Second
	return cfg
}

// TestServerEndToEnd is the acceptance test: boot on a random port, fire
// >= 32 concurrent recommend requests, and assert (a) every request
// succeeds with 40-bit recipe sets identical to direct BeamSearch output,
// (b) the batch-size histogram counts exactly one decoder call of size 1
// per request, and (c) a mid-flight model reload swaps the reported
// version with zero failed requests.
func TestServerEndToEnd(t *testing.T) {
	cfg := e2eConfig()
	cfg.Metrics = obs.NewRegistry() // counts only this test's decodes
	ts, s, ref, _ := newTestServer(t, cfg)

	const distinct = 6
	const requests = 48
	type expectation struct {
		iv   []float64
		want []core.Candidate
	}
	rng := rand.New(rand.NewSource(99))
	exps := make([]expectation, distinct)
	for i := range exps {
		iv := make([]float64, s.cfg.Model.InsightDim)
		for j := range iv {
			iv[j] = rng.NormFloat64()
		}
		exps[i] = expectation{iv: iv, want: ref.BeamSearch(iv, 5)}
	}
	initialVersion := s.reg.Version()

	type outcome struct {
		id      int
		resp    RecommendResponse
		code    int
		rawBody string
	}
	outcomes := make([]outcome, requests)
	var wg sync.WaitGroup
	reloadOnce := sync.OnceFunc(func() {
		resp, body := postJSON(t, ts.URL+"/v1/models/reload", ReloadRequest{})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("reload failed: %d %s", resp.StatusCode, body)
		}
	})
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == requests/2 {
				// Hot-swap while the other goroutines are in flight.
				reloadOnce()
			}
			exp := exps[i%distinct]
			resp, body := postJSON(t, ts.URL+"/v1/recommend",
				RecommendRequest{Insight: exp.iv, BeamWidth: 5})
			var rr RecommendResponse
			json.Unmarshal(body, &rr)
			outcomes[i] = outcome{id: i, resp: rr, code: resp.StatusCode, rawBody: string(body)}
		}(i)
	}
	wg.Wait()

	// (c) zero failed requests across the mid-flight reload.
	for _, o := range outcomes {
		if o.code != http.StatusOK {
			t.Fatalf("request %d failed: %d %s", o.id, o.code, o.rawBody)
		}
	}
	// (a) every response carries valid 40-bit sets identical to direct
	// BeamSearch (the reload re-reads the same weights, so expectations
	// hold across the swap).
	for _, o := range outcomes {
		exp := exps[o.id%distinct]
		if len(o.resp.Candidates) != len(exp.want) {
			t.Fatalf("request %d: %d candidates, want %d", o.id, len(o.resp.Candidates), len(exp.want))
		}
		for j, c := range o.resp.Candidates {
			if len(c.Recipes) != 40 || strings.Trim(c.Recipes, "01") != "" {
				t.Fatalf("request %d: invalid recipe bitstring %q", o.id, c.Recipes)
			}
			if c.Recipes != exp.want[j].Set.String() {
				t.Fatalf("request %d candidate %d: set %s, want %s", o.id, j, c.Recipes, exp.want[j].Set)
			}
			if diff := c.LogProb - exp.want[j].LogProb; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("request %d candidate %d: logprob differs by %g", o.id, j, diff)
			}
		}
		if o.resp.ModelVersion == "" || o.resp.BatchSize != 1 {
			t.Fatalf("request %d: bad metadata %+v", o.id, o.resp)
		}
	}
	// (c) the version visibly swapped: a post-reload request reports a
	// version different from the initial one.
	resp, body := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{Insight: exps[0].iv})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload request failed: %d %s", resp.StatusCode, body)
	}
	var after RecommendResponse
	json.Unmarshal(body, &after)
	if after.ModelVersion == initialVersion {
		t.Fatalf("model version did not change after reload (still %s)", after.ModelVersion)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	for _, want := range []string{
		// (b) one decoder call per request: 48 concurrent plus the
		// post-reload one.
		fmt.Sprintf("insightalign_batch_size_count %d", requests+1),
		fmt.Sprintf("insightalign_batch_size_sum %d", requests+1),
		"insightalign_queue_depth 0",
		`insightalign_requests_total{route="/v1/recommend",code="200"}`,
		"insightalign_request_duration_seconds_bucket",
		"insightalign_model_info{version=\"" + after.ModelVersion + "\"}",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics page missing %q\n---\n%s", want, metrics)
		}
	}
}

func TestServerBatchEndpoint(t *testing.T) {
	ts, s, ref, _ := newTestServer(t, e2eConfig())
	rng := rand.New(rand.NewSource(7))
	var br BatchRequest
	for i := 0; i < 4; i++ {
		iv := make([]float64, s.cfg.Model.InsightDim)
		for j := range iv {
			iv[j] = rng.NormFloat64()
		}
		br.Requests = append(br.Requests, RecommendRequest{Insight: iv, BeamWidth: 3})
	}
	resp, body := postJSON(t, ts.URL+"/v1/recommend/batch", br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch failed: %d %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("%d results", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
		want := ref.BeamSearch(br.Requests[i].Insight, 3)
		for j := range want {
			if r.Candidates[j].Recipes != want[j].Set.String() {
				t.Fatalf("result %d candidate %d mismatch", i, j)
			}
		}
	}
}

func TestServerValidationAndErrors(t *testing.T) {
	ts, _, _, modelPath := newTestServer(t, e2eConfig())

	// Wrong insight width -> 400.
	resp, body := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{Insight: []float64{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short insight: %d %s", resp.StatusCode, body)
	}
	// Unknown intention metric -> 400.
	iv := make([]float64, 72)
	resp, _ = postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
		Insight:   iv,
		Intention: &IntentionSpec{Terms: []IntentionTermSpec{{Metric: "nonsense", Weight: 1}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad intention: %d", resp.StatusCode)
	}
	// Valid intention passes through.
	resp, _ = postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{
		Insight:   iv,
		Intention: &IntentionSpec{Terms: []IntentionTermSpec{{Metric: "power", Weight: 0.7}, {Metric: "tns", Weight: 0.3}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid intention rejected: %d", resp.StatusCode)
	}
	// GET on a POST route -> 405.
	getResp, err := http.Get(ts.URL + "/v1/recommend")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET recommend: %d", getResp.StatusCode)
	}
	// Reload pointing at a missing file -> 500, service keeps working.
	resp, _ = postJSON(t, ts.URL+"/v1/models/reload", ReloadRequest{Path: filepath.Join(t.TempDir(), "missing.bin")})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("missing reload file: %d", resp.StatusCode)
	}
	// Reload with an explicit (valid) path works.
	resp, body = postJSON(t, ts.URL+"/v1/models/reload", ReloadRequest{Path: modelPath})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit reload: %d %s", resp.StatusCode, body)
	}
	var rl ReloadResponse
	json.Unmarshal(body, &rl)
	if rl.ModelVersion == "" || rl.Source != modelPath {
		t.Fatalf("reload response %+v", rl)
	}
	// Healthz reports the live version.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var hr HealthResponse
	json.Unmarshal(hbody, &hr)
	if hresp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.ModelVersion != rl.ModelVersion {
		t.Fatalf("healthz: %d %s", hresp.StatusCode, hbody)
	}
}

func TestServerNoModel503(t *testing.T) {
	reg, err := NewRegistry(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := e2eConfig()
	cfg.Logger = quietLogger()
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Shutdown(context.Background()) }()

	resp, _ := postJSON(t, ts.URL+"/v1/recommend", RecommendRequest{Insight: make([]float64, 72)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-model recommend: %d", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-model healthz: %d", hresp.StatusCode)
	}
}
