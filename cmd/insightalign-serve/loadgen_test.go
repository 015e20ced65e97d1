package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/nn"
	"insightalign/internal/obs"
	"insightalign/internal/serve"
)

// TestLoadGenSmoke drives the loadgen mode against a live server over a
// small saved model: every call must succeed and be counted under 200,
// and the printed result must marshal.
func TestLoadGenSmoke(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.Model = core.DefaultConfig()
	cfg.Model.EmbedDim, cfg.Model.FFHidden = 8, 16 // InsightDim stays what loadgen sends
	cfg.DefaultBeamWidth = 2
	cfg.RequestTimeout = 30 * time.Second
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.Metrics = obs.NewRegistry()

	m, err := core.New(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := nn.SaveParamsFile(path, m.Params()); err != nil {
		t.Fatal(err)
	}
	reg, err := serve.NewRegistry(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := runLoadgen(ts.URL, 4, 24, 1)
	want := loadgenResult{Requests: 24, Failures: 0, ByStatus: map[string]int{"200": 24}}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("loadgen result %+v, want %+v", res, want)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

// TestLoadGenErrorsByClass drives the loadgen mode against a server that
// sheds every third request with 503: the printed counts must add up, and
// every call must carry a well-formed insight. One client walks all 64
// distinct insights, which the fleet ring and the canary split need.
func TestLoadGenErrorsByClass(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.RecommendRequest
		err := json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		calls++
		n := calls
		if err == nil && len(req.Insight) == core.DefaultConfig().InsightDim {
			seen[fmt.Sprint(req.Insight)]++
		}
		mu.Unlock()
		if r.URL.Path != "/v1/recommend" || n%3 == 0 {
			http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"candidates":[]}`)
	}))
	defer srv.Close()

	res := runLoadgen(srv.URL, 4, 90, 1)
	want := loadgenResult{Requests: 90, Failures: 30, ByStatus: map[string]int{"200": 60, "503": 30}}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("loadgen result %+v, want %+v", res, want)
	}
	mu.Lock()
	if calls != 90 || len(seen) < 2 {
		t.Fatalf("%d calls with %d distinct well-formed insights, want 90 calls and many insights", calls, len(seen))
	}
	calls, seen = 0, map[string]int{}
	mu.Unlock()

	runLoadgen(srv.URL, 1, loadgenInsights, 1)
	mu.Lock()
	if len(seen) != loadgenInsights {
		t.Fatalf("one client over %d calls sent %d distinct insights, want %d", loadgenInsights, len(seen), loadgenInsights)
	}
	mu.Unlock()

	// A dead target counts every call as a transport failure.
	srv.Close()
	res = runLoadgen(srv.URL, 2, 6, 1)
	want = loadgenResult{Requests: 6, Failures: 6, ByStatus: map[string]int{"transport": 6}}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("dead-target result %+v, want %+v", res, want)
	}
}
