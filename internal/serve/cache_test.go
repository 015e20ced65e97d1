package serve

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"insightalign/internal/obs"
	"insightalign/internal/retrieve"
)

func cacheConfig() Config {
	cfg := e2eConfig()
	cfg.Cache = retrieve.NewCache(retrieve.DefaultCacheSize)
	cfg.Store = retrieve.NewStore()
	cfg.Metrics = obs.NewRegistry() // isolated, so counter assertions are exact
	return cfg
}

func recommendOnce(t *testing.T, url string, iv []float64, k int) RecommendResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/recommend", RecommendRequest{Insight: iv, BeamWidth: k})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var rr RecommendResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestServeCacheHitPath is the serving-tier E2E for the retrieval cache:
// the first request for a design decodes (and its candidates match cold
// BeamSearch, since the store is empty), the repeat is answered from the
// cache with identical candidates and no decoder call, a different beam
// width misses (the width is part of the key), and the hit/miss metrics
// land in the isolated registry.
func TestServeCacheHitPath(t *testing.T) {
	cfg := cacheConfig()
	ts, s, ref, _ := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(41))
	iv := make([]float64, cfg.Model.InsightDim)
	for j := range iv {
		iv[j] = rng.NormFloat64()
	}

	first := recommendOnce(t, ts.URL, iv, 5)
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	want := ref.BeamSearch(iv, 5)
	if len(first.Candidates) != len(want) {
		t.Fatalf("%d candidates, want %d", len(first.Candidates), len(want))
	}
	for i, c := range first.Candidates {
		if c.Recipes != want[i].Set.String() {
			t.Fatalf("candidate %d: %s, want %s (empty store must decode cold)", i, c.Recipes, want[i].Set.String())
		}
	}

	second := recommendOnce(t, ts.URL, iv, 5)
	if !second.Cached {
		t.Fatal("repeat request was not served from the cache")
	}
	if second.BatchSize != 0 {
		t.Fatalf("cached response BatchSize = %d, want 0", second.BatchSize)
	}
	if second.ModelVersion != first.ModelVersion {
		t.Fatalf("cached version %s != original %s", second.ModelVersion, first.ModelVersion)
	}
	if !reflect.DeepEqual(second.Candidates, first.Candidates) {
		t.Fatal("cached candidates differ from the original decode")
	}
	if second.TraceID == "" || second.TraceID == first.TraceID {
		t.Fatalf("cached response must carry its own trace ID (got %q, first %q)", second.TraceID, first.TraceID)
	}

	// A different beam width is a different key.
	if third := recommendOnce(t, ts.URL, iv, 3); third.Cached {
		t.Fatal("different beam width must not hit the k=5 entry")
	}

	// Non-finite vectors bypass the cache (sentinel aliasing). JSON can't
	// carry ±Inf so this is exercised through the in-process entry point.
	// The decode scores such a vector NaN, which answers 400.
	bad := append([]float64{}, iv...)
	bad[0] = math.Inf(1)
	for i := 0; i < 2; i++ {
		r, code := s.recommend(context.Background(), &RecommendRequest{Insight: bad, BeamWidth: 5})
		if code != http.StatusBadRequest {
			t.Fatalf("non-finite insight: code=%d err=%q, want 400", code, r.Error)
		}
		if r.Cached {
			t.Fatalf("non-finite insight request %d must bypass the cache", i)
		}
	}

	exp := s.Metrics().Exposition()
	for _, wantLine := range []string{
		`insightalign_serve_cache_requests_total{result="hit"} 1`,
		`insightalign_serve_cache_requests_total{result="miss"} 2`,
		`insightalign_serve_cache_requests_total{result="bypass"} 2`,
	} {
		if !strings.Contains(exp, wantLine) {
			t.Fatalf("metrics exposition missing %q", wantLine)
		}
	}

	// The decode fed the outcome store.
	if cfg.Store.Len() == 0 {
		t.Fatal("serve decodes did not feed the retrieval store")
	}
}

// TestServeCacheReloadNoStale: after a hot swap, not one response — in
// particular not a cached one — may carry the old model version. The
// version-stamped Get makes staleness structurally impossible; this pins
// it end to end through /v1/models/reload.
func TestServeCacheReloadNoStale(t *testing.T) {
	cfg := cacheConfig()
	ts, s, _, path := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(43))
	ivs := make([][]float64, 4)
	for i := range ivs {
		ivs[i] = make([]float64, cfg.Model.InsightDim)
		for j := range ivs[i] {
			ivs[i][j] = rng.NormFloat64()
		}
	}
	oldVersion := s.Registry().Version()
	for _, iv := range ivs {
		recommendOnce(t, ts.URL, iv, 5)
		if r := recommendOnce(t, ts.URL, iv, 5); !r.Cached || r.ModelVersion != oldVersion {
			t.Fatalf("pre-reload repeat: cached=%v version=%s, want cached under %s", r.Cached, r.ModelVersion, oldVersion)
		}
	}
	if cfg.Store.Len() == 0 {
		t.Fatal("store empty before reload")
	}

	resp, body := postJSON(t, ts.URL+"/v1/models/reload", ReloadRequest{Path: path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: HTTP %d: %s", resp.StatusCode, body)
	}
	newVersion := s.Registry().Version()
	if newVersion == oldVersion {
		t.Fatalf("reload kept version %s", oldVersion)
	}
	// The old version's serve-fed score proxies are gone from the store.
	for _, d := range cfg.Store.Dump() {
		for _, o := range d.Outcomes {
			if o.ModelVersion == oldVersion {
				t.Fatalf("store still holds an outcome from replaced version %s", oldVersion)
			}
		}
	}

	for _, iv := range ivs {
		r := recommendOnce(t, ts.URL, iv, 5)
		if r.Cached {
			t.Fatal("post-reload request served a stale cache entry")
		}
		if r.ModelVersion != newVersion {
			t.Fatalf("post-reload decode version %s, want %s", r.ModelVersion, newVersion)
		}
		again := recommendOnce(t, ts.URL, iv, 5)
		if !again.Cached || again.ModelVersion != newVersion {
			t.Fatalf("post-reload repeat: cached=%v version=%s, want cached under %s", again.Cached, again.ModelVersion, newVersion)
		}
	}
}

// TestServeBatchEndpointUsesCache: elements of /v1/recommend/batch share
// the same cache.
func TestServeBatchEndpointUsesCache(t *testing.T) {
	cfg := cacheConfig()
	ts, _, _, _ := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(47))
	iv := make([]float64, cfg.Model.InsightDim)
	for j := range iv {
		iv[j] = rng.NormFloat64()
	}
	recommendOnce(t, ts.URL, iv, 5)

	req := BatchRequest{Requests: []RecommendRequest{
		{Insight: iv, BeamWidth: 5},
		{Insight: iv, BeamWidth: 5},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/recommend/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("%d results, want 2", len(br.Results))
	}
	for i, r := range br.Results {
		if !r.Cached {
			t.Fatalf("batch element %d not served from cache", i)
		}
	}
}
