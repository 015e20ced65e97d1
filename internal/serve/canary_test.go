package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"insightalign/internal/retrieve"
)

// stubRouter is a minimal CandidateRouter: when armed, EVERY request is
// candidate-routed — the sharpest probe for the cache-bypass contract.
type stubRouter struct {
	snap    atomic.Pointer[Snapshot]
	candObs atomic.Int64
	liveObs atomic.Int64
}

func (r *stubRouter) Route(fp uint64) *Snapshot                  { return r.snap.Load() }
func (r *stubRouter) CandidateHook() func(context.Context) error { return nil }
func (r *stubRouter) Mirror(iv []float64, k int)                 {}
func (r *stubRouter) ObserveCandidate(code int, d time.Duration, lp float64) {
	r.candObs.Add(1)
}
func (r *stubRouter) ObserveLive(code int, d time.Duration, lp float64) {
	r.liveObs.Add(1)
}

// TestCanaryBypassesResponseCache is the regression test for the
// canary/cache interaction: a candidate-routed request must never be
// answered from the version-stamped response cache (a hit stamped with
// the live version would silently mask the canary), and a candidate
// decode must never populate it (a candidate-stamped Put would evict the
// live entry). The cached live entry must survive the whole canary
// untouched.
func TestCanaryBypassesResponseCache(t *testing.T) {
	stub := &stubRouter{}
	cfg := e2eConfig()
	cfg.Cache = retrieve.NewCache(64)
	cfg.Canary = stub
	ts, s, _, _ := newTestServer(t, cfg)

	dir := t.TempDir()
	candPath := filepath.Join(dir, "cand.bin")
	saveModelFile(t, candPath, 8, cfg.Model)
	cand, err := s.Registry().LoadCandidate(candPath)
	if err != nil {
		t.Fatal(err)
	}
	liveVersion := s.Registry().Version()

	rng := rand.New(rand.NewSource(42))
	iv := make([]float64, cfg.Model.InsightDim)
	for i := range iv {
		iv[i] = rng.NormFloat64()
	}
	type rec struct {
		ModelVersion string `json:"model_version"`
		Cached       bool   `json:"cached"`
	}
	send := func() (rec, string) {
		resp, raw := postJSON(t, ts.URL+"/v1/recommend", map[string]any{"insight": iv, "beam_width": 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recommend: %d %s", resp.StatusCode, raw)
		}
		var out rec
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out, resp.Header.Get("X-Model-Version")
	}

	// Live request primes the cache; its repeat is a hit.
	if o, _ := send(); o.Cached || o.ModelVersion != liveVersion {
		t.Fatalf("first live request: %+v", o)
	}
	if o, _ := send(); !o.Cached || o.ModelVersion != liveVersion {
		t.Fatalf("second live request should be a cache hit: %+v", o)
	}
	liveDecodes := stub.liveObs.Load()
	if liveDecodes != 1 {
		t.Fatalf("live decode observations = %d, want 1 (cache hits are not decodes)", liveDecodes)
	}

	// Canary on: the SAME insight must now decode on the candidate every
	// time — the primed cache entry must not answer, and repeats must not
	// start hitting a candidate-stamped entry either.
	stub.snap.Store(cand)
	for i := 0; i < 3; i++ {
		o, hdr := send()
		if o.Cached {
			t.Fatalf("candidate-routed request %d served from cache: %+v", i, o)
		}
		if !strings.HasPrefix(o.ModelVersion, "cand-") || hdr != o.ModelVersion {
			t.Fatalf("candidate-routed request %d attribution: body=%q header=%q", i, o.ModelVersion, hdr)
		}
	}
	if got := stub.candObs.Load(); got != 3 {
		t.Fatalf("candidate observations = %d, want 3", got)
	}

	// Canary off: the live cache entry is still there, still stamped with
	// the live version — the candidate decodes never wrote over it.
	stub.snap.Store(nil)
	if o, _ := send(); !o.Cached || o.ModelVersion != liveVersion {
		t.Fatalf("post-canary request should hit the original live entry: %+v", o)
	}
	if got := stub.liveObs.Load(); got != liveDecodes {
		t.Fatalf("live decode observations moved to %d during canary", got)
	}
}
