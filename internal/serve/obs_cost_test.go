package serve

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/obs"
	"insightalign/internal/obs/slo"
)

// measureObsCost times the full per-request observability accounting in
// isolation: the exemplar-carrying per-route + per-version histogram
// update, a QoR observation, and the two SLO scope feeds. It returns the
// mean cost of one request's accounting.
func measureObsCost(iters int) time.Duration {
	reg := obs.NewRegistry()
	met := NewMetrics(reg, func() int { return 0 }, func() string { return "v-bench" })
	eng := slo.New(slo.Config{})
	d := 3 * time.Millisecond
	start := time.Now()
	for i := 0; i < iters; i++ {
		met.ObserveRequestEx("/v1/recommend", 200, d, "v-bench", "00ff00ff00ff00ff")
		met.ObserveQoR("v-bench", -4.2)
		eng.ObserveRequest(slo.AggregateScope, 200, d)
		eng.ObserveRequest("v-bench", 200, d)
	}
	return time.Since(start) / time.Duration(iters)
}

// TestObservePathUnderFivePercentOfDecode bounds what observability adds
// to a request: the accounting every served request pays must cost under
// 5% of the p99 of the decode it accounts for, an in-process K = 5 beam
// search on a model with EmbedDim 96 and FFHidden 192.
func TestObservePathUnderFivePercentOfDecode(t *testing.T) {
	mcfg := core.DefaultConfig()
	mcfg.EmbedDim = 96
	mcfg.FFHidden = 192
	m, err := core.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	iv := make([]float64, mcfg.InsightDim)
	lat := make([]time.Duration, 100)
	for i := range lat {
		for j := range iv {
			iv[j] = rng.NormFloat64()
		}
		t0 := time.Now()
		m.BeamSearch(iv, 5)
		lat[i] = time.Since(t0)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := obs.QuantileDur(lat, 0.99)

	cost := measureObsCost(5_000)
	share := 100 * float64(cost) / float64(p99)
	t.Logf("observe path %v per request, decode p99 %v: %.3f%%", cost, p99, share)
	if cost <= 0 {
		t.Fatal("no observe-path cost measured")
	}
	if share >= 5 {
		t.Fatalf("observability accounting is %.2f%% of decode p99 (bound 5%%)", share)
	}
}
