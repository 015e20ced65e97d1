package main

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/recipe"
	"insightalign/internal/serve"
	"insightalign/internal/tensor"
)

func testModel(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// served builds the response the server would send for cands, after the
// JSON round trip.
func served(t *testing.T, version string, cands []core.Candidate) serve.RecommendResponse {
	t.Helper()
	r := serve.RecommendResponse{ModelVersion: version, BeamWidth: len(cands), BatchSize: 1, TraceID: "abc"}
	for _, c := range cands {
		var names []string
		for _, rc := range recipe.Catalog() {
			if c.Set[rc.ID] {
				names = append(names, rc.Name)
			}
		}
		r.Candidates = append(r.Candidates, serve.CandidateJSON{Recipes: c.Set.String(), Names: names, Count: c.Set.Count(), LogProb: c.LogProb})
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func logProbOf(m *core.Model, iv []float64) func(recipe.Set) float64 {
	return func(s recipe.Set) float64 {
		var lp float64
		tensor.NoGrad(func() { lp = m.LogProb(iv, s.Bits()).Item() })
		return lp
	}
}

// mutations plants the three faults the oracle must catch.
func mutations(t *testing.T, m *core.Model, iv []float64, good []core.Candidate) map[string]serve.RecommendResponse {
	wrong := append([]core.Candidate(nil), good...)
	set := wrong[2].Set
	for id := 0; id < recipe.N; id++ {
		set[id] = !set[id]
		if set != good[0].Set && set != good[1].Set && set != good[3].Set && set != good[4].Set {
			break
		}
		set[id] = !set[id]
	}
	wrong[2] = core.Candidate{Set: set, LogProb: good[2].LogProb}
	reordered := append([]core.Candidate(nil), good...)
	reordered[0], reordered[1] = reordered[1], reordered[0]
	return map[string]serve.RecommendResponse{
		"planted wrong set": served(t, "v1", wrong),
		"reordered list":    served(t, "v1", reordered),
		"stale version":     served(t, "v0", good),
	}
}

func TestOracleExactCatchesPlantedFaults(t *testing.T) {
	m := testModel(t)
	iv := insightVec(rand.New(rand.NewSource(3)), core.DefaultConfig().InsightDim)
	good := m.BeamSearch(iv, beamK)
	if err := checkExact(served(t, "v1", good), good, "v1"); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	for name, r := range mutations(t, m, iv, good) {
		if err := checkExact(r, good, "v1"); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestOracleSeededCatchesPlantedFaults(t *testing.T) {
	m := testModel(t)
	iv := insightVec(rand.New(rand.NewSource(4)), core.DefaultConfig().InsightDim)
	good := m.BeamSearch(iv, beamK)
	lp := logProbOf(m, iv)
	if err := checkSeeded(served(t, "v1", good), good, "v1", lp); err != nil {
		t.Fatalf("cold response rejected: %v", err)
	}
	for name, r := range mutations(t, m, iv, good) {
		if err := checkSeeded(r, good, "v1", lp); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
}

// A store-seeded decode legitimately differs from the cold one; the
// order-free invariants must still accept it.
func TestOracleSeededAcceptsWarmStart(t *testing.T) {
	m := testModel(t)
	rng := rand.New(rand.NewSource(5))
	iv := insightVec(rng, core.DefaultConfig().InsightDim)
	cold := m.BeamSearch(iv, beamK)
	var seeds []recipe.Set
	for i := 0; i < 4; i++ {
		seeds = append(seeds, m.BeamSearch(insightVec(rng, core.DefaultConfig().InsightDim), 1)[0].Set)
	}
	warm := m.NewDecoder(iv).BeamSearchSeeded(beamK, seeds)
	if err := checkSeeded(served(t, "v1", warm), cold, "v1", logProbOf(m, iv)); err != nil {
		t.Fatalf("warm-started response rejected: %v", err)
	}
}

func TestPipelineDigestMovesWithOutputs(t *testing.T) {
	m := testModel(t)
	iv := insightVec(rand.New(rand.NewSource(6)), core.DefaultConfig().InsightDim)
	recs := [][]core.Candidate{m.BeamSearch(iv, beamK)}
	a := pipelineDigest([]byte("params"), recs, nil)
	if b := pipelineDigest([]byte("params"), recs, nil); a != b {
		t.Fatal("digest not deterministic")
	}
	recs[0][1].LogProb += 1e-12
	if b := pipelineDigest([]byte("params"), recs, nil); a == b {
		t.Fatal("digest missed a changed log-probability")
	}
	if sameCandidates(recs[0], m.BeamSearch(iv, beamK)) {
		t.Fatal("sameCandidates missed a changed log-probability")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "router", Start: at(0), End: at(10)},
		{Name: "replica", Parent: "router", Start: at(2), End: at(6)},
		{Name: "replica", Parent: "router", Start: at(4), End: at(8)}, // a hedge overlapping the primary
		{Name: "decode", Parent: "replica", Start: at(3), End: at(5)},
	}
	self := selfTimes(spans)
	if got, want := self["router"], 4*time.Millisecond; got != want {
		t.Errorf("router self %v, want %v", got, want)
	}
	// Each replica span loses the decode overlap it covers: 2ms + 1ms.
	if got, want := self["replica"], 5*time.Millisecond; got != want {
		t.Errorf("replica self %v, want %v", got, want)
	}
	if got, want := self["decode"], 2*time.Millisecond; got != want {
		t.Errorf("decode self %v, want %v", got, want)
	}
}
