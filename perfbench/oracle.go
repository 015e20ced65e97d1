package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"insightalign/internal/core"
	"insightalign/internal/recipe"
	"insightalign/internal/serve"
)

// The oracle runs after the timed window. Every mismatch counts as one
// failed operation; it never compares what legitimately differs between
// runs (trace IDs, batch sizes, cache flags, arrival-order effects).

// logProbTol bounds the difference between a served log-probability and
// the teacher-forced Model.LogProb of the same set: the two are computed
// by different kernels.
const logProbTol = 1e-9

// decodeResponse parses one /v1/recommend body.
func decodeResponse(body []byte) (serve.RecommendResponse, error) {
	var r serve.RecommendResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("response body: %w", err)
	}
	return r, nil
}

// checkCandidateShape checks the fields derived from the recipe bits.
func checkCandidateShape(i int, c serve.CandidateJSON) (recipe.Set, error) {
	set, err := recipe.ParseSet(c.Recipes)
	if err != nil {
		return set, fmt.Errorf("candidate %d: %w", i, err)
	}
	if c.Count != set.Count() {
		return set, fmt.Errorf("candidate %d: count %d, set has %d", i, c.Count, set.Count())
	}
	var names []string
	for _, rc := range recipe.Catalog() {
		if set[rc.ID] {
			names = append(names, rc.Name)
		}
	}
	if len(names) != len(c.Names) {
		return set, fmt.Errorf("candidate %d: %d names for %d recipes", i, len(c.Names), len(names))
	}
	for j := range names {
		if names[j] != c.Names[j] {
			return set, fmt.Errorf("candidate %d: name %q, want %q", i, c.Names[j], names[j])
		}
	}
	return set, nil
}

// checkExact holds a cold (unseeded, uncached) response to the in-process
// BeamSearch on the same checkpoint: same version, same sets in the same
// order, bit-identical log-probabilities after the JSON round trip.
func checkExact(r serve.RecommendResponse, want []core.Candidate, version string) error {
	if r.ModelVersion != version {
		return fmt.Errorf("model_version %q, want %q", r.ModelVersion, version)
	}
	if len(r.Candidates) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(r.Candidates), len(want))
	}
	for i, c := range r.Candidates {
		set, err := checkCandidateShape(i, c)
		if err != nil {
			return err
		}
		if set != want[i].Set {
			return fmt.Errorf("candidate %d: set %s, want %s", i, c.Recipes, want[i].Set)
		}
		if c.LogProb != want[i].LogProb {
			return fmt.Errorf("candidate %d: log_prob %v, want %v", i, c.LogProb, want[i].LogProb)
		}
	}
	return nil
}

// checkSeeded holds a store-seeded (or cached) response to what holds in
// any arrival order: k distinct sets in non-increasing log_prob, each at
// least the cold candidate of the same rank (seeds only improve a rank),
// each log_prob equal to Model.LogProb of its set.
func checkSeeded(r serve.RecommendResponse, cold []core.Candidate, version string, logProb func(recipe.Set) float64) error {
	if r.ModelVersion != version {
		return fmt.Errorf("model_version %q, want %q", r.ModelVersion, version)
	}
	if len(r.Candidates) != len(cold) {
		return fmt.Errorf("%d candidates, want %d", len(r.Candidates), len(cold))
	}
	seen := map[recipe.Set]bool{}
	for i, c := range r.Candidates {
		set, err := checkCandidateShape(i, c)
		if err != nil {
			return err
		}
		if seen[set] {
			return fmt.Errorf("candidate %d: duplicate set %s", i, c.Recipes)
		}
		seen[set] = true
		if i > 0 && c.LogProb > r.Candidates[i-1].LogProb {
			return fmt.Errorf("candidate %d: log_prob %v above rank %d's %v", i, c.LogProb, i-1, r.Candidates[i-1].LogProb)
		}
		if c.LogProb < cold[i].LogProb-logProbTol {
			return fmt.Errorf("candidate %d: log_prob %v below the cold rank's %v", i, c.LogProb, cold[i].LogProb)
		}
		if lp := logProb(set); math.Abs(lp-c.LogProb) > logProbTol {
			return fmt.Errorf("candidate %d: log_prob %v, Model.LogProb gives %v", i, c.LogProb, lp)
		}
	}
	return nil
}

// parallel runs fn(i) for i in [0, n) on NumCPU goroutines.
func parallel(n int, fn func(i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// findings collects oracle mismatches; only the first few are printed.
type findings struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *findings) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}
