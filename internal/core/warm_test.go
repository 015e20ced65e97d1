package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"insightalign/internal/recipe"
)

// Warm-start equivalence guards for BeamSearchSeeded: with an empty seed
// list (the empty-retrieval-store case) the search must be bit-identical
// to BeamSearch, and with seeds the output must be exactly the best k of
// cold ∪ seed rollouts with seed scores matching Model.LogProb.

func randomSet(rng *rand.Rand, n int) recipe.Set {
	var s recipe.Set
	for i := 0; i < n; i++ {
		s[i] = rng.Intn(2) == 1
	}
	return s
}

func TestSeededBeamSearchEmptyIdenticalToCached(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for mi, m := range equivModels(t) {
		for trial := 0; trial < 3; trial++ {
			iv := randomInsight(rng)
			for _, k := range []int{1, 3, 5} {
				base := m.BeamSearch(iv, k)
				for si, seeds := range [][]recipe.Set{nil, {}} {
					got := m.NewDecoder(iv).BeamSearchSeeded(k, seeds)
					if !reflect.DeepEqual(base, got) {
						t.Fatalf("model %d k=%d seeds-case %d: empty-seed search differs from BeamSearch", mi, k, si)
					}
				}
			}
		}
	}
}

func TestSeededBeamSearchMergeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for mi, m := range equivModels(t) {
		n := m.Cfg.NumRecipes
		for trial := 0; trial < 2; trial++ {
			iv := randomInsight(rng)
			for _, k := range []int{1, 3, 5} {
				seeds := []recipe.Set{randomSet(rng, n), randomSet(rng, n), randomSet(rng, n)}
				seeds = append(seeds, seeds[0]) // duplicate seed must be harmless
				got := m.NewDecoder(iv).BeamSearchSeeded(k, seeds)

				// Reference merge: cold candidates ∪ seed rollouts scored by
				// the reference LogProb, best k distinct sets, cold-first ties.
				cold := m.BeamSearch(iv, k)
				all := append([]Candidate{}, cold...)
				for _, sd := range seeds[:3] {
					bits := sd.Bits()[:n]
					all = append(all, Candidate{Set: sd, LogProb: m.LogProb(iv, bits).Item(), Sequence: bits})
				}
				sort.SliceStable(all, func(i, j int) bool { return all[i].LogProb > all[j].LogProb })
				var want []Candidate
				dup := map[recipe.Set]bool{}
				for _, c := range all {
					if dup[c.Set] {
						continue
					}
					dup[c.Set] = true
					want = append(want, c)
					if len(want) == k {
						break
					}
				}

				if len(got) != len(want) {
					t.Fatalf("model %d k=%d: %d candidates, want %d", mi, k, len(got), len(want))
				}
				for i := range want {
					if got[i].Set != want[i].Set {
						t.Fatalf("model %d k=%d candidate %d: set mismatch\ngot  %s\nwant %s",
							mi, k, i, got[i].Set, want[i].Set)
					}
					if d := math.Abs(got[i].LogProb - want[i].LogProb); d > 1e-9 {
						t.Fatalf("model %d k=%d candidate %d: log-prob differs by %g", mi, k, i, d)
					}
					if !reflect.DeepEqual(got[i].Sequence, want[i].Sequence) {
						t.Fatalf("model %d k=%d candidate %d: sequence mismatch", mi, k, i)
					}
				}

				// The warm top-1 can never be worse than the cold top-1.
				if got[0].LogProb < cold[0].LogProb-1e-12 {
					t.Fatalf("model %d k=%d: warm top-1 %g worse than cold %g",
						mi, k, got[0].LogProb, cold[0].LogProb)
				}
			}
		}
	}
}

func TestSeededBeamSearchSeedCanWin(t *testing.T) {
	// Force a seed the cold search is guaranteed to find as its own best:
	// the greedy sequence. The merged top-1 must equal it — and a k=1
	// search seeded with a *different* set must still return the better of
	// the two, proving seeds are merged by score rather than appended.
	rng := rand.New(rand.NewSource(94))
	m := equivModels(t)[1]
	n := m.Cfg.NumRecipes
	iv := randomInsight(rng)
	greedyBits := m.NewDecoder(iv).Greedy()
	greedySet, err := recipe.FromBits(padBits(greedyBits, recipe.N))
	if err != nil {
		t.Fatal(err)
	}
	other := randomSet(rng, n)
	got := m.NewDecoder(iv).BeamSearchSeeded(1, []recipe.Set{greedySet, other})
	if len(got) != 1 {
		t.Fatalf("k=1 returned %d candidates", len(got))
	}
	cold := m.BeamSearch(iv, 1)
	if got[0].LogProb < cold[0].LogProb-1e-12 {
		t.Fatalf("seeded top-1 %g worse than cold top-1 %g", got[0].LogProb, cold[0].LogProb)
	}
	bestSeed := m.LogProb(iv, greedySet.Bits()[:n]).Item()
	if o := m.LogProb(iv, other.Bits()[:n]).Item(); o > bestSeed {
		bestSeed = o
	}
	wantTop := cold[0].LogProb
	if bestSeed > wantTop {
		wantTop = bestSeed
	}
	if d := math.Abs(got[0].LogProb - wantTop); d > 1e-9 {
		t.Fatalf("seeded top-1 %g, want max(cold, seeds) %g", got[0].LogProb, wantTop)
	}
}
