package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"insightalign/internal/recipe"
	"insightalign/internal/tensor"
)

// The full-recompute reference decoders: every step re-runs the tape
// forward over the whole prefix. They are the oracle for the KV-cached
// engine (equiv_test.go, fastpath_test.go) and the baseline of
// BenchmarkBeamSearchNaive; nothing outside the tests decodes this way.

// StepProbNaive is the retained full-recompute reference for StepProb, used
// by the equivalence tests.
func (m *Model) StepProbNaive(iv []float64, prefix []int) float64 {
	var p float64
	tensor.NoGrad(func() {
		memory := m.insightMemory(iv)
		dec := make([]int, len(prefix)+1)
		copy(dec, prefix)
		lg := m.logits(memory, dec)
		p = sigmoid(lg.At(len(prefix), 0))
	})
	return p
}

// BeamSearchNaive is the retained full-recompute reference implementation:
// every step re-runs the decoder over the whole prefix for every beam
// (O(n²·K) decoder passes). Used by the equivalence tests and
// BenchmarkBeamSearchNaive.
func (m *Model) BeamSearchNaive(iv []float64, k int) []Candidate {
	if k < 1 {
		k = 1
	}
	type beam struct {
		seq   []int
		score float64
	}
	var beams []beam
	tensor.NoGrad(func() {
		memory := m.insightMemory(iv)
		beams = []beam{{seq: nil, score: 0}}
		for t := 0; t < m.Cfg.NumRecipes; t++ {
			next := make([]beam, 0, 2*len(beams))
			for _, b := range beams {
				dec := make([]int, len(b.seq)+1)
				copy(dec, b.seq)
				lg := m.logits(memory, dec)
				z := lg.At(t, 0)
				lp1 := logSigmoid(z)
				lp0 := logSigmoid(-z)
				next = append(next,
					beam{seq: append(append([]int(nil), b.seq...), 1), score: b.score + lp1},
					beam{seq: append(append([]int(nil), b.seq...), 0), score: b.score + lp0},
				)
			}
			// Keep top-K by score. Sorting unconditionally also guarantees
			// the returned candidates are best-first.
			sort.SliceStable(next, func(i, j int) bool { return next[i].score > next[j].score })
			if len(next) > k {
				next = next[:k]
			}
			beams = next
		}
	})
	out := make([]Candidate, 0, len(beams))
	for _, b := range beams {
		// recipe.Set is always catalog-width; models configured with fewer
		// recipes leave the tail unselected.
		s, err := recipe.FromBits(padBits(b.seq, recipe.N))
		if err != nil {
			continue
		}
		out = append(out, Candidate{Set: s, LogProb: b.score, Sequence: b.seq})
	}
	return out
}

// SampleNaive is the retained full-recompute reference for Sample, used by
// the equivalence tests.
func (m *Model) SampleNaive(iv []float64, tau float64, rng *rand.Rand) Candidate {
	if tau <= 0 {
		tau = 1e-6
	}
	seq := make([]int, 0, m.Cfg.NumRecipes)
	logp := 0.0
	tensor.NoGrad(func() {
		memory := m.insightMemory(iv)
		for t := 0; t < m.Cfg.NumRecipes; t++ {
			dec := make([]int, len(seq)+1)
			copy(dec, seq)
			lg := m.logits(memory, dec)
			z := lg.At(t, 0)
			p1 := sigmoid(z / tau)
			bit := 0
			if rng.Float64() < p1 {
				bit = 1
			}
			seq = append(seq, bit)
			if bit == 1 {
				logp += logSigmoid(z)
			} else {
				logp += logSigmoid(-z)
			}
		}
	})
	s, err := recipe.FromBits(padBits(seq, recipe.N))
	if err != nil {
		// Unreachable for a well-formed model: sampled bits are 0/1 and
		// padBits yields catalog width. Matches BeamSearch, which treats a
		// FromBits failure as a decoding invariant violation.
		panic(fmt.Sprintf("core: sampled sequence invalid: %v", err))
	}
	return Candidate{Set: s, LogProb: logp, Sequence: seq}
}

// BenchmarkBeamSearchNaive measures the full-recompute reference on the
// query of the root BenchmarkBeamSearchK5 (default model, insight seed 2);
// the ratio between the two is the incremental engine's speedup.
func BenchmarkBeamSearchNaive(b *testing.B) {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	iv := make([]float64, m.Cfg.InsightDim)
	for i := range iv {
		iv[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := m.BeamSearchNaive(iv, 5); len(cands) != 5 {
			b.Fatal("wrong candidate count")
		}
	}
}
