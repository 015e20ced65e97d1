package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"insightalign/internal/dataset"
	"insightalign/internal/insight"
	"insightalign/internal/nn"
	"insightalign/internal/recipe"
	"insightalign/internal/tensor"
)

func smallModel(t *testing.T, seed int64) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EmbedDim = 16
	cfg.FFHidden = 24
	cfg.Seed = seed
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomInsight(rng *rand.Rand) []float64 {
	iv := make([]float64, insight.Dim)
	for i := range iv {
		iv[i] = rng.NormFloat64() * 0.5
	}
	return iv
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestTableIIIDimensions(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Decision token embedding: (3, 32).
	if r, c := m.DecisionEmbed.Table.Dims(); r != 3 || c != 32 {
		t.Fatalf("decision embed (%d,%d), want (3,32)", r, c)
	}
	// Recipe positional encoding: (40, 32).
	if r, c := m.PosEnc.Table.Dims(); r != 40 || c != 32 {
		t.Fatalf("pos enc (%d,%d), want (40,32)", r, c)
	}
	// Insight embedding: 72 → 32.
	if r, c := m.InsightProj.W.Dims(); r != 72 || c != 32 {
		t.Fatalf("insight proj (%d,%d), want (72,32)", r, c)
	}
	// Output projection: 32 → 1 per recipe position.
	if r, c := m.OutProj.W.Dims(); r != 32 || c != 1 {
		t.Fatalf("out proj (%d,%d), want (32,1)", r, c)
	}
	rng := rand.New(rand.NewSource(1))
	iv := randomInsight(rng)
	bits := make([]int, 40)
	probs := m.SelectionProbs(iv, bits)
	if len(probs) != 40 {
		t.Fatalf("got %d sigmoid outputs, want 40", len(probs))
	}
	for _, p := range probs {
		if p <= 0 || p >= 1 {
			t.Fatalf("probability %g out of (0,1)", p)
		}
	}
}

func TestLogProbMatchesStepwise(t *testing.T) {
	m := smallModel(t, 2)
	rng := rand.New(rand.NewSource(3))
	iv := randomInsight(rng)
	bits := make([]int, m.Cfg.NumRecipes)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	lp := m.LogProb(iv, bits).Item()
	// Stepwise: accumulate log P(bit_t) from StepProb with the true prefix.
	sum := 0.0
	for tt := 0; tt < m.Cfg.NumRecipes; tt++ {
		p1 := m.StepProb(iv, bits[:tt])
		if bits[tt] == 1 {
			sum += math.Log(p1)
		} else {
			sum += math.Log(1 - p1)
		}
	}
	if math.Abs(lp-sum) > 1e-6 {
		t.Fatalf("teacher forcing %g != stepwise %g", lp, sum)
	}
}

func TestLogProbGradient(t *testing.T) {
	cfg := Config{NumRecipes: 5, EmbedDim: 6, InsightDim: 4, FFHidden: 8, Seed: 4}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iv := []float64{0.3, -0.2, 0.8, 0.1}
	bits := []int{1, 0, 1, 1, 0}
	rel := tensor.GradCheck(func() *tensor.Tensor { return m.LogProb(iv, bits) }, m.Params(), 1e-6)
	if rel > 1e-3 {
		t.Fatalf("LogProb grad rel err = %g", rel)
	}
}

func TestBeamSearchAgainstExhaustive(t *testing.T) {
	cfg := Config{NumRecipes: 6, EmbedDim: 8, InsightDim: 4, FFHidden: 8, Seed: 5}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iv := []float64{0.5, -0.5, 0.2, 0.9}
	// Exhaustive enumeration of all 64 sequences.
	type cand struct {
		bits []int
		lp   float64
	}
	var all []cand
	for mask := 0; mask < 64; mask++ {
		bits := make([]int, 6)
		for i := 0; i < 6; i++ {
			bits[i] = (mask >> i) & 1
		}
		sum := 0.0
		for tt := 0; tt < 6; tt++ {
			p1 := m.StepProb(iv, bits[:tt])
			if bits[tt] == 1 {
				sum += math.Log(p1)
			} else {
				sum += math.Log(1 - p1)
			}
		}
		all = append(all, cand{bits, sum})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lp > all[j].lp })
	// Wide beam (64) must recover the exact argmax; beam K must contain it.
	got := m.BeamSearch(iv, 64)
	if math.Abs(got[0].LogProb-all[0].lp) > 1e-9 {
		t.Fatalf("full-width beam missed argmax: %g vs %g", got[0].LogProb, all[0].lp)
	}
	got5 := m.BeamSearch(iv, 5)
	if len(got5) != 5 {
		t.Fatalf("beam returned %d candidates, want 5", len(got5))
	}
	if math.Abs(got5[0].LogProb-all[0].lp) > 1e-9 {
		// Beam search with K=5 on a 6-step binary problem should find the
		// argmax (greedy-dominant landscapes at init).
		t.Logf("warning: K=5 beam missed global argmax (%g vs %g)", got5[0].LogProb, all[0].lp)
	}
	for i := 1; i < len(got5); i++ {
		if got5[i].LogProb > got5[i-1].LogProb+1e-12 {
			t.Fatal("beam results not sorted by score")
		}
	}
}

func TestBeamSearchDistinctCandidates(t *testing.T) {
	m := smallModel(t, 6)
	iv := randomInsight(rand.New(rand.NewSource(7)))
	cands := m.BeamSearch(iv, 5)
	if len(cands) != 5 {
		t.Fatalf("got %d candidates", len(cands))
	}
	seen := map[recipe.Set]bool{}
	for _, c := range cands {
		if seen[c.Set] {
			t.Fatal("duplicate candidate in beam output")
		}
		seen[c.Set] = true
	}
}

func TestSampleValid(t *testing.T) {
	m := smallModel(t, 8)
	rng := rand.New(rand.NewSource(9))
	iv := randomInsight(rng)
	c := m.Sample(iv, 1.0, rng)
	if len(c.Sequence) != m.Cfg.NumRecipes {
		t.Fatal("sample sequence wrong length")
	}
	if c.LogProb >= 0 {
		t.Fatalf("log prob %g should be negative", c.LogProb)
	}
	// Very low temperature ≈ deterministic greedy.
	a := m.Sample(iv, 1e-9, rng)
	b := m.Sample(iv, 1e-9, rng)
	if a.Set != b.Set {
		t.Fatal("greedy samples should agree")
	}
}

// syntheticPoints builds a dataset where QoR depends on the insight's first
// feature: designs with iv[0] > 0 want recipe 0 selected, designs with
// iv[0] < 0 want recipe 1 selected. Tests insight-conditional learning.
func syntheticPoints(rng *rand.Rand, nDesigns, perDesign int) []dataset.Point {
	var pts []dataset.Point
	for d := 0; d < nDesigns; d++ {
		var iv insight.Vector
		sign := 1.0
		if d%2 == 1 {
			sign = -1
		}
		iv[0] = sign
		// Small per-design jitter on a few other dims; kept small so the
		// signal dim stays decorrelated from the noise dims.
		for i := 1; i < 4; i++ {
			iv[i] = rng.NormFloat64() * 0.1
		}
		name := string(rune('A' + d))
		for k := 0; k < perDesign; k++ {
			s := dataset.SampleSet(rng, 4)
			q := 0.0
			if sign > 0 {
				if s[0] {
					q += 1
				} else {
					q -= 1
				}
			} else {
				if s[1] {
					q += 1
				} else {
					q -= 1
				}
			}
			q += rng.NormFloat64() * 0.05
			pts = append(pts, dataset.Point{DesignName: name, Insight: iv, Set: s, QoR: q})
		}
	}
	return pts
}

func TestAlignmentLearnsInsightConditionalPreference(t *testing.T) {
	m := smallModel(t, 10)
	rng := rand.New(rand.NewSource(11))
	pts := syntheticPoints(rng, 8, 20)
	opt := DefaultTrainOptions()
	opt.Epochs = 8
	opt.LR = 3e-3
	opt.MaxPairsPerDesign = 120
	stats, err := m.AlignmentTrain(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalPairs == 0 {
		t.Fatal("no pairs trained")
	}
	// Noise-gap pairs (same selection status, QoR differing only by the
	// 0.05σ noise) are unlearnable, so demand strong-but-not-perfect
	// accuracy plus a clear improvement over the first epoch.
	first := stats.Epochs[0].PairAccuracy
	last := stats.Epochs[len(stats.Epochs)-1].PairAccuracy
	if last < 0.8 {
		t.Fatalf("pair accuracy after training = %g (first epoch %g)", last, first)
	}
	if last < first+0.05 {
		t.Fatalf("training did not improve pair accuracy: %g -> %g", first, last)
	}
	// Zero-shot on fresh insights of each type. The data constrains the
	// RANKING of recipe sets per insight (preference learning), not
	// calibrated marginals: under the positive insight, sets with recipe 0
	// must outrank those without; under the negative insight, recipe 1.
	var ivPos, ivNeg insight.Vector
	ivPos[0], ivNeg[0] = 1.0, -1.0
	deltaLP := func(iv insight.Vector, rid int) float64 {
		with := make([]int, m.Cfg.NumRecipes)
		with[rid] = 1
		without := make([]int, m.Cfg.NumRecipes)
		return m.LogProb(iv.Slice(), with).Item() - m.LogProb(iv.Slice(), without).Item()
	}
	dR0Pos := deltaLP(ivPos, 0)
	dR0Neg := deltaLP(ivNeg, 0)
	dR1Pos := deltaLP(ivPos, 1)
	dR1Neg := deltaLP(ivNeg, 1)
	if dR0Pos < 0.5 {
		t.Errorf("positive insight should favor recipe 0: Δlogπ = %g", dR0Pos)
	}
	if dR1Neg < 0.5 {
		t.Errorf("negative insight should favor recipe 1: Δlogπ = %g", dR1Neg)
	}
	// Insight-conditioning: each recipe must matter more under the insight
	// that rewards it than under the other.
	if dR0Pos <= dR0Neg {
		t.Errorf("recipe 0 preference not insight-conditional: pos %g vs neg %g", dR0Pos, dR0Neg)
	}
	if dR1Neg <= dR1Pos {
		t.Errorf("recipe 1 preference not insight-conditional: neg %g vs pos %g", dR1Neg, dR1Pos)
	}
	// Beam search top-1 must include the rewarded recipe.
	bPos := m.BeamSearch(ivPos.Slice(), 1)[0]
	bNeg := m.BeamSearch(ivNeg.Slice(), 1)[0]
	if !bPos.Set[0] {
		t.Error("beam for positive insight does not select recipe 0")
	}
	if !bNeg.Set[1] {
		t.Error("beam for negative insight does not select recipe 1")
	}
}

func TestAlignmentTrainValidation(t *testing.T) {
	m := smallModel(t, 12)
	if _, err := m.AlignmentTrain(nil, DefaultTrainOptions()); err == nil {
		t.Fatal("expected error for empty points")
	}
	opt := DefaultTrainOptions()
	opt.Lambda = 0
	if _, err := m.AlignmentTrain([]dataset.Point{{}}, opt); err == nil {
		t.Fatal("expected error for zero lambda")
	}
	opt = DefaultTrainOptions()
	opt.Epochs = 0
	if _, err := m.AlignmentTrain([]dataset.Point{{}}, opt); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}

func TestPairLossZeroWhenMarginMet(t *testing.T) {
	m := smallModel(t, 13)
	rng := rand.New(rand.NewSource(14))
	iv := randomInsight(rng)
	bits := make([]int, m.Cfg.NumRecipes)
	p := pair{insight: iv, winBits: bits, losBits: bits, gap: 0}
	// Identical sequences, zero gap: loss is exactly hinge(0 − 0) = 0.
	if v := tapePairLoss(m, p, DefaultTrainOptions()).Item(); v != 0 {
		t.Fatalf("tie pair loss = %g, want 0", v)
	}
	if v, gw, gl := pairTerm(p, DefaultTrainOptions()).Loss(m.SeqLogProb(iv, bits), m.SeqLogProb(iv, bits)); v != 0 || gw != 0 || gl != 0 {
		t.Fatalf("tie pair loss = %g, want 0", v)
	}
}

func TestSaveLoadModelRoundTrip(t *testing.T) {
	m1 := smallModel(t, 15)
	m2 := smallModel(t, 99)
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadParams(&buf, m2.Params()); err != nil {
		t.Fatal(err)
	}
	iv := randomInsight(rand.New(rand.NewSource(16)))
	bits := make([]int, m1.Cfg.NumRecipes)
	a := m1.LogProb(iv, bits).Item()
	b := m2.LogProb(iv, bits).Item()
	if a != b {
		t.Fatalf("loaded model differs: %g vs %g", a, b)
	}
}

func TestArchitectureTable(t *testing.T) {
	m, _ := New(DefaultConfig())
	s := m.ArchitectureTable()
	for _, want := range []string{"Decision Token Embed.", "Recipe Pos. Enc.", "Insight Embed.", "Transformer Dec.", "Sigmoid x40"} {
		if !strings.Contains(s, want) {
			t.Errorf("architecture table missing %q", want)
		}
	}
}

func TestValidationEarlyStopping(t *testing.T) {
	m := smallModel(t, 40)
	rng := rand.New(rand.NewSource(41))
	pts := syntheticPoints(rng, 4, 16)
	opt := DefaultTrainOptions()
	opt.Epochs = 30
	opt.LR = 5e-3
	opt.MaxPairsPerDesign = 60
	opt.ValidationFrac = 0.25
	opt.Patience = 2
	stats, err := m.AlignmentTrain(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Epochs) >= 30 {
		t.Fatalf("early stopping never triggered: ran all %d epochs", len(stats.Epochs))
	}
	for _, es := range stats.Epochs {
		if es.ValAccuracy < 0 || es.ValAccuracy > 1 {
			t.Fatalf("ValAccuracy %g out of range", es.ValAccuracy)
		}
	}
}

func TestValidationFracValidation(t *testing.T) {
	m := smallModel(t, 42)
	opt := DefaultTrainOptions()
	opt.ValidationFrac = 1.5
	if _, err := m.AlignmentTrain([]dataset.Point{{}}, opt); err == nil {
		t.Fatal("expected error for bad ValidationFrac")
	}
}

func TestDPOLossVariantTrains(t *testing.T) {
	m := smallModel(t, 43)
	rng := rand.New(rand.NewSource(44))
	pts := syntheticPoints(rng, 4, 14)
	opt := DefaultTrainOptions()
	opt.Loss = LossDPO
	opt.Epochs = 3
	opt.MaxPairsPerDesign = 60
	stats, err := m.AlignmentTrain(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	first := stats.Epochs[0].PairAccuracy
	last := stats.Epochs[len(stats.Epochs)-1].PairAccuracy
	if last <= first-0.05 {
		t.Fatalf("DPO training degraded accuracy: %g -> %g", first, last)
	}
	// DPO loss is strictly positive (it is -logσ, never exactly 0).
	if stats.Epochs[0].ZeroLossFrac != 0 {
		t.Fatal("DPO should never report zero loss")
	}
}

func TestDPORequiresBeta(t *testing.T) {
	m := smallModel(t, 45)
	opt := DefaultTrainOptions()
	opt.Loss = LossDPO
	opt.Beta = 0
	if _, err := m.AlignmentTrain([]dataset.Point{{}}, opt); err == nil {
		t.Fatal("expected error for DPO without beta")
	}
}

func TestSupervisedTrain(t *testing.T) {
	m := smallModel(t, 46)
	rng := rand.New(rand.NewSource(47))
	pts := syntheticPoints(rng, 4, 16)
	opt := DefaultSupervisedOptions()
	opt.Epochs = 4
	nll, err := m.SupervisedTrain(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if nll <= 0 {
		t.Fatalf("NLL should be positive, got %g", nll)
	}
	// Imitated sets should be more likely than before training... compare
	// against a fresh model on a known-good set.
	fresh := smallModel(t, 46)
	var iv insight.Vector
	iv[0] = 1
	var goodSet recipe.Set
	goodSet[0] = true // positive designs reward recipe 0
	lpTrained := m.LogProb(iv.Slice(), goodSet.Bits()).Item()
	lpFresh := fresh.LogProb(iv.Slice(), goodSet.Bits()).Item()
	if lpTrained <= lpFresh {
		t.Fatalf("imitation did not raise likelihood: %g vs %g", lpTrained, lpFresh)
	}
}

func TestSupervisedTrainValidation(t *testing.T) {
	m := smallModel(t, 48)
	if _, err := m.SupervisedTrain(nil, DefaultSupervisedOptions()); err == nil {
		t.Fatal("expected error for empty points")
	}
	opt := DefaultSupervisedOptions()
	opt.TopFraction = 0
	if _, err := m.SupervisedTrain([]dataset.Point{{}}, opt); err == nil {
		t.Fatal("expected error for zero TopFraction")
	}
	opt = DefaultSupervisedOptions()
	opt.Epochs = 0
	if _, err := m.SupervisedTrain([]dataset.Point{{}}, opt); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}

// Property: the best beam candidate is at least as likely as the greedy
// decode, for any insight vector (beam search generalizes greedy).
func TestBeamBeatsGreedyProperty(t *testing.T) {
	m := smallModel(t, 50)
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		iv := randomInsight(rng)
		greedy := m.greedyDecode(iv)
		lpGreedy := m.LogProb(iv, greedy).Item()
		best := m.BeamSearch(iv, 5)[0]
		if best.LogProb < lpGreedy-1e-9 {
			t.Fatalf("trial %d: beam top-1 (%g) below greedy (%g)", trial, best.LogProb, lpGreedy)
		}
		// Beam scores must agree with teacher forcing on the same bits.
		lpTF := m.LogProb(iv, padTo(best.Sequence, m.Cfg.NumRecipes)).Item()
		if math.Abs(lpTF-best.LogProb) > 1e-6 {
			t.Fatalf("trial %d: beam score %g != teacher forcing %g", trial, best.LogProb, lpTF)
		}
	}
}

func padTo(seq []int, n int) []int {
	out := make([]int, n)
	copy(out, seq)
	return out
}

func TestCosineLRSchedule(t *testing.T) {
	m := smallModel(t, 52)
	rng := rand.New(rand.NewSource(53))
	pts := syntheticPoints(rng, 4, 12)
	opt := DefaultTrainOptions()
	opt.Epochs = 4
	opt.MaxPairsPerDesign = 40
	opt.CosineLR = true
	stats, err := m.AlignmentTrain(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Epochs) != 4 {
		t.Fatalf("ran %d epochs", len(stats.Epochs))
	}
}

func TestRankSets(t *testing.T) {
	m := smallModel(t, 54)
	iv := randomInsight(rand.New(rand.NewSource(55)))
	var a, b, c recipe.Set
	a[0] = true
	b[1], b[2] = true, true
	ranked := m.RankSets(iv, []recipe.Set{a, b, c})
	if len(ranked) != 3 {
		t.Fatalf("got %d ranked sets", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].LogProb > ranked[i-1].LogProb {
			t.Fatal("RankSets not sorted descending")
		}
	}
	// Scores must match direct evaluation.
	for _, ss := range ranked {
		want := m.LogProb(iv, ss.Set.Bits()).Item()
		if ss.LogProb != want {
			t.Fatalf("ranked score %g != direct %g", ss.LogProb, want)
		}
	}
}

func TestMultiLayerDecoder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EmbedDim = 12
	cfg.FFHidden = 16
	cfg.Layers = 3
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Decoders) != 3 {
		t.Fatalf("got %d decoder layers", len(m.Decoders))
	}
	single, _ := New(Config{NumRecipes: cfg.NumRecipes, EmbedDim: 12, InsightDim: cfg.InsightDim, FFHidden: 16, Seed: cfg.Seed})
	if nn.CountParams(m) <= nn.CountParams(single) {
		t.Fatal("deeper model should have more parameters")
	}
	iv := randomInsight(rand.New(rand.NewSource(56)))
	bits := make([]int, cfg.NumRecipes)
	if lp := m.LogProb(iv, bits).Item(); lp >= 0 || math.IsNaN(lp) {
		t.Fatalf("bad log prob %g", lp)
	}
	// Architecture table reflects the depth.
	if !strings.Contains(m.ArchitectureTable(), "Decoder x3") {
		t.Fatalf("table missing depth: %s", m.ArchitectureTable())
	}
	if _, err := New(Config{NumRecipes: 4, EmbedDim: 8, InsightDim: 4, FFHidden: 8, Layers: 99}); err == nil {
		t.Fatal("expected error for absurd depth")
	}
}
