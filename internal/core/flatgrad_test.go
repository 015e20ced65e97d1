package core

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"insightalign/internal/dataset"
	"insightalign/internal/nn"
	"insightalign/internal/tensor"
)

// The tape engine is the oracle of the flat training path: the helpers
// below rebuild what the tape-based trainer computed — each loss as a tape
// graph, chunk gradients on shadow replicas — and the tests demand the
// flat engine match it bit for bit.

// tapeReplica returns a model whose parameter tensors alias m's Data but
// own fresh Grad buffers, as the tape engine's workers used.
func tapeReplica(t testing.TB, m *Model) *Model {
	t.Helper()
	rep, err := New(m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, rp := m.Params(), rep.Params()
	for i := range rp {
		rp[i].Data = mp[i].Data
	}
	return rep
}

// tapePairLoss is Eq. 2 (LossMDPO) or Eq. 1 (LossDPO) as a tape graph.
func tapePairLoss(m *Model, p pair, opt TrainOptions) *tensor.Tensor {
	lw := m.LogProb(p.insight, p.winBits)
	ll := m.LogProb(p.insight, p.losBits)
	diff := lw.Sub(ll)
	if opt.Loss == LossDPO {
		return diff.Scale(opt.Beta).LogSigmoid().Neg()
	}
	return tensor.Scalar(opt.Lambda * p.gap).Sub(diff).Hinge()
}

// tapeAccumulate is the tape engine's Accumulate: per chunk of
// trainChunkSize losses, a replica accumulates each loss's Backward
// (skipping zero hinge values when skipZero), and the chunk gradients are
// added into m's Grad in chunk order, then scaled to the mean.
func tapeAccumulate(t testing.TB, m *Model, losses []func(*Model) *tensor.Tensor, skipZero bool) []float64 {
	t.Helper()
	params := m.Params()
	rep := tapeReplica(t, m)
	rp := rep.Params()
	vals := make([]float64, len(losses))
	var chunks [][][]float64
	for lo := 0; lo < len(losses); lo += trainChunkSize {
		nn.ZeroGrads(rp)
		for i := lo; i < min(lo+trainChunkSize, len(losses)); i++ {
			loss := losses[i](rep)
			vals[i] = loss.Item()
			if skipZero && vals[i] == 0 {
				continue
			}
			loss.Backward()
		}
		snap := make([][]float64, len(rp))
		for i, p := range rp {
			snap[i] = append([]float64(nil), p.Grad...)
		}
		chunks = append(chunks, snap)
	}
	nn.ZeroGrads(params)
	for _, snap := range chunks {
		for i, p := range params {
			for j, v := range snap[i] {
				p.Grad[j] += v
			}
		}
	}
	nn.ScaleGrads(params, 1/float64(len(losses)))
	return vals
}

// tapeAlignmentTrain is AlignmentTrain on the tape: Algorithm 1's
// per-pair schedule (BatchSize 0) exactly as the tape trainer ran it, or
// minibatches through tapeAccumulate. It supports the options the tests
// use (no validation split, no cosine schedule).
func tapeAlignmentTrain(t testing.TB, m *Model, points []dataset.Point, opt TrainOptions) []float64 {
	t.Helper()
	if opt.ValidationFrac != 0 || opt.CosineLR {
		t.Fatal("tapeAlignmentTrain: unsupported option")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	adam := nn.NewAdam(m.Params(), opt.LR)
	adam.ClipNorm = opt.ClipNorm
	var losses []float64
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		pairs := buildPairsRef(points, opt.MaxPairsPerDesign, opt.MinQoRGap, rng)
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		if opt.BatchSize == 0 {
			for _, p := range pairs {
				adam.ZeroGrad()
				loss := tapePairLoss(m, p, opt)
				v := loss.Item()
				losses = append(losses, v)
				if v > 0 {
					loss.Backward()
					adam.Step()
				}
			}
			continue
		}
		for lo := 0; lo < len(pairs); lo += opt.BatchSize {
			var fs []func(*Model) *tensor.Tensor
			for _, p := range pairs[lo:min(lo+opt.BatchSize, len(pairs))] {
				p := p
				fs = append(fs, func(rep *Model) *tensor.Tensor { return tapePairLoss(rep, p, opt) })
			}
			step := false
			for _, v := range tapeAccumulate(t, m, fs, opt.Loss != LossDPO) {
				losses = append(losses, v)
				step = step || v != 0
			}
			if step {
				adam.Step()
			}
		}
	}
	return losses
}

func flatParams(m *Model) []float64 {
	var flat []float64
	for _, p := range m.Params() {
		flat = append(flat, p.Data...)
	}
	return flat
}

func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// tapeTerm pairs a flat engine term with the tape graph of the same loss.
type tapeTerm struct {
	name string
	term Term
	tape func(*Model) *tensor.Tensor
}

func mdpoTapeTerm(iv []float64, win, los []int, lambda, gap float64) tapeTerm {
	p := pair{insight: iv, winBits: win, losBits: los, gap: gap}
	opt := TrainOptions{Loss: LossMDPO, Lambda: lambda}
	return tapeTerm{"mdpo", pairTerm(p, opt), func(m *Model) *tensor.Tensor { return tapePairLoss(m, p, opt) }}
}

func dpoTapeTerm(iv []float64, win, los []int, beta float64) tapeTerm {
	p := pair{insight: iv, winBits: win, losBits: los, gap: 1}
	opt := TrainOptions{Loss: LossDPO, Beta: beta, Lambda: 1}
	return tapeTerm{"dpo", pairTerm(p, opt), func(m *Model) *tensor.Tensor { return tapePairLoss(m, p, opt) }}
}

func nllTapeTerm(iv []float64, bits []int) tapeTerm {
	return tapeTerm{"nll", Term{Insight: iv, Win: bits, Loss: NLLLoss},
		func(m *Model) *tensor.Tensor { return m.LogProb(iv, bits).Neg() }}
}

// ppoTapeTerm is the tuner's active PPO branch: ratio·(−adv·w).
func ppoTapeTerm(iv []float64, bits []int, old, coef float64) tapeTerm {
	return tapeTerm{"ppo", Term{Insight: iv, Win: bits, Loss: PPOLoss(old, coef)},
		func(m *Model) *tensor.Tensor { return m.LogProb(iv, bits).AddScalar(-old).Exp().Scale(coef) }}
}

// TestFlatGradMatchesTape holds the flat engine's chunk gradient arena
// bit-exact (math.Float64bits) against the tape's accumulated p.Grad for
// every loss the trainers use — MDPO, DPO, NLL, PPO — across depths, the
// reduced test dimensions, all-0 and all-1 sequences, a pair whose hinge
// is exactly 0 (which the flat path skips and the tape backpropagates as
// zeros), and multi-term chunks where gradients accumulate across terms.
// Every parameter is compared, including the cross-attention query/key
// and Norm2 gradients the flat backward leaves at zero.
func TestFlatGradMatchesTape(t *testing.T) {
	small := Config{NumRecipes: 9, EmbedDim: 16, InsightDim: DefaultConfig().InsightDim, FFHidden: 24, Seed: 3}
	deep := DefaultConfig()
	deep.EmbedDim, deep.FFHidden, deep.Layers, deep.Seed = 16, 24, 2, 5
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"layers2", deep}, {"small", small}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Move off the initialization so no gradient is trivially
			// symmetric: a few tape-independent parameter perturbations.
			prng := rand.New(rand.NewSource(tc.cfg.Seed + 100))
			for _, p := range m.Params() {
				for i := range p.Data {
					p.Data[i] += prng.NormFloat64() * 0.05
				}
			}
			rng := rand.New(rand.NewSource(tc.cfg.Seed))
			n := tc.cfg.NumRecipes
			randBits := func() []int {
				b := make([]int, n)
				for i := range b {
					b[i] = rng.Intn(2)
				}
				return b
			}
			zeros, ones := make([]int, n), make([]int, n)
			for i := range ones {
				ones[i] = 1
			}
			iv1, iv2 := randomInsight(rng), randomInsight(rng)
			a, b, c := randBits(), randBits(), randBits()
			chunks := [][]tapeTerm{
				{mdpoTapeTerm(iv1, a, b, 2, 50)},
				{mdpoTapeTerm(iv1, zeros, ones, 2, 50)},
				{mdpoTapeTerm(iv1, a, a, 2, 0)}, // hinge exactly 0
				{dpoTapeTerm(iv2, c, ones, 0.01)},
				{nllTapeTerm(iv1, c)},
				{ppoTapeTerm(iv2, b, -20, -0.3)},
				{ // a full chunk: gradients accumulate across terms
					mdpoTapeTerm(iv1, a, b, 2, 50),
					mdpoTapeTerm(iv2, b, c, 2, 40),
					mdpoTapeTerm(iv1, c, a, 2, 0.0001), // inactive unless the model prefers a
					dpoTapeTerm(iv2, a, zeros, 0.5),
					nllTapeTerm(iv2, ones),
					ppoTapeTerm(iv1, zeros, -25, 0.2),
					mdpoTapeTerm(iv2, ones, zeros, 2, 45),
					nllTapeTerm(iv1, a),
				},
			}
			for ci, chunk := range chunks {
				terms := make([]Term, len(chunk))
				for i, tt := range chunk {
					terms[i] = tt.term
				}
				// Flat: one chunk into a fresh arena.
				e := NewTrainEngine(m, 1)
				buf := nn.NewGradBuffer(m.Params())
				e.chunks = []chunkArena{{buf: buf, view: m.flatGrads(buf)}}
				e.ws = []*gradWorkspace{m.newGradWorkspace()}
				vals := make([]float64, len(terms))
				e.runChunk(e.ws[0], 0, terms, vals)
				// Tape: every term backpropagated, zero losses included.
				rep := tapeReplica(t, m)
				for i, tt := range chunk {
					loss := tt.tape(rep)
					if math.Float64bits(loss.Item()) != math.Float64bits(vals[i]) {
						t.Fatalf("chunk %d term %d (%s): loss %v, tape %v", ci, i, tt.name, vals[i], loss.Item())
					}
					loss.Backward()
				}
				nonzero := 0
				for pi, p := range rep.Params() {
					assertBitsEqual(t, "chunk gradient of param "+strconv.Itoa(pi), buf.Of(m.Params()[pi]), p.Grad)
					for _, g := range p.Grad {
						if g != 0 {
							nonzero++
						}
					}
				}
				if ci != 2 && nonzero == 0 {
					t.Fatalf("chunk %d: all-zero gradient, the case tests nothing", ci)
				}
				if ci == 2 && nonzero != 0 {
					t.Fatalf("zero-hinge chunk: %d nonzero gradient elements", nonzero)
				}
			}
		})
	}
}

// TestSeqLogProbMatchesLogProb holds the flat scoring forward bit-exact
// against the tape's LogProb, and SelectionProbs against the tape logits,
// full-length and on prefixes.
func TestSeqLogProbMatchesLogProb(t *testing.T) {
	deep := DefaultConfig()
	deep.Layers = 2
	for _, cfg := range []Config{DefaultConfig(), deep, {NumRecipes: 7, EmbedDim: 6, InsightDim: 4, FFHidden: 10, Seed: 9}} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		iv := make([]float64, cfg.InsightDim)
		for i := range iv {
			iv[i] = rng.NormFloat64()
		}
		for trial := 0; trial < 4; trial++ {
			bits := make([]int, cfg.NumRecipes)
			for i := range bits {
				bits[i] = (trial + rng.Intn(2)) % 2
			}
			got, want := m.SeqLogProb(iv, bits), m.LogProb(iv, bits).Item()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cfg %+v: SeqLogProb %v, LogProb %v", cfg, got, want)
			}
			for _, tl := range []int{1, cfg.NumRecipes / 2, cfg.NumRecipes} {
				var ref []float64
				tensor.NoGrad(func() {
					lg := m.logits(m.insightMemory(iv), bits[:tl])
					for i := 0; i < tl; i++ {
						ref = append(ref, sigmoid(lg.At(i, 0)))
					}
				})
				assertBitsEqual(t, "SelectionProbs", m.SelectionProbs(iv, bits[:tl]), ref)
			}
		}
	}
}

// TestPerPairScheduleMatchesTape pins Algorithm 1's per-pair schedule
// (BatchSize 0): one pair per Adam step on the flat engine lands on the
// parameters the tape trainer's per-pair loop produced, bit for bit, for
// both losses.
func TestPerPairScheduleMatchesTape(t *testing.T) {
	for _, loss := range []Loss{LossMDPO, LossDPO} {
		rng := rand.New(rand.NewSource(21))
		pts := syntheticPoints(rng, 4, 8)
		opt := DefaultTrainOptions()
		opt.Loss = loss
		opt.Epochs = 2
		opt.MaxPairsPerDesign = 6
		opt.Seed = 4
		flat, tape := smallModel(t, 8), smallModel(t, 8)
		st, err := flat.AlignmentTrain(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		vals := tapeAlignmentTrain(t, tape, pts, opt)
		assertBitsEqual(t, string(loss)+" params", flatParams(flat), flatParams(tape))
		sum := 0.0
		for _, v := range vals[len(vals)-st.Epochs[1].Pairs:] {
			sum += v
		}
		if got := sum / float64(st.Epochs[1].Pairs); got != st.Epochs[1].MeanLoss {
			t.Fatalf("%s: final epoch mean loss %v, tape %v", loss, st.Epochs[1].MeanLoss, got)
		}
	}
}

// TestTrainPairAllocBudget pins the steady-state allocations of one
// training step on a warm worker: the forward, backward and reduction of
// a pair run entirely in preallocated workspaces.
func TestTrainPairAllocBudget(t *testing.T) {
	m := smallModel(t, 31)
	rng := rand.New(rand.NewSource(31))
	iv := randomInsight(rng)
	bits := func() []int {
		b := make([]int, m.Cfg.NumRecipes)
		for i := range b {
			b[i] = rng.Intn(2)
		}
		return b
	}
	one := []Term{pairTerm(pair{insight: iv, winBits: bits(), losBits: bits(), gap: 50}, DefaultTrainOptions())}
	var batch []Term
	for i := 0; i < 16; i++ {
		batch = append(batch, pairTerm(pair{insight: iv, winBits: bits(), losBits: bits(), gap: 50}, DefaultTrainOptions()))
	}
	ctx := context.Background()
	serial, parallel := NewTrainEngine(m, 1), NewTrainEngine(m, 2)
	serial.Accumulate(ctx, one)
	parallel.Accumulate(ctx, batch)
	a := testing.AllocsPerRun(20, func() { serial.Accumulate(ctx, one) })
	t.Logf("one pair on one worker: %v allocs", a)
	if a > 2 {
		t.Errorf("one pair on one worker: %v allocs, want ≤ 2", a)
	}
	// Two worker goroutines and their bookkeeping, for 16 pairs.
	a = testing.AllocsPerRun(20, func() { parallel.Accumulate(ctx, batch) })
	t.Logf("16 pairs on two workers: %v allocs", a)
	if a > 12 {
		t.Errorf("16 pairs on two workers: %v allocs, want ≤ 12", a)
	}
}

// buildPairsRef is buildPairs as the tape trainer had it: every candidate
// pair materialized (bits and insight slice each) before subsampling.
func buildPairsRef(points []dataset.Point, maxPerDesign int, minGap float64, rng *rand.Rand) []pair {
	byDesign := map[string][]dataset.Point{}
	var order []string
	for _, p := range points {
		if _, ok := byDesign[p.DesignName]; !ok {
			order = append(order, p.DesignName)
		}
		byDesign[p.DesignName] = append(byDesign[p.DesignName], p)
	}
	var pairs []pair
	for _, name := range order {
		pts := byDesign[name]
		var all []pair
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				gap := pts[i].QoR - pts[j].QoR
				w, l := pts[i], pts[j]
				if gap < 0 {
					w, l, gap = pts[j], pts[i], -gap
				}
				if gap == 0 || gap < minGap {
					continue
				}
				all = append(all, pair{insight: w.Insight.Slice(), winBits: w.Set.Bits(), losBits: l.Set.Bits(), gap: gap})
			}
		}
		if maxPerDesign > 0 && len(all) > maxPerDesign {
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			all = all[:maxPerDesign]
		}
		pairs = append(pairs, all...)
	}
	return pairs
}

// TestBuildPairsMatchesReference holds buildPairs to the materialize-all
// reference: identical pairs in identical order, and an identical rng
// state afterwards, with and without subsampling, ties and gap floors.
func TestBuildPairsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := syntheticPoints(rng, 5, 20)
	for i := 0; i < len(pts); i += 7 {
		pts[i].QoR = pts[i+1].QoR // ties
	}
	for _, c := range []struct {
		max int
		gap float64
	}{{0, 0}, {12, 0.05}, {400, 0}, {3, 0.5}} {
		r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		got, want := buildPairs(pts, c.max, c.gap, r1), buildPairsRef(pts, c.max, c.gap, r2)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%+v: %d pairs, want %d", c, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.gap != w.gap || !equalInts(g.winBits, w.winBits) || !equalInts(g.losBits, w.losBits) || !sameInsight(g.insight, w.insight) {
				t.Fatalf("%+v: pair %d differs: %+v vs %+v", c, i, g, w)
			}
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("%+v: rng state diverged", c)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
