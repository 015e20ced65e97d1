// Package core implements the InsightAlign recipe recommender of the paper:
// a decoder-only generative model (Table III) that treats the 40 recipe
// select/skip decisions as an autoregressive token sequence conditioned on
// the design insight vector, trained with margin-based direct preference
// optimization over pairwise QoR comparisons (Algorithm 1, Eq. 2) and
// queried with beam search.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"insightalign/internal/insight"
	"insightalign/internal/nn"
	"insightalign/internal/recipe"
	"insightalign/internal/tensor"
)

// Token values of the decision vocabulary.
const (
	TokenNotSelected = 0
	TokenSelected    = 1
	TokenSOS         = 2 // start-of-sequence
	vocabSize        = 3
)

// Config fixes the model architecture. The zero value is invalid; use
// DefaultConfig for the paper's dimensions.
type Config struct {
	// NumRecipes is the sequence length n (40 in the paper).
	NumRecipes int
	// EmbedDim is the token/positional/insight embedding width (32).
	EmbedDim int
	// InsightDim is the insight vector width (72).
	InsightDim int
	// FFHidden is the decoder feed-forward hidden width.
	FFHidden int
	// Layers is the decoder depth (the paper uses 1; more layers are an
	// extension for the capacity ablation). 0 means 1.
	Layers int
	// Seed initializes parameters.
	Seed int64
}

// DefaultConfig returns the Table III architecture: decision token
// embedding (40,3)→(40,32), recipe positional encoding (40,32), insight
// embedding (1,72)→(1,32), one single-head transformer decoder layer,
// per-recipe sigmoid outputs (40,1).
func DefaultConfig() Config {
	return Config{
		NumRecipes: recipe.N,
		EmbedDim:   32,
		InsightDim: insight.Dim,
		FFHidden:   64,
		Seed:       1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumRecipes < 1 {
		return fmt.Errorf("core: NumRecipes %d", c.NumRecipes)
	}
	if c.EmbedDim < 2 || c.InsightDim < 1 || c.FFHidden < 1 {
		return fmt.Errorf("core: bad dims embed=%d insight=%d ff=%d", c.EmbedDim, c.InsightDim, c.FFHidden)
	}
	if c.Layers < 0 || c.Layers > 8 {
		return fmt.Errorf("core: Layers %d out of [0,8]", c.Layers)
	}
	return nil
}

// layers returns the effective decoder depth.
func (c Config) layers() int {
	if c.Layers < 1 {
		return 1
	}
	return c.Layers
}

// Model is the InsightAlign recommender.
type Model struct {
	Cfg Config

	DecisionEmbed *nn.Embedding          // (3, 32) decision token embedding
	PosEnc        *nn.PositionalEncoding // (40, 32) recipe positional encoding
	InsightProj   *nn.Linear             // (72) → (32) insight embedding
	Decoders      []*nn.DecoderLayer     // single-head transformer decoder ×Layers (paper: ×1)
	OutProj       *nn.Linear             // (32) → (1) probabilistic layer input

	// Inference fast path: flattened weight views (built once, aliasing
	// parameter Data) and a pool of decode-session working memory, so a
	// warm beam search allocates almost nothing.
	flatOnce sync.Once
	flat     []*nn.FlatDecoderLayer
	fastPool sync.Pool // *fastSession
	seqPool  sync.Pool // *seqRecord, for SeqLogProb and SelectionProbs

	// Single-layer token/position decode tables (see l0table.go), rebuilt
	// whenever the weight snapshot they were computed from goes stale.
	l0mu  sync.Mutex
	l0tab *l0Table
}

// New creates a model with freshly initialized parameters.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg:           cfg,
		DecisionEmbed: nn.NewEmbedding(rng, vocabSize, cfg.EmbedDim),
		PosEnc:        nn.NewPositionalEncoding(cfg.NumRecipes, cfg.EmbedDim),
		InsightProj:   nn.NewLinear(rng, cfg.InsightDim, cfg.EmbedDim),
		OutProj:       nn.NewLinear(rng, cfg.EmbedDim, 1),
	}
	for i := 0; i < cfg.layers(); i++ {
		m.Decoders = append(m.Decoders, nn.NewDecoderLayer(rng, cfg.EmbedDim, cfg.FFHidden))
	}
	return m, nil
}

// Params implements nn.Module.
func (m *Model) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	ps = append(ps, m.DecisionEmbed.Params()...)
	ps = append(ps, m.PosEnc.Params()...)
	ps = append(ps, m.InsightProj.Params()...)
	for _, d := range m.Decoders {
		ps = append(ps, d.Params()...)
	}
	ps = append(ps, m.OutProj.Params()...)
	return ps
}

// insightMemory projects an insight vector into the (1, EmbedDim) cross-
// attention memory.
func (m *Model) insightMemory(iv []float64) *tensor.Tensor {
	if len(iv) != m.Cfg.InsightDim {
		panic(fmt.Sprintf("core: insight vector has %d dims, want %d", len(iv), m.Cfg.InsightDim))
	}
	x := tensor.FromSlice(append([]float64(nil), iv...), 1, m.Cfg.InsightDim)
	return m.InsightProj.Forward(x)
}

// logits runs the decoder over the first t decisions and returns the
// (t, 1) selection logits for recipes 0..t-1. Input token at position p is
// the decision for recipe p-1, shifted right with SOS; the positional
// encoding at position p identifies recipe p (the recipe being decided).
func (m *Model) logits(memory *tensor.Tensor, decisions []int) *tensor.Tensor {
	t := len(decisions)
	if t < 1 || t > m.Cfg.NumRecipes {
		panic(fmt.Sprintf("core: %d decisions out of [1,%d]", t, m.Cfg.NumRecipes))
	}
	tokens := make([]int, t)
	tokens[0] = TokenSOS
	for p := 1; p < t; p++ {
		switch decisions[p-1] {
		case 0:
			tokens[p] = TokenNotSelected
		case 1:
			tokens[p] = TokenSelected
		default:
			panic(fmt.Sprintf("core: invalid decision %d", decisions[p-1]))
		}
	}
	x := m.DecisionEmbed.Forward(tokens)
	x = m.PosEnc.Forward(x)
	h := x
	for _, d := range m.Decoders {
		h = d.Forward(h, memory)
	}
	return m.OutProj.Forward(h)
}

// LogProb returns the differentiable sequence log-likelihood of Eq. 3:
// log π_φ(R | I) = Σ_t log P(r_t | r_<t, I), evaluated with teacher
// forcing in a single decoder pass on the autodiff tape. Training and
// scoring run on the flat kernels (SeqLogProb, TrainEngine); LogProb is the
// reference they are tested against.
func (m *Model) LogProb(iv []float64, bits []int) *tensor.Tensor {
	if len(bits) != m.Cfg.NumRecipes {
		panic(fmt.Sprintf("core: %d bits, want %d", len(bits), m.Cfg.NumRecipes))
	}
	memory := m.insightMemory(iv)
	lg := m.logits(memory, bits) // (n, 1)
	// log P(r_t=1) = logσ(z_t); log P(r_t=0) = logσ(−z_t).
	signs := make([]float64, len(bits))
	for i, b := range bits {
		if b == 1 {
			signs[i] = 1
		} else {
			signs[i] = -1
		}
	}
	signT := tensor.FromSlice(signs, len(bits), 1)
	return lg.Mul(signT).LogSigmoid().Sum()
}

// StepProb returns P(r_t = 1 | r_<t, I) for the next undecided recipe,
// given the prefix of earlier decisions. It runs on the KV-cached
// incremental engine; callers stepping through many prefixes of one query
// should hold a NewDecoder session instead.
func (m *Model) StepProb(iv []float64, prefix []int) float64 {
	return m.NewDecoder(iv).StepProb(prefix)
}

// Beam search (Algorithm 1, BEAMSEARCH): maintain the K highest-scoring
// partial decision sequences, extending each with r_t ∈ {0,1} per step.

// Candidate is one beam search result.
type Candidate struct {
	Set      recipe.Set
	LogProb  float64
	Sequence []int
}

// BeamSearch returns the top-K recipe sets under the current policy for an
// unseen design insight. It runs on the KV-cached incremental engine with
// all beams batched per step; results are identical to BeamSearchNaive.
// For many designs under one policy, BeamSearchBatch fans queries across a
// worker pool; for repeated decodes of one insight, hold a NewDecoder.
func (m *Model) BeamSearch(iv []float64, k int) []Candidate {
	return m.NewDecoder(iv).BeamSearch(k)
}

// Sample draws a recipe set stochastically from the policy with temperature
// tau (1 = policy distribution, →0 = greedy). Used for online exploration.
// It runs on the KV-cached incremental engine and consumes the same rng
// stream as SampleNaive, so equal seeds draw equal sequences.
func (m *Model) Sample(iv []float64, tau float64, rng *rand.Rand) Candidate {
	return m.NewDecoder(iv).Sample(tau, rng)
}

func padBits(seq []int, n int) []int {
	if len(seq) == n {
		return seq
	}
	out := make([]int, n)
	copy(out, seq)
	return out
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func logSigmoid(x float64) float64 {
	return math.Min(x, 0) - math.Log1p(math.Exp(-math.Abs(x)))
}

// ArchitectureTable renders the Table III layer summary for the CLI.
func (m *Model) ArchitectureTable() string {
	c := m.Cfg
	return fmt.Sprintf(`Layer                  Type                    Input Size        Output Size
Decision Token Embed.  Embedding               (%d, %d)           (%d, %d)
Recipe Pos. Enc.       Positional Encoding     (%d, %d)          (%d, %d)
Insight Embed.         Linear x1               (1, %d)           (1, %d)
Transformer Dec.       Transformer Decoder x%d  (1,%d) (%d,%d)    (%d, 1)
Probabilistic          Sigmoid x%d             (%d, 1)           (%d, 1)
Parameters             %d
`,
		c.NumRecipes, vocabSize, c.NumRecipes, c.EmbedDim,
		c.NumRecipes, c.EmbedDim, c.NumRecipes, c.EmbedDim,
		c.InsightDim, c.EmbedDim,
		c.layers(), c.EmbedDim, c.NumRecipes, c.EmbedDim, c.NumRecipes,
		c.NumRecipes, c.NumRecipes, c.NumRecipes,
		nn.CountParams(m))
}

// ScoredSet couples a recipe set with its policy log-likelihood.
type ScoredSet struct {
	Set     recipe.Set
	LogProb float64
}

// RankSets scores arbitrary candidate recipe sets under the policy for a
// design insight and returns them sorted most-likely first — the "score my
// candidates" workflow when engineers bring their own recipe ideas.
func (m *Model) RankSets(iv []float64, sets []recipe.Set) []ScoredSet {
	out := make([]ScoredSet, len(sets))
	for i, s := range sets {
		bits := s.Bits()
		if m.Cfg.NumRecipes < recipe.N {
			bits = bits[:m.Cfg.NumRecipes]
		}
		out[i] = ScoredSet{Set: s, LogProb: m.SeqLogProb(iv, bits)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].LogProb > out[j].LogProb })
	return out
}
