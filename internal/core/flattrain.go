package core

import (
	"fmt"

	"insightalign/internal/nn"
	"insightalign/internal/tensor"
)

// Teacher-forced scoring and training on the flat kernels.
//
// forwardSeq is Model.LogProb (Eq. 3) as one pass over all n positions
// on preallocated buffers: the embedding rows, each decoder layer's
// nn.FlatDecoderLayer.ForwardTrain, the output projection and the
// log-sigmoid sum, recording what backwardSeq reads. backwardSeq runs the
// tape's LogProb backward for an upstream seed ∂loss/∂log π, accumulating
// every parameter gradient into a flatModel view of an nn.GradBuffer. Both
// are bit-identical to the tape (TestFlatGradMatchesTape), so scoring and
// training on them change no result of the tape engine they replace.

// flatModel is a flat view of every parameter of a Model: its parameter
// values, or its slices of a gradient arena laid out like Params().
type flatModel struct {
	emb, pos   []float64 // (vocab, dim), (n, dim)
	inW, inB   []float64 // (insightDim, dim), (dim)
	layers     []*nn.FlatDecoderLayer
	outW, outB []float64 // (dim, 1), (1)
}

// flatGrads returns the gradient view of g, which must be shaped like
// m.Params().
func (m *Model) flatGrads(g *nn.GradBuffer) *flatModel {
	fm := &flatModel{
		emb: g.Of(m.DecisionEmbed.Table), pos: g.Of(m.PosEnc.Table),
		inW: g.Of(m.InsightProj.W), inB: g.Of(m.InsightProj.B),
		outW: g.Of(m.OutProj.W), outB: g.Of(m.OutProj.B),
	}
	for _, d := range m.Decoders {
		fm.layers = append(fm.layers, nn.FlattenDecoderLayerGrads(d, g))
	}
	return fm
}

// seqRecord is one sequence's teacher-forced forward pass: its inputs and
// every activation backwardSeq reads, preallocated for n rows.
type seqRecord struct {
	iv     []float64 // insight vector of the pass (aliased)
	t      int       // rows of the pass
	tokens []int     // (n) input token per position
	sign   []float64 // (n) +1 where the recipe is selected, −1 where not
	mem    []float64 // (dim) insight memory row
	x0     []float64 // (n, dim) token + position embeddings
	layers []*nn.FlatLayerActs
	z      []float64 // (n) selection logits
}

func (m *Model) newSeqRecord() *seqRecord {
	n, dim := m.Cfg.NumRecipes, m.Cfg.EmbedDim
	r := &seqRecord{
		tokens: make([]int, n),
		sign:   make([]float64, n),
		mem:    make([]float64, dim),
		x0:     make([]float64, n*dim),
		z:      make([]float64, n),
	}
	for range m.Decoders {
		r.layers = append(r.layers, nn.NewFlatLayerActs(n, dim, m.Cfg.FFHidden))
	}
	return r
}

// forwardSeq runs the teacher-forced decoder over bits (1 ≤ len ≤ n)
// under insight iv into r and returns Σ_t log P(r_t | r_<t, I) — the
// value of LogProb for a full-length bits.
func (m *Model) forwardSeq(r *seqRecord, iv []float64, bits []int) float64 {
	t := len(bits)
	if t < 1 || t > m.Cfg.NumRecipes {
		panic(fmt.Sprintf("core: %d decisions out of [1,%d]", t, m.Cfg.NumRecipes))
	}
	if len(iv) != m.Cfg.InsightDim {
		panic(fmt.Sprintf("core: insight vector has %d dims, want %d", len(iv), m.Cfg.InsightDim))
	}
	dim := m.Cfg.EmbedDim
	r.iv, r.t = iv, t
	tensor.LinearInto(r.mem, iv, 1, m.Cfg.InsightDim, m.InsightProj.W.Data, dim, m.InsightProj.B.Data)
	emb, pos := m.DecisionEmbed.Table.Data, m.PosEnc.Table.Data
	for p := 0; p < t; p++ {
		tok := TokenSOS
		if p > 0 {
			tok = tokenOf(bits[p-1])
		}
		r.tokens[p] = tok
		row := r.x0[p*dim : (p+1)*dim]
		copy(row, emb[tok*dim:(tok+1)*dim])
		tensor.AddInPlace(row, pos[p*dim:(p+1)*dim])
		r.sign[p] = -1
		if bits[p] == 1 {
			r.sign[p] = 1
		}
	}
	h := r.x0
	for l, fl := range m.flatLayers() {
		fl.ForwardTrain(r.layers[l], h, r.mem, t)
		h = r.layers[l].H
	}
	tensor.LinearInto(r.z, h, t, dim, m.OutProj.W.Data, 1, m.OutProj.B.Data)
	s := 0.0
	for i := 0; i < t; i++ {
		s += logSigmoid(r.z[i] * r.sign[i])
	}
	return s
}

// gradWorkspace is a worker's backward scratch for n-row sequences.
type gradWorkspace struct {
	sc     *nn.FlatGradScratch
	gh, gx []float64     // (n, dim) layer output / input gradients, swapped per layer
	gmem   []float64     // (dim) insight memory gradient
	gz     []float64     // (n) logit gradients
	seqs   [2]*seqRecord // a term's first and second sequence
}

func (m *Model) newGradWorkspace() *gradWorkspace {
	n, dim := m.Cfg.NumRecipes, m.Cfg.EmbedDim
	return &gradWorkspace{
		sc:   nn.NewFlatGradScratch(n, dim, m.Cfg.FFHidden),
		gh:   make([]float64, n*dim),
		gx:   make([]float64, n*dim),
		gmem: make([]float64, dim),
		gz:   make([]float64, n),
		seqs: [2]*seqRecord{m.newSeqRecord(), m.newSeqRecord()},
	}
}

// backwardSeq accumulates into g the gradient of seed·log π for the
// full-length pass recorded in r (see logProbInto), running the tape's LogProb backward op
// by op: Sum, LogSigmoid, the ±1 Mul and the output projection, the
// decoder layers from last to first, then the embedding gathers and the
// insight projection. wt holds the transposed layer weights of the pass.
func (m *Model) backwardSeq(ws *gradWorkspace, r *seqRecord, seed float64, g *flatModel, wt []*nn.FlatLayerT) {
	n, dim := m.Cfg.NumRecipes, m.Cfg.EmbedDim
	for i := 0; i < n; i++ {
		ws.gz[i] = seed * (1 - sigmoid(r.z[i]*r.sign[i])) * r.sign[i]
	}
	flat := m.flatLayers()
	hL := r.layers[len(flat)-1].H
	tensor.RowSumAccInto(g.outB, ws.gz, n, 1)
	tensor.MatMulTAccInto(g.outW, hL, n, dim, ws.gz, 1)
	gh, gx := ws.gh, ws.gx
	outW := m.OutProj.W.Data
	for i, gv := range ws.gz {
		row := gh[i*dim : (i+1)*dim]
		for p := range row {
			row[p] = gv * outW[p]
		}
	}
	clear(ws.gmem)
	for l := len(flat) - 1; l >= 0; l-- {
		flat[l].BackwardTrain(g.layers[l], wt[l], r.layers[l], r.mem, gh, gx, ws.gmem, ws.sc)
		gh, gx = gx, gh
	}
	// gh is the gradient of x0 = emb[token] + pos: scatter it into both
	// tables.
	for p := 0; p < n; p++ {
		row := gh[p*dim : (p+1)*dim]
		tok := r.tokens[p]
		tensor.AddInPlace(g.emb[tok*dim:(tok+1)*dim], row)
		tensor.AddInPlace(g.pos[p*dim:(p+1)*dim], row)
	}
	tensor.RowSumAccInto(g.inB, ws.gmem, 1, dim)
	tensor.MatMulTAccInto(g.inW, r.iv, 1, m.Cfg.InsightDim, ws.gmem, dim)
}

// getRecord borrows a forward record from the model pool.
func (m *Model) getRecord() *seqRecord {
	if r, ok := m.seqPool.Get().(*seqRecord); ok {
		return r
	}
	return m.newSeqRecord()
}

// logProbInto is forwardSeq for a full-length sequence, the only length
// LogProb (and backwardSeq) accept.
func (m *Model) logProbInto(r *seqRecord, iv []float64, bits []int) float64 {
	if len(bits) != m.Cfg.NumRecipes {
		panic(fmt.Sprintf("core: %d bits, want %d", len(bits), m.Cfg.NumRecipes))
	}
	return m.forwardSeq(r, iv, bits)
}

// SeqLogProb returns log π(bits | iv) (Eq. 3) as a float: the value of
// LogProb(iv, bits).Item(), bit for bit, computed on the flat kernels
// without building a tape. Safe for concurrent use while the parameters
// are not being updated.
func (m *Model) SeqLogProb(iv []float64, bits []int) float64 {
	r := m.getRecord()
	defer m.seqPool.Put(r)
	return m.logProbInto(r, iv, bits)
}

// SelectionProbs returns P(r_t = 1 | teacher-forced prefix of bits) for all
// t in one pass — the marginal view used for reporting.
func (m *Model) SelectionProbs(iv []float64, bits []int) []float64 {
	r := m.getRecord()
	defer m.seqPool.Put(r)
	m.forwardSeq(r, iv, bits)
	out := make([]float64, len(bits))
	for i := range out {
		out[i] = sigmoid(r.z[i])
	}
	return out
}
