package nn

import (
	"math"

	"insightalign/internal/tensor"
)

// Inference fast path: flattened, tape-free views of the decoder layers.
//
// A Flat* structure aliases the Data buffers of the trained parameters (no
// copies — Adam and LoadParams both mutate parameter Data in place, so a
// flattened view stays current) and drives the tensor package's flat
// kernels instead of the tape-building ops. Nothing here touches the
// autograd machinery or the NoGrad counter, so a fast-path decode may run
// concurrently with a tape-building training forward in another goroutine
// — the two paths share only read-only parameter Data.
//
// Equivalence contract: StepFlat reproduces DecoderLayer.Step's
// floating-point operations element for element (the flat kernels mirror
// each tape op's accumulation order), so fast-path decoding is bit-exact
// against the KV-cached tape path and, transitively, the naive
// full-recompute reference. TestStepFlatMatchesStep holds this.

// FlatLinear aliases a Linear's weight and bias Data.
type FlatLinear struct {
	W, B    []float64
	In, Out int
}

// FlattenLinear returns a flat view of l.
func FlattenLinear(l *Linear) FlatLinear { return flattenLinear(l, paramData) }

// paramData selects a parameter's values; gradient views select its slice
// of a GradBuffer instead (see FlattenDecoderLayerGrads).
func paramData(p *tensor.Tensor) []float64 { return p.Data }

func flattenLinear(l *Linear, data func(*tensor.Tensor) []float64) FlatLinear {
	in, out := l.W.Dims()
	return FlatLinear{W: data(l.W), B: data(l.B), In: in, Out: out}
}

// Into computes dst = x·W + B for x of shape (m, In), overwriting dst.
func (fl FlatLinear) Into(dst, x []float64, m int) {
	tensor.LinearInto(dst, x, m, fl.In, fl.W, fl.Out, fl.B)
}

// FlatNorm aliases a LayerNorm's affine parameters.
type FlatNorm struct {
	Gamma, Beta []float64
	Eps         float64
	Dim         int
}

// FlattenNorm returns a flat view of ln.
func FlattenNorm(ln *LayerNorm) FlatNorm { return flattenNorm(ln, paramData) }

func flattenNorm(ln *LayerNorm, data func(*tensor.Tensor) []float64) FlatNorm {
	_, dim := ln.Gamma.Dims()
	return FlatNorm{Gamma: data(ln.Gamma), Beta: data(ln.Beta), Eps: ln.Eps, Dim: dim}
}

// Into computes dst = LayerNorm(x)·γ + β for x of shape (m, Dim).
func (fn FlatNorm) Into(dst, x []float64, m int) {
	tensor.NormAffineInto(dst, x, m, fn.Dim, fn.Eps, fn.Gamma, fn.Beta)
}

// FlatDecoderLayer is the tape-free view of one DecoderLayer.
type FlatDecoderLayer struct {
	SelfQ, SelfK, SelfV, SelfO     FlatLinear
	CrossQ, CrossK, CrossV, CrossO FlatLinear
	Norm1, Norm2, Norm3            FlatNorm
	Dim, Hidden                    int
	FFIn, FFOut                    FlatLinear
	Scale                          float64 // 1/sqrt(Dim), shared by self and cross attention
}

// FlattenDecoderLayer builds the flat view of d. The view aliases d's
// parameter Data and stays valid across in-place parameter updates.
func FlattenDecoderLayer(d *DecoderLayer) *FlatDecoderLayer {
	return flattenDecoderLayer(d, paramData)
}

// FlattenDecoderLayerGrads returns the same view over d's slices of the
// gradient arena g instead of its parameter values: the destination of
// BackwardTrain.
func FlattenDecoderLayerGrads(d *DecoderLayer, g *GradBuffer) *FlatDecoderLayer {
	return flattenDecoderLayer(d, g.Of)
}

func flattenDecoderLayer(d *DecoderLayer, data func(*tensor.Tensor) []float64) *FlatDecoderLayer {
	return &FlatDecoderLayer{
		SelfQ:  flattenLinear(d.SelfAttn.Q, data),
		SelfK:  flattenLinear(d.SelfAttn.K, data),
		SelfV:  flattenLinear(d.SelfAttn.V, data),
		SelfO:  flattenLinear(d.SelfAttn.O, data),
		CrossQ: flattenLinear(d.CrossAttn.Q, data),
		CrossK: flattenLinear(d.CrossAttn.K, data),
		CrossV: flattenLinear(d.CrossAttn.V, data),
		CrossO: flattenLinear(d.CrossAttn.O, data),
		Norm1:  flattenNorm(d.Norm1, data),
		Norm2:  flattenNorm(d.Norm2, data),
		Norm3:  flattenNorm(d.Norm3, data),
		Dim:    d.SelfAttn.Dim,
		Hidden: d.FF.In.W.Shape()[1],
		FFIn:   flattenLinear(d.FF.In, data),
		FFOut:  flattenLinear(d.FF.Out, data),
		Scale:  1 / math.Sqrt(float64(d.SelfAttn.Dim)),
	}
}

// FlatCross is the per-session precomputed cross-attention memory
// projection of one layer: keys pre-transposed for the q·Kᵀ matmul, values
// row-major — the flat twin of CrossKV. It is computed once per decode
// session (one projection per request, not one per step) and shared
// read-only by every beam and step.
type FlatCross struct {
	KT []float64 // (Dim, S)
	V  []float64 // (S, Dim)
	S  int

	// Out is the constant-folded cross-attention block output, set only
	// when S == 1: a softmax over a single memory row is identically 1, so
	// the context equals the lone V row for every query and the whole block
	// collapses to the query-independent row V·Wo + bo. Adding Out to each
	// h row is bit-identical to running the full block (exp(0)=1, 1/1=1,
	// and 1·v accumulated from 0 reproduce V exactly), so the fold keeps
	// the equivalence contract while deleting two GEMMs and a softmax from
	// every step.
	Out []float64 // (Dim), nil unless S == 1
}

// PrecomputeCrossFlat projects the (S, Dim) memory through this layer's
// cross key/value heads, mirroring Attention.PrecomputeCross.
func (fl *FlatDecoderLayer) PrecomputeCrossFlat(memory []float64, s int) *FlatCross {
	dim := fl.Dim
	k := make([]float64, s*dim)
	fc := &FlatCross{KT: make([]float64, dim*s), V: make([]float64, s*dim), S: s}
	fl.CrossK.Into(k, memory, s)
	for r := 0; r < s; r++ {
		for c := 0; c < dim; c++ {
			fc.KT[c*s+r] = k[r*dim+c]
		}
	}
	fl.CrossV.Into(fc.V, memory, s)
	if s == 1 {
		fc.Out = make([]float64, dim)
		fl.CrossO.Into(fc.Out, fc.V, 1)
	}
	return fc
}

// FlatQKV is a per-session fused copy of a layer's self-attention Q/K/V
// projections: one (Dim, 3·Dim) weight matrix with columns [Wq|Wk|Wv] and
// the matching 3·Dim bias, so the three projections of a step run as a
// single GEMM over rows laid out [q|k|v]. Each output column accumulates
// over the same ascending-k order as its unfused twin, so the fusion is
// bit-exact. The weights are copied (not aliased), which is why the fuse
// is per session — within a decode session parameters are stable, and a
// fresh session re-fuses, so in-place training updates between sessions
// are always picked up.
type FlatQKV struct {
	W []float64 // (Dim, 3*Dim)
	B []float64 // (3*Dim)
}

// FuseQKV builds the fused Q/K/V projection copy for this layer.
func (fl *FlatDecoderLayer) FuseQKV() *FlatQKV {
	dim := fl.Dim
	f := &FlatQKV{W: make([]float64, dim*3*dim), B: make([]float64, 3*dim)}
	for r := 0; r < dim; r++ {
		o := r * 3 * dim
		copy(f.W[o:o+dim], fl.SelfQ.W[r*dim:(r+1)*dim])
		copy(f.W[o+dim:o+2*dim], fl.SelfK.W[r*dim:(r+1)*dim])
		copy(f.W[o+2*dim:o+3*dim], fl.SelfV.W[r*dim:(r+1)*dim])
	}
	copy(f.B[:dim], fl.SelfQ.B)
	copy(f.B[dim:2*dim], fl.SelfK.B)
	copy(f.B[2*dim:], fl.SelfV.B)
	return f
}

// FlatScratch holds the per-step scratch of one decode session: every
// buffer a StepFlat pass needs, preallocated once and reused across all
// steps, beams, and (via pooling) sessions.
type FlatScratch struct {
	N1     []float64 // (B, Dim) norm output, reused for all three norms
	QKV    []float64 // (B, 3*Dim) fused self q|k|v projection rows
	Q      []float64 // (B, Dim) cross query projection (general S>1 path)
	Ctx    []float64 // (B, Dim) attention context
	Proj   []float64 // (B, Dim) output projection / residual increment
	Attn   []float64 // (B, S) cross-attention weights
	FFH    []float64 // (B, Hidden) feed-forward hidden activations
	Scores []float64 // (maxLen) self-attention softmax scratch
}

// NewFlatScratch sizes scratch for up to maxB stacked sequences of a
// Dim-wide, Hidden-FF layer attending over S memory rows and up to maxLen
// cached positions.
func NewFlatScratch(maxB, dim, hidden, s, maxLen int) *FlatScratch {
	return &FlatScratch{
		N1:     make([]float64, maxB*dim),
		QKV:    make([]float64, maxB*3*dim),
		Q:      make([]float64, maxB*dim),
		Ctx:    make([]float64, maxB*dim),
		Proj:   make([]float64, maxB*dim),
		Attn:   make([]float64, maxB*s),
		FFH:    make([]float64, maxB*hidden),
		Scores: make([]float64, maxLen),
	}
}

// StepFlat advances the layer by one position for B stacked sequences,
// entirely on flat buffers: h holds the (B, Dim) input rows and is
// overwritten with the output rows; kc[b]/vc[b] are sequence b's flat
// self-attention caches (row r at [r·Dim, (r+1)·Dim)) holding tLen filled
// rows, which gain row tLen. The floating-point schedule mirrors
// DecoderLayer.Step: pre-norm self-attention with residual, cross-attention
// over the precomputed memory projection with residual, then the GELU
// feed-forward with residual.
func (fl *FlatDecoderLayer) StepFlat(h []float64, b int, qkv *FlatQKV, cross *FlatCross, kc, vc [][]float64, tLen int, sc *FlatScratch) {
	dim := fl.Dim
	bd := b * dim
	n1 := sc.N1[:bd]
	ctx := sc.Ctx[:bd]

	// h += SelfAttn(Norm1(h)) — one fused [q|k|v] projection GEMM, then
	// per-sequence causal attention against the flat KV caches.
	fl.Norm1.Into(n1, h, b)
	qr := sc.QKV[:b*3*dim]
	tensor.LinearInto(qr, n1, b, dim, qkv.W, 3*dim, qkv.B)
	for i := 0; i < b; i++ {
		r := i * 3 * dim
		tensor.CausalAttendInto(ctx[i*dim:(i+1)*dim], qr[r:r+dim], qr[r+dim:r+2*dim], qr[r+2*dim:r+3*dim],
			kc[i], vc[i], tLen, dim, fl.Scale, sc.Scores)
	}
	fl.StepFlatPost(h, b, ctx, cross, sc)
}

// StepFlatPost finishes a decoder-layer step once the self-attention
// context rows are known: output projection with residual, the
// cross-attention block, and the feed-forward block. Split out so callers
// that obtain q/k/v (and hence ctx) from precomputed tables — see
// core's single-layer token/position tables — share the identical
// floating-point tail with StepFlat.
func (fl *FlatDecoderLayer) StepFlatPost(h []float64, b int, ctx []float64, cross *FlatCross, sc *FlatScratch) {
	dim := fl.Dim
	bd := b * dim
	n1, proj := sc.N1[:bd], sc.Proj[:bd]

	fl.SelfO.Into(proj, ctx, b)
	tensor.AddInPlace(h, proj)

	// h += CrossAttn(Norm2(h)) over the precomputed memory projection.
	// With a single memory row the block output is the precomputed
	// query-independent constant cross.Out (see FlatCross); otherwise run
	// the full attention.
	if cross.Out != nil {
		for i := 0; i < b; i++ {
			tensor.AddInPlace(h[i*dim:(i+1)*dim], cross.Out)
		}
	} else {
		q := sc.Q[:bd]
		fl.Norm2.Into(n1, h, b)
		fl.CrossQ.Into(q, n1, b)
		attn := sc.Attn[:b*cross.S]
		tensor.MatMulInto(attn, q, b, dim, cross.KT, cross.S)
		tensor.ScaleInPlace(attn, fl.Scale)
		tensor.SoftmaxRowsInPlace(attn, b, cross.S)
		tensor.MatMulInto(ctx, attn, b, cross.S, cross.V, dim)
		fl.CrossO.Into(proj, ctx, b)
		tensor.AddInPlace(h, proj)
	}

	// h += FF(Norm3(h)).
	fl.Norm3.Into(n1, h, b)
	ffh := sc.FFH[:b*fl.Hidden]
	fl.FFIn.Into(ffh, n1, b)
	tensor.GELUInto(ffh, ffh)
	fl.FFOut.Into(proj, ffh, b)
	tensor.AddInPlace(h, proj)
}

// Teacher-forced training on the flat kernels.
//
// ForwardTrain runs a layer over all T positions of one sequence at once
// (the tape's DecoderLayer.Forward) and records in a FlatLayerActs every
// activation its backward reads; BackwardTrain then accumulates the
// layer's parameter gradients into a second FlatDecoderLayer whose slices
// alias a GradBuffer (FlattenDecoderLayerGrads). Both reproduce the tape's
// floating-point schedule: the forward per op as the decode kernels do, the
// backward per op as the tape's backward closures do, in the order the
// tape's Backward runs them. That order matters wherever a tensor has
// several consumers; DecoderLayer.Forward's post-order graph walk runs the
// feed-forward block first, then the cross-attention block, then self-
// attention's value branch, its key branch and its query branch, so
//
//   - the input gradient is (residual + Norm1 via keys/values) + Norm1 via
//     queries, and Norm1's γ and β gradients take the key/value copy's
//     rows before the query copy's (Norm1 runs twice in Forward);
//   - the gradient of Norm1's output on the key/value side is the value
//     projection's contribution plus the key projection's.
//
// The memory is a single row (the insight embedding), so the cross-
// attention softmax is identically 1 and its gradient into the scores is
// exactly zero: the cross query/key projections and Norm2 receive ±0
// contributions only, which leave their zeroed gradients at +0, and the
// backward skips them. TestFlatGradMatchesTape (core) holds every
// parameter gradient, those zeros included, bit-exact against the tape.

// FlatLayerActs is one layer's record of a teacher-forced forward over up
// to MaxT rows, preallocated once and reused by every pass.
type FlatLayerActs struct {
	MaxT int

	Y1, N1, Inv1  []float64 // Norm1: normalized rows (T, Dim), output (T, Dim), inverse std (T)
	Q, K, V       []float64 // (T, Dim) self-attention projections
	Attn          []float64 // (MaxT, MaxT) causal weights; the upper triangle is never written and stays zero
	Ctx           []float64 // (T, Dim) attention context
	Y3, N3, Inv3  []float64 // Norm3, as Norm1
	FFH, FFG, FFT []float64 // (T, Hidden) pre-GELU, post-GELU, and the GELU tanh terms
	CrossV        []float64 // (Dim) cross-attention value row of the memory
	CrossOut      []float64 // (Dim) folded cross-attention block output (see FlatCross.Out)
	H             []float64 // (T, Dim) layer output
	proj          []float64 // (T, Dim) projection scratch
}

// NewFlatLayerActs sizes a record for sequences of up to maxT rows.
func NewFlatLayerActs(maxT, dim, hidden int) *FlatLayerActs {
	td, th := maxT*dim, maxT*hidden
	return &FlatLayerActs{
		MaxT: maxT,
		Y1:   make([]float64, td), N1: make([]float64, td), Inv1: make([]float64, maxT),
		Q: make([]float64, td), K: make([]float64, td), V: make([]float64, td),
		Attn: make([]float64, maxT*maxT), Ctx: make([]float64, td),
		Y3: make([]float64, td), N3: make([]float64, td), Inv3: make([]float64, maxT),
		FFH: make([]float64, th), FFG: make([]float64, th), FFT: make([]float64, th),
		CrossV: make([]float64, dim), CrossOut: make([]float64, dim),
		H: make([]float64, td), proj: make([]float64, td),
	}
}

// ForwardTrain runs the layer over the t input rows x (t ≤ a.MaxT) with
// the single-row cross-attention memory, writing the output rows to a.H.
// It is bit-identical to DecoderLayer.Forward: the causal attention runs
// row by row through CausalAttendInto over the full K/V matrices, and the
// cross-attention block is the S = 1 fold.
func (fl *FlatDecoderLayer) ForwardTrain(a *FlatLayerActs, x, memory []float64, t int) {
	dim := fl.Dim
	td := t * dim
	fl.CrossV.Into(a.CrossV, memory, 1)
	fl.CrossO.Into(a.CrossOut, a.CrossV, 1)

	// h = x + SelfAttn(Norm1(x)).
	tensor.LayerNormInto(a.Y1, a.Inv1, x, t, dim, fl.Norm1.Eps)
	tensor.AffineInto(a.N1, a.Y1, t, dim, fl.Norm1.Gamma, fl.Norm1.Beta)
	fl.SelfQ.Into(a.Q, a.N1, t)
	fl.SelfK.Into(a.K, a.N1, t)
	fl.SelfV.Into(a.V, a.N1, t)
	for i := 0; i < t; i++ {
		r := i * dim
		tensor.CausalAttendInto(a.Ctx[r:r+dim], a.Q[r:r+dim], a.K[r:r+dim], a.V[r:r+dim],
			a.K, a.V, i, dim, fl.Scale, a.Attn[i*a.MaxT:(i+1)*a.MaxT])
	}
	h, proj := a.H[:td], a.proj[:td]
	fl.SelfO.Into(proj, a.Ctx, t)
	copy(h, x[:td])
	tensor.AddInPlace(h, proj)

	// h += CrossAttn(Norm2(h), memory), folded.
	for i := 0; i < t; i++ {
		tensor.AddInPlace(h[i*dim:(i+1)*dim], a.CrossOut)
	}

	// h += FF(Norm3(h)).
	tensor.LayerNormInto(a.Y3, a.Inv3, h, t, dim, fl.Norm3.Eps)
	tensor.AffineInto(a.N3, a.Y3, t, dim, fl.Norm3.Gamma, fl.Norm3.Beta)
	th := t * fl.Hidden
	fl.FFIn.Into(a.FFH[:th], a.N3, t)
	tensor.GELUTrainInto(a.FFG[:th], a.FFT[:th], a.FFH[:th])
	fl.FFOut.Into(proj, a.FFG, t)
	tensor.AddInPlace(h, proj)
}

// FlatLayerT holds the transposed weights BackwardTrain multiplies input
// gradients by (dX = dY·Wᵀ runs as a forward-schedule GEMM against Wᵀ).
// Refresh rebuilds them; weights change at every optimizer step.
type FlatLayerT struct {
	SelfQ, SelfK, SelfV, SelfO, CrossO, FFIn, FFOut []float64
}

// NewFlatLayerT allocates and fills the transposes of fl's weights.
func NewFlatLayerT(fl *FlatDecoderLayer) *FlatLayerT {
	dd, dh := fl.Dim*fl.Dim, fl.Dim*fl.Hidden
	wt := &FlatLayerT{
		SelfQ: make([]float64, dd), SelfK: make([]float64, dd), SelfV: make([]float64, dd),
		SelfO: make([]float64, dd), CrossO: make([]float64, dd),
		FFIn: make([]float64, dh), FFOut: make([]float64, dh),
	}
	wt.Refresh(fl)
	return wt
}

// Refresh re-transposes fl's current weights.
func (wt *FlatLayerT) Refresh(fl *FlatDecoderLayer) {
	for _, p := range []struct {
		dst []float64
		l   FlatLinear
	}{{wt.SelfQ, fl.SelfQ}, {wt.SelfK, fl.SelfK}, {wt.SelfV, fl.SelfV}, {wt.SelfO, fl.SelfO},
		{wt.CrossO, fl.CrossO}, {wt.FFIn, fl.FFIn}, {wt.FFOut, fl.FFOut}} {
		tensor.TransposeInto(p.dst, p.l.W, p.l.In, p.l.Out)
	}
}

// FlatGradScratch is the per-worker scratch of BackwardTrain for T rows.
type FlatGradScratch struct {
	gh2, gn, gy, gctx, gq, gk, gv, gnb, tmp, gav2, v2rows, vt []float64 // (T, Dim)
	gattn, gqk                                                []float64 // (T, T)
	gffg, gffh                                                []float64 // (T, Hidden)
	v2g                                                       []float64 // (Dim)
}

// NewFlatGradScratch sizes backward scratch for t-row sequences.
func NewFlatGradScratch(t, dim, hidden int) *FlatGradScratch {
	td := t * dim
	f := func(n int) []float64 { return make([]float64, n) }
	return &FlatGradScratch{
		gh2: f(td), gn: f(td), gy: f(td), gctx: f(td), gq: f(td), gk: f(td), gv: f(td),
		gnb: f(td), tmp: f(td), gav2: f(td), v2rows: f(td), vt: f(td),
		gattn: f(t * t), gqk: f(t * t),
		gffg: f(t * hidden), gffh: f(t * hidden),
		v2g: f(dim),
	}
}

// BackwardTrain accumulates this layer's parameter gradients into g (a
// gradient view, see FlattenDecoderLayerGrads) for the pass recorded in a
// over the full a.MaxT rows. gH is the gradient of the layer output; the
// gradient of the layer input is written to gX, and the memory row's
// gradient is added to gMem. wt must hold the transposes of the weights
// the forward ran with.
func (fl *FlatDecoderLayer) BackwardTrain(g *FlatDecoderLayer, wt *FlatLayerT, a *FlatLayerActs, memory, gH, gX, gMem []float64, sc *FlatGradScratch) {
	t, dim, hid := a.MaxT, fl.Dim, fl.Hidden
	td := t * dim

	// Feed-forward block, h3 = h2 + FFOut(GELU(FFIn(Norm3(h2)))).
	gh2 := sc.gh2[:td]
	copy(gh2, gH[:td])
	tensor.RowSumAccInto(g.FFOut.B, gH, t, dim)
	tensor.MatMulInto(sc.gffg, gH, t, dim, wt.FFOut, hid)
	tensor.MatMulTAccInto(g.FFOut.W, a.FFG, t, hid, gH, dim)
	tensor.GELUGradInto(sc.gffh, sc.gffg, a.FFH, a.FFT)
	tensor.RowSumAccInto(g.FFIn.B, sc.gffh, t, hid)
	tensor.MatMulInto(sc.gn, sc.gffh, t, hid, wt.FFIn, dim)
	tensor.MatMulTAccInto(g.FFIn.W, a.N3, t, dim, sc.gffh, hid)
	normBackward(g.Norm3, fl.Norm3, a.Y3, a.Inv3, sc.gn, gh2, sc.gy, t)

	// Cross-attention block, h2 = h1 + (1·V2)·Wo + bo per row, where the
	// attention weight is the constant 1. h1's gradient is h2's.
	tensor.RowSumAccInto(g.CrossO.B, gh2, t, dim)
	tensor.MatMulInto(sc.gav2, gh2, t, dim, wt.CrossO, dim)
	for i := 0; i < t; i++ {
		copy(sc.v2rows[i*dim:(i+1)*dim], a.CrossV)
	}
	tensor.MatMulTAccInto(g.CrossO.W, sc.v2rows, t, dim, gh2, dim)
	clear(sc.v2g)
	tensor.RowSumAccInto(sc.v2g, sc.gav2, t, dim)
	tensor.RowSumAccInto(g.CrossV.B, sc.v2g, 1, dim)
	cv := fl.CrossV.W
	for p := range gMem {
		s := 0.0
		for j, gv := range sc.v2g {
			s += gv * cv[p*dim+j]
		}
		gMem[p] += s
	}
	tensor.MatMulTAccInto(g.CrossV.W, memory, 1, dim, sc.v2g, dim)

	// Self-attention block, h1 = x + SelfO(Attend(Q, K, V)).
	copy(gX[:td], gh2)
	tensor.RowSumAccInto(g.SelfO.B, gh2, t, dim)
	tensor.MatMulInto(sc.gctx, gh2, t, dim, wt.SelfO, dim)
	tensor.MatMulTAccInto(g.SelfO.W, a.Ctx, t, dim, gh2, dim)
	// ctx = Attn·V.
	tensor.TransposeInto(sc.vt, a.V, t, dim)
	tensor.MatMulInto(sc.gattn, sc.gctx, t, dim, sc.vt, t)
	clear(sc.gv)
	tensor.MatMulTAccInto(sc.gv, a.Attn, t, t, sc.gctx, dim)
	// Value branch.
	tensor.RowSumAccInto(g.SelfV.B, sc.gv, t, dim)
	tensor.MatMulInto(sc.gnb, sc.gv, t, dim, wt.SelfV, dim)
	tensor.MatMulTAccInto(g.SelfV.W, a.N1, t, dim, sc.gv, dim)
	// Scores: causal softmax and scale, then Q·Kᵀ.
	tensor.CausalSoftmaxGradInto(sc.gqk, sc.gattn, a.Attn, t, t, fl.Scale)
	tensor.MatMulInto(sc.gq, sc.gqk, t, t, a.K, dim)
	clear(sc.gk)
	tensor.MatMulTAccInto(sc.gk, sc.gqk, t, t, a.Q, dim)
	// Key branch; then Norm1's key/value copy.
	tensor.RowSumAccInto(g.SelfK.B, sc.gk, t, dim)
	tensor.MatMulInto(sc.tmp, sc.gk, t, dim, wt.SelfK, dim)
	tensor.AddInPlace(sc.gnb, sc.tmp)
	tensor.MatMulTAccInto(g.SelfK.W, a.N1, t, dim, sc.gk, dim)
	normBackward(g.Norm1, fl.Norm1, a.Y1, a.Inv1, sc.gnb, gX, sc.gy, t)
	// Query branch; then Norm1's query copy.
	tensor.RowSumAccInto(g.SelfQ.B, sc.gq, t, dim)
	tensor.MatMulInto(sc.gn, sc.gq, t, dim, wt.SelfQ, dim)
	tensor.MatMulTAccInto(g.SelfQ.W, a.N1, t, dim, sc.gq, dim)
	normBackward(g.Norm1, fl.Norm1, a.Y1, a.Inv1, sc.gn, gX, sc.gy, t)
}

// normBackward runs LayerNorm.Forward's backward for the output gradient
// gn: β and γ gradients into g, the input gradient added to dx. gy is
// scratch.
func normBackward(g, fn FlatNorm, y, inv, gn, dx, gy []float64, t int) {
	tensor.AffineGradInto(gy, g.Gamma, g.Beta, gn, y, t, fn.Dim, fn.Gamma)
	tensor.LayerNormGradAccInto(dx, gy, y, inv, t, fn.Dim)
}
