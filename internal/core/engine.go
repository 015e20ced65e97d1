package core

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"insightalign/internal/nn"
	"insightalign/internal/obs"
	"insightalign/internal/tensor"
)

// Data-parallel training engine on the flat kernels. A minibatch of loss
// terms is sharded into fixed-size chunks; a worker runs each chunk's
// teacher-forced forward and backward passes (forwardSeq, backwardSeq) in
// its preallocated workspace and accumulates straight into the chunk's
// gradient arena, an nn.GradBuffer laid out like Model.Params(). Workers
// read the master's parameter Data, which nothing writes during the
// parallel section, and write only their workspace and their chunks'
// arenas. No tape is built.
//
// Determinism contract: chunk boundaries depend only on position in the
// minibatch — never on the worker count or on scheduling — and the single
// reducer adds the chunk arenas into the master parameters in ascending
// chunk index. Within a chunk, term gradients accumulate sequentially in
// term order. Float64 addition is not associative, but this fixes the full
// association tree of the reduction, so the reduced gradient — and
// therefore the trained parameters — are bit-identical run-to-run at any
// worker count.
//
// Tape equivalence: each arena holds, bit for bit, what the tape engine's
// replica Grad buffers held for the same chunk. Within a two-sequence term
// the second sequence's backward runs before the first's, because the
// tape's Backward visits a pair loss's graph in reverse post-order: its
// walk reaches log π(R_w) first, so log π(R_l)'s subgraph runs first
// backward. The loss's scalar head runs as the term's LossFunc, with the
// tape's scalar operations.

// trainChunkSize is the number of loss terms accumulated into one arena
// before the reduction. It is a constant of the reduction (part of the
// determinism contract), not a tuning knob exposed per run: changing it
// changes the association order of gradient sums.
const trainChunkSize = 8

// LossFunc is a term's scalar loss head: given the teacher-forced
// log-likelihoods of the term's sequences (ll is 0 for a single-sequence
// term) it returns the loss value and the backward seeds ∂loss/∂lw and
// ∂loss/∂ll. It must compute them with the scalar operations the tape
// would run for the same loss graph, so that training stays bit-identical
// to the tape reference. A zero seed skips that sequence's backward pass,
// which is exact: it would add only ±0 to every gradient.
type LossFunc func(lw, ll float64) (v, gw, gl float64)

// Term is one scalar loss term of a minibatch: a loss on the log-likelihood
// of one recipe sequence, or of a (winner, loser) pair, under one insight.
type Term struct {
	Insight []float64
	Win     []int // the scored sequence; a pair's preferred set
	Los     []int // a pair's other set; nil for single-sequence terms
	Loss    LossFunc
}

// MDPOLoss is the margin-based DPO loss of Eq. 2 for one pair with margin
// λ·ΔQoR: max(0, margin − (log π(R_w) − log π(R_l))), the uniform reference
// policy's log-ratios cancelling.
func MDPOLoss(margin float64) LossFunc {
	return func(lw, ll float64) (float64, float64, float64) {
		x := margin - (lw - ll)
		gx := 0.0 // the hinge's subgradient 1{x > 0}
		if x > 0 {
			gx = 1
		}
		gd := -gx
		return math.Max(0, x), gd, -gd
	}
}

// DPOLoss is standard DPO (Eq. 1) with a uniform reference policy:
// −log σ(β·(log π(R_w) − log π(R_l))).
func DPOLoss(beta float64) LossFunc {
	return func(lw, ll float64) (float64, float64, float64) {
		x := (lw - ll) * beta
		gd := -1 * (1 - sigmoid(x)) * beta
		return logSigmoid(x) * -1, gd, -gd
	}
}

// NLLLoss is the negative log-likelihood −log π(R) of one sequence.
func NLLLoss(lp, _ float64) (float64, float64, float64) { return lp * -1, -1, 0 }

// PPOLoss is the unclipped PPO surrogate coef·π(R)/π_old(R) for one
// sequence, with the ratio exp(log π − logProbOld); callers apply the
// clipping decision before adding the term.
func PPOLoss(logProbOld, coef float64) LossFunc {
	return func(lp, _ float64) (float64, float64, float64) {
		r := math.Exp(lp + -logProbOld)
		return r * coef, coef * r, 0
	}
}

// TrainEngine owns the worker workspaces and chunk gradient arenas for one
// training run. It is not safe for concurrent use; one engine drives one
// optimization loop. The workspaces read the master's parameter Data
// slices in place, so the engine must be discarded if those slices are
// ever replaced rather than overwritten.
type TrainEngine struct {
	master  *Model
	params  []*tensor.Tensor
	workers int
	ws      []*gradWorkspace // per worker, built on first use
	chunks  []chunkArena     // grown lazily to the largest chunk count seen
	wt      []*nn.FlatLayerT // transposed layer weights of the current step
	vals    []float64
}

// chunkArena is one chunk's gradient arena and its per-parameter views.
type chunkArena struct {
	buf  *nn.GradBuffer
	view *flatModel
}

// NewTrainEngine builds an engine over m with the given worker count
// (0 or negative = runtime.NumCPU).
func NewTrainEngine(m *Model, workers int) *TrainEngine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := &TrainEngine{master: m, params: m.Params(), workers: workers}
	for _, fl := range m.flatLayers() {
		e.wt = append(e.wt, nn.NewFlatLayerT(fl))
	}
	return e
}

// Workers returns the size of the worker pool.
func (e *TrainEngine) Workers() int { return e.workers }

// Accumulate evaluates every loss term and leaves the MEAN gradient over
// all terms in the master parameters' Grad buffers (previous contents are
// discarded). It returns the per-term loss values, indexed like terms, in
// a slice the next call reuses. When ctx carries an obs trace (a training
// run's minibatch span), each chunk records a child span, so a
// train-epoch trace descends epoch -> minibatch -> worker chunk.
func (e *TrainEngine) Accumulate(ctx context.Context, terms []Term) []float64 {
	if cap(e.vals) < len(terms) {
		e.vals = make([]float64, len(terms))
	}
	vals := e.vals[:len(terms)]
	if len(terms) == 0 {
		nn.ZeroGrads(e.params)
		return vals
	}
	nChunks := (len(terms) + trainChunkSize - 1) / trainChunkSize
	for len(e.chunks) < nChunks {
		buf := nn.NewGradBuffer(e.params)
		e.chunks = append(e.chunks, chunkArena{buf: buf, view: e.master.flatGrads(buf)})
	}
	workers := min(e.workers, nChunks)
	for len(e.ws) < workers {
		e.ws = append(e.ws, e.master.newGradWorkspace())
	}
	for l, fl := range e.master.flatLayers() {
		e.wt[l].Refresh(fl)
	}

	// Only span-instrument chunks when the caller's context is already
	// traced: rooting a fresh trace per chunk would flood the trace ring.
	traced := obs.TraceIDFrom(ctx) != ""
	run := func(w, ci int) {
		var span *obs.Span
		if traced {
			_, span = obs.StartSpan(ctx, "worker_chunk")
			span.SetAttr("chunk", strconv.Itoa(ci))
			span.SetAttr("worker", strconv.Itoa(w))
		}
		e.runChunk(e.ws[w], ci, terms, vals)
		if span != nil {
			span.End()
		}
	}
	if workers == 1 {
		for ci := 0; ci < nChunks; ci++ {
			run(0, ci)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ci := int(next.Add(1) - 1); ci < nChunks; ci = int(next.Add(1) - 1) {
					run(w, ci)
				}
			}(w)
		}
		wg.Wait()
	}

	// Deterministic reduction: chunk order, then the mean scale.
	nn.ZeroGrads(e.params)
	for ci := 0; ci < nChunks; ci++ {
		e.chunks[ci].buf.AddInto(e.params)
	}
	nn.ScaleGrads(e.params, 1/float64(len(terms)))
	return vals
}

// runChunk accumulates chunk ci's terms into its zeroed arena on one
// worker's workspace.
func (e *TrainEngine) runChunk(ws *gradWorkspace, ci int, terms []Term, vals []float64) {
	m, ca := e.master, e.chunks[ci]
	ca.buf.Zero()
	hi := min((ci+1)*trainChunkSize, len(terms))
	win, los := ws.seqs[0], ws.seqs[1]
	for i := ci * trainChunkSize; i < hi; i++ {
		tm := &terms[i]
		lw, ll := m.logProbInto(win, tm.Insight, tm.Win), 0.0
		if tm.Los != nil {
			ll = m.logProbInto(los, tm.Insight, tm.Los)
		}
		v, gw, gl := tm.Loss(lw, ll)
		vals[i] = v
		if tm.Los != nil && gl != 0 {
			m.backwardSeq(ws, los, gl, ca.view, e.wt)
		}
		if gw != 0 {
			m.backwardSeq(ws, win, gw, ca.view, e.wt)
		}
	}
}
