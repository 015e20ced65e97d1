package nn

import (
	"fmt"

	"insightalign/internal/tensor"
)

// Gradient accumulation helpers for the data-parallel training engine:
// workers accumulate each chunk's gradient into a private GradBuffer, and
// a single reducer adds the buffers into the master parameters in a fixed
// order so the reduced gradient is bit-identical at any worker count.

// ZeroGrads clears the gradient buffer of every parameter.
func ZeroGrads(ps []*tensor.Tensor) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// ScaleGrads multiplies every parameter gradient by s (e.g. 1/batchSize to
// turn a summed minibatch gradient into a mean).
func ScaleGrads(ps []*tensor.Tensor, s float64) {
	for _, p := range ps {
		for i := range p.Grad {
			p.Grad[i] *= s
		}
	}
}

// GradBuffer is a gradient arena laid out like one parameter list: a
// single contiguous Data slice holding each parameter's gradient in
// parameter order. Flat backward kernels accumulate straight into it
// through per-parameter views (Of), so one minibatch chunk's gradient
// needs no per-tensor buffers and no copy. Buffers are reused across
// minibatches.
type GradBuffer struct {
	Data  []float64
	views [][]float64
	index map[*tensor.Tensor]int
}

// NewGradBuffer allocates a zeroed arena shaped like ps.
func NewGradBuffer(ps []*tensor.Tensor) *GradBuffer {
	n := 0
	for _, p := range ps {
		n += p.Numel()
	}
	g := &GradBuffer{
		Data:  make([]float64, n),
		views: make([][]float64, len(ps)),
		index: make(map[*tensor.Tensor]int, len(ps)),
	}
	off := 0
	for i, p := range ps {
		g.views[i] = g.Data[off : off+p.Numel() : off+p.Numel()]
		g.index[p] = i
		off += p.Numel()
	}
	return g
}

// Of returns the arena slice holding p's gradient. It panics if p is not
// one of the parameters the buffer was built for.
func (g *GradBuffer) Of(p *tensor.Tensor) []float64 {
	i, ok := g.index[p]
	if !ok {
		panic("nn: GradBuffer.Of: tensor is not a parameter of this buffer")
	}
	return g.views[i]
}

// Zero clears the arena.
func (g *GradBuffer) Zero() {
	clear(g.Data)
}

// AddInto accumulates the buffer into the gradients of ps. The caller
// controls reduction order by the sequence of AddInto calls.
func (g *GradBuffer) AddInto(ps []*tensor.Tensor) {
	if len(ps) != len(g.views) {
		panic(fmt.Sprintf("nn: GradBuffer.AddInto %d params, want %d", len(ps), len(g.views)))
	}
	for i, p := range ps {
		grad := p.Grad
		for j, v := range g.views[i] {
			grad[j] += v
		}
	}
}
