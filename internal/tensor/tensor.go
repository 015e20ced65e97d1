// Package tensor implements a small reverse-mode automatic differentiation
// engine over dense float64 tensors. It is the numerical substrate for the
// InsightAlign model: a define-by-run tape records operations as they
// execute, and Backward walks the tape in reverse topological order.
//
// The engine supports the 1-D and 2-D shapes used by a single-head
// transformer decoder (sequences are matrices of shape (T, D)); there is no
// batching dimension because InsightAlign trains on one preference pair at a
// time (Algorithm 1 of the paper).
//
// Training and decoding run on the tape-free kernels of kernels.go; the
// tape is the reference those kernels are tested against (and the engine
// of the gradient checks).
//
// # Tape isolation and concurrency
//
// There is no global tape: the "tape" is the parents/backward graph hanging
// off each op's output tensor, so it belongs to whichever goroutine built
// it. Goroutines may therefore build and Backward disjoint graphs
// concurrently under two rules. First, the graphs must not share parameter
// leaves, because Backward accumulates into leaf Grad buffers
// unsynchronized; give each goroutine replica leaves with private Grad
// buffers (the leaves may alias the same Data, treated as read-only during
// the parallel section). Second, the NoGrad switch is process-global, so a
// NoGrad block must not overlap a concurrent gradient-building forward pass
// in another goroutine — it would silently truncate that goroutine's tape.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// Tensor is a dense float64 tensor with an optional gradient buffer and a
// backward closure linking it to the tensors it was computed from.
type Tensor struct {
	Data  []float64
	Grad  []float64
	shape []int

	requiresGrad bool
	parents      []*Tensor
	backward     func()
}

// New returns a zero-filled tensor of the given shape that does not require
// gradients.
func New(shape ...int) *Tensor {
	n := numel(shape)
	return &Tensor{Data: make([]float64, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	if numel(shape) != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Param returns a zero-filled tensor of the given shape that participates in
// gradient computation (a trainable parameter leaf).
func Param(shape ...int) *Tensor {
	t := New(shape...)
	t.requiresGrad = true
	t.Grad = make([]float64, len(t.Data))
	return t
}

// Randn fills a new parameter tensor with N(0, scale²) samples drawn from rng.
func Randn(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := Param(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	return t
}

// Uniform fills a new parameter tensor with U(-scale, scale) samples.
func Uniform(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := Param(shape...)
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return t
}

// Scalar returns a 1-element tensor holding v.
func Scalar(v float64) *Tensor { return FromSlice([]float64{v}, 1) }

// Shape returns the tensor shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns (rows, cols) for a 2-D tensor, or (1, n) for a 1-D tensor.
func (t *Tensor) Dims() (rows, cols int) {
	switch len(t.shape) {
	case 1:
		return 1, t.shape[0]
	case 2:
		return t.shape[0], t.shape[1]
	default:
		panic(fmt.Sprintf("tensor: Dims on shape %v", t.shape))
	}
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// RequiresGrad reports whether the tensor participates in autodiff.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// At returns the element at row i, column j of a 2-D tensor.
func (t *Tensor) At(i, j int) float64 {
	_, c := t.Dims()
	return t.Data[i*c+j]
}

// Set assigns the element at row i, column j of a 2-D tensor.
func (t *Tensor) Set(i, j int, v float64) {
	_, c := t.Dims()
	t.Data[i*c+j] = v
}

// Item returns the single element of a scalar tensor.
func (t *Tensor) Item() float64 {
	if len(t.Data) != 1 {
		panic(fmt.Sprintf("tensor: Item on shape %v", t.shape))
	}
	return t.Data[0]
}

// Clone returns a deep copy that is detached from the tape.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Detach returns a view of the same data detached from the tape.
func (t *Tensor) Detach() *Tensor {
	return &Tensor{Data: t.Data, shape: t.shape}
}

// RowView returns row i of a 2-D tensor as a (1, cols) view sharing the
// backing array, detached from the tape. Used by the incremental decoder to
// address per-sequence rows of a batched step without copying.
func (t *Tensor) RowView(i int) *Tensor {
	m, c := t.Dims()
	if i < 0 || i >= m {
		panic(fmt.Sprintf("tensor: RowView %d out of range [0,%d)", i, m))
	}
	return &Tensor{Data: t.Data[i*c : (i+1)*c], shape: []int{1, c}}
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// ensureGrad allocates the gradient buffer if missing.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// gradDisabled counts the NoGrad blocks currently executing; tape recording
// is suppressed while it is positive.
var gradDisabled atomic.Int64

// NoGrad runs f with tape recording disabled: operations executed inside
// compute forward values only, allocating no gradient buffers or backward
// closures. Intended for inference (beam search, sampling). The disable
// state is a counter, so NoGrad blocks may nest and may run concurrently
// with each other (parallel multi-design inference); they must not run
// concurrently with training in another goroutine.
func NoGrad(f func()) {
	gradDisabled.Add(1)
	defer gradDisabled.Add(-1)
	f()
}

// newResult constructs an op output whose requiresGrad follows its parents.
func newResult(shape []int, parents ...*Tensor) *Tensor {
	out := New(shape...)
	if gradDisabled.Load() > 0 {
		return out
	}
	for _, p := range parents {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad {
		out.Grad = make([]float64, len(out.Data))
		out.parents = parents
	}
	return out
}

// Backward runs reverse-mode differentiation from a scalar tensor, seeding
// its gradient with 1 and accumulating gradients into every reachable
// parameter leaf.
func (t *Tensor) Backward() {
	if len(t.Data) != 1 {
		panic("tensor: Backward requires a scalar output")
	}
	if !t.requiresGrad {
		return
	}
	order := topoSort(t)
	t.ensureGrad()
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
}

func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	visited := map[*Tensor]bool{}
	var visit func(*Tensor)
	visit = func(n *Tensor) {
		if visited[n] || !n.requiresGrad {
			return
		}
		visited[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	return order
}

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

func sameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		ar, ac := a.Dims()
		br, bc := b.Dims()
		return ar == br && ac == bc
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// L2Norm returns the Euclidean norm of the data.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// GradL2Norm returns the Euclidean norm of the gradient (0 if absent).
func (t *Tensor) GradL2Norm() float64 {
	s := 0.0
	for _, v := range t.Grad {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	if len(t.Data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%g %g %g ...]", t.shape, t.Data[0], t.Data[1], t.Data[2])
}
