package nn

import (
	"testing"

	"insightalign/internal/tensor"
)

func gradParams() []*tensor.Tensor {
	a := tensor.Param(3)
	copy(a.Data, []float64{1, 2, 3})
	b := tensor.Param(2)
	copy(b.Data, []float64{4, 5})
	return []*tensor.Tensor{a, b}
}

func TestZeroAndScaleGrads(t *testing.T) {
	ps := gradParams()
	ps[0].Grad = []float64{1, -2, 3}
	ps[1].Grad = []float64{0.5, 4}
	ScaleGrads(ps, 0.5)
	if ps[0].Grad[1] != -1 || ps[1].Grad[1] != 2 {
		t.Fatalf("ScaleGrads: got %v %v", ps[0].Grad, ps[1].Grad)
	}
	ZeroGrads(ps)
	for i, p := range ps {
		for j, g := range p.Grad {
			if g != 0 {
				t.Fatalf("param %d grad[%d] = %v after ZeroGrads", i, j, g)
			}
		}
	}
}

func TestGradBufferAddRoundTrip(t *testing.T) {
	ps := gradParams()
	g := NewGradBuffer(ps)
	copy(g.Of(ps[0]), []float64{1, 2, 3})
	copy(g.Of(ps[1]), []float64{-1, 10})

	ZeroGrads(ps)
	g.AddInto(ps)
	g.AddInto(ps)
	want0 := []float64{2, 4, 6}
	for i, w := range want0 {
		if ps[0].Grad[i] != w {
			t.Fatalf("after two AddInto: grad %v, want %v", ps[0].Grad, want0)
		}
	}
	if ps[1].Grad[0] != -2 || ps[1].Grad[1] != 20 {
		t.Fatalf("param 1 grad = %v, want [−2 20]", ps[1].Grad)
	}
	g.Zero()
	ZeroGrads(ps)
	g.AddInto(ps)
	if ps[0].Grad[2] != 0 || ps[1].Grad[1] != 0 {
		t.Fatalf("zeroed arena contributed: %v %v", ps[0].Grad, ps[1].Grad)
	}
}

// TestGradBufferViewsFollowParamOrder pins the arena layout: parameter
// i's view is the next Numel elements of Data, in parameter order, and a
// foreign tensor has no view.
func TestGradBufferViewsFollowParamOrder(t *testing.T) {
	ps := gradParams()
	g := NewGradBuffer(ps)
	if len(g.Data) != 5 {
		t.Fatalf("arena length %d, want 5", len(g.Data))
	}
	g.Of(ps[0])[2] = 7
	g.Of(ps[1])[0] = 8
	if g.Data[2] != 7 || g.Data[3] != 8 {
		t.Fatalf("views do not alias Data in parameter order: %v", g.Data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Of on a foreign tensor did not panic")
		}
	}()
	g.Of(tensor.Param(2))
}

func TestGradBufferShapeMismatchPanics(t *testing.T) {
	ps := gradParams()
	g := NewGradBuffer(ps)
	defer func() {
		if recover() == nil {
			t.Fatal("AddInto with mismatched param list did not panic")
		}
	}()
	g.AddInto(ps[:1])
}
