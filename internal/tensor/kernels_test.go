package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestKernelsMatchTapeOps holds every flat inference kernel bit-exact
// against the tape op it mirrors — the foundation of the fast-path
// equivalence contract (see kernels.go). All comparisons are on raw
// float64 bits, not tolerances.

func bitEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func assertBitEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if !bitEq(got[i], want[i]) {
			t.Fatalf("%s: element %d = %x, want %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// randData fills a slice with a mix of regular values and exact zeros so
// the zero-skip branches are exercised.
func randData(rng *rand.Rand, n int, zeroEvery int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if zeroEvery > 0 && rng.Intn(zeroEvery) == 0 {
			continue
		}
		out[i] = rng.NormFloat64()
	}
	return out
}

func tensorOf(data []float64, rows, cols int) *Tensor {
	tt := New(rows, cols)
	copy(tt.Data, data)
	return tt
}

func TestKernelsMatchTapeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	t.Run("MatMulInto", func(t *testing.T) {
		for _, sh := range [][3]int{{1, 32, 96}, {5, 32, 32}, {5, 64, 32}, {3, 7, 5}, {5, 32, 1}, {2, 5, 1}} {
			m, k, n := sh[0], sh[1], sh[2]
			a := randData(rng, m*k, 6) // frequent zeros: exercises the axpy1 fallback
			b := randData(rng, k*n, 0)
			want := tensorOf(a, m, k).MatMul(tensorOf(b, k, n))
			got := make([]float64, m*n)
			MatMulInto(got, a, m, k, b, n)
			assertBitEqual(t, "MatMulInto", got, want.Data)
		}
	})

	t.Run("LinearInto", func(t *testing.T) {
		m, k, n := 5, 16, 24
		x, w, bias := randData(rng, m*k, 8), randData(rng, k*n, 0), randData(rng, n, 0)
		want := tensorOf(x, m, k).MatMul(tensorOf(w, k, n)).AddRow(tensorOf(bias, 1, n))
		got := make([]float64, m*n)
		LinearInto(got, x, m, k, w, n, bias)
		assertBitEqual(t, "LinearInto", got, want.Data)
	})

	t.Run("NormAffineInto", func(t *testing.T) {
		m, n := 5, 32
		const eps = 1e-5
		x, gamma, beta := randData(rng, m*n, 0), randData(rng, n, 0), randData(rng, n, 0)
		want := tensorOf(x, m, n).LayerNorm(eps).MulRow(tensorOf(gamma, 1, n)).AddRow(tensorOf(beta, 1, n))
		got := make([]float64, m*n)
		NormAffineInto(got, x, m, n, eps, gamma, beta)
		assertBitEqual(t, "NormAffineInto", got, want.Data)
	})

	t.Run("GELUInto", func(t *testing.T) {
		x := randData(rng, 129, 10)
		want := tensorOf(x, 1, len(x)).GELU()
		got := make([]float64, len(x))
		GELUInto(got, x)
		assertBitEqual(t, "GELUInto", got, want.Data)
	})

	t.Run("SoftmaxRowsInPlace", func(t *testing.T) {
		m, n := 4, 9
		x := randData(rng, m*n, 0)
		want := tensorOf(x, m, n).SoftmaxRows(nil)
		got := append([]float64(nil), x...)
		SoftmaxRowsInPlace(got, m, n)
		assertBitEqual(t, "SoftmaxRowsInPlace", got, want.Data)
	})

	t.Run("AddScale", func(t *testing.T) {
		x, y := randData(rng, 65, 0), randData(rng, 65, 0)
		wantAdd := tensorOf(x, 1, len(x)).Add(tensorOf(y, 1, len(y)))
		gotAdd := append([]float64(nil), x...)
		AddInPlace(gotAdd, y)
		assertBitEqual(t, "AddInPlace", gotAdd, wantAdd.Data)

		wantScale := tensorOf(x, 1, len(x)).Scale(0.1767766952966369)
		gotScale := append([]float64(nil), x...)
		ScaleInPlace(gotScale, 0.1767766952966369)
		assertBitEqual(t, "ScaleInPlace", gotScale, wantScale.Data)
	})

	// CausalAttendInto against a literal transcription of StepSelf's
	// per-sequence inner loop (cache append, zero-skip score dots, fused
	// max, exp/sum softmax, w==0-skip value accumulation).
	t.Run("CausalAttendInto", func(t *testing.T) {
		dim, maxLen := 16, 12
		scale := 1 / math.Sqrt(float64(dim))
		kc := make([]float64, maxLen*dim)
		vc := make([]float64, maxLen*dim)
		refK := make([]float64, 0, maxLen*dim)
		refV := make([]float64, 0, maxLen*dim)
		scores := make([]float64, maxLen)
		for tLen := 0; tLen < maxLen; tLen++ {
			q := randData(rng, dim, 5)
			krow := randData(rng, dim, 0)
			vrow := randData(rng, dim, 0)

			refK = append(refK, krow...)
			refV = append(refV, vrow...)
			n := tLen + 1
			ss := make([]float64, n)
			maxv := math.Inf(-1)
			for j := 0; j < n; j++ {
				s := 0.0
				for p, qv := range q {
					if qv == 0 {
						continue
					}
					s += qv * refK[j*dim+p]
				}
				s *= scale
				ss[j] = s
				if s > maxv {
					maxv = s
				}
			}
			sum := 0.0
			for j, s := range ss {
				e := math.Exp(s - maxv)
				ss[j] = e
				sum += e
			}
			want := make([]float64, dim)
			for j, e := range ss {
				w := e / sum
				if w == 0 {
					continue
				}
				for p := 0; p < dim; p++ {
					want[p] += w * refV[j*dim+p]
				}
			}

			got := make([]float64, dim)
			CausalAttendInto(got, q, krow, vrow, kc, vc, tLen, dim, scale, scores)
			assertBitEqual(t, "CausalAttendInto", got, want)
			assertBitEqual(t, "kcache", kc[:n*dim], refK)
			assertBitEqual(t, "vcache", vc[:n*dim], refV)
		}
	})

	t.Run("DotSkip", func(t *testing.T) {
		q := randData(rng, 33, 4)
		k := randData(rng, 33, 0)
		want := 0.0
		for p, qv := range q {
			if qv == 0 {
				continue
			}
			want += qv * k[p]
		}
		if got := DotSkip(q, k); !bitEq(got, want) {
			t.Fatalf("DotSkip = %x, want %x", math.Float64bits(got), math.Float64bits(want))
		}
	})
}

// TestAxpyKernelsMatchScalar pins the SIMD axpy/add kernels (asm on amd64)
// to the scalar reference schedule across lengths that exercise every
// vector-width tail path.
func TestAxpyKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 96} {
		dst0 := randData(rng, n, 0)
		src := randData(rng, n, 0)
		a := rng.NormFloat64()

		got := append([]float64(nil), dst0...)
		axpy1(got, src, a)
		want := append([]float64(nil), dst0...)
		for j := 0; j < n; j++ {
			want[j] += a * src[j]
		}
		assertBitEqual(t, "axpy1", got, want)

		got = append([]float64(nil), dst0...)
		addTo(got, src)
		want = append([]float64(nil), dst0...)
		for j := 0; j < n; j++ {
			want[j] += src[j]
		}
		assertBitEqual(t, "addTo", got, want)

		stride := n + 3
		rows := randData(rng, 3*stride+n+1, 0)
		as := randData(rng, 4, 0)
		got = append([]float64(nil), dst0...)
		axpy4(got, rows, stride, as)
		want = append([]float64(nil), dst0...)
		for j := 0; j < n; j++ {
			o := want[j]
			o += as[0] * rows[j]
			o += as[1] * rows[stride+j]
			o += as[2] * rows[2*stride+j]
			o += as[3] * rows[3*stride+j]
			want[j] = o
		}
		assertBitEqual(t, "axpy4", got, want)
	}
}

// paramOf returns a gradient-tracking tensor holding a copy of data.
func paramOf(data []float64, rows, cols int) *Tensor {
	p := Param(rows, cols)
	copy(p.Data, data)
	return p
}

// seedBackward backpropagates Σ out⊙g, which seeds out.Grad with exactly
// g (Sum's seed 1, then Mul's 0 + 1·g).
func seedBackward(out *Tensor, g []float64) {
	r, c := out.Dims()
	out.Mul(tensorOf(g, r, c)).Sum().Backward()
}

// TestGradKernelsMatchTapeBackward holds the gradient kernels bit-exact
// against the backward closures of the tape ops they mirror, given the
// same upstream gradient.
func TestGradKernelsMatchTapeBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	t.Run("MatMul", func(t *testing.T) {
		for _, sh := range [][3]int{{5, 32, 32}, {9, 16, 24}, {7, 5, 1}, {40, 3, 2}} {
			m, k, n := sh[0], sh[1], sh[2]
			a, b, g := randData(rng, m*k, 6), randData(rng, k*n, 0), randData(rng, m*n, 5)
			pa, pb := paramOf(a, m, k), paramOf(b, k, n)
			seedBackward(pa.MatMul(pb), g)

			// dA = dC·Bᵀ as a forward-schedule GEMM against Bᵀ.
			bt := make([]float64, n*k)
			TransposeInto(bt, b, k, n)
			da := make([]float64, m*k)
			MatMulAccInto(da, g, m, n, bt, k)
			assertBitEqual(t, "dA", da, pa.Grad)
			// dB = Aᵀ·dC.
			db := make([]float64, k*n)
			MatMulTAccInto(db, a, m, k, g, n)
			assertBitEqual(t, "dB", db, pb.Grad)
		}
	})

	t.Run("NormAffine", func(t *testing.T) {
		m, n := 6, 16
		const eps = 1e-5
		x, gamma, beta, g := randData(rng, m*n, 0), randData(rng, n, 0), randData(rng, n, 0), randData(rng, m*n, 7)
		px, pg, pb := paramOf(x, m, n), paramOf(gamma, 1, n), paramOf(beta, 1, n)
		out := px.LayerNorm(eps).MulRow(pg).AddRow(pb)
		seedBackward(out, g)

		y, inv, fwd := make([]float64, m*n), make([]float64, m), make([]float64, m*n)
		LayerNormInto(y, inv, x, m, n, eps)
		AffineInto(fwd, y, m, n, gamma, beta)
		assertBitEqual(t, "forward", fwd, out.Data)
		gy, dg, dbeta, dx := make([]float64, m*n), make([]float64, n), make([]float64, n), make([]float64, m*n)
		AffineGradInto(gy, dg, dbeta, g, y, m, n, gamma)
		LayerNormGradAccInto(dx, gy, y, inv, m, n)
		assertBitEqual(t, "dGamma", dg, pg.Grad)
		assertBitEqual(t, "dBeta", dbeta, pb.Grad)
		assertBitEqual(t, "dX", dx, px.Grad)
	})

	t.Run("GELU", func(t *testing.T) {
		x, g := randData(rng, 77, 9), randData(rng, 77, 6)
		px := paramOf(x, 1, len(x))
		out := px.GELU()
		seedBackward(out, g)
		y, th, dx := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
		GELUTrainInto(y, th, x)
		GELUGradInto(dx, g, x, th)
		assertBitEqual(t, "forward", y, out.Data)
		assertBitEqual(t, "dX", dx, px.Grad)
	})

	t.Run("CausalSoftmax", func(t *testing.T) {
		n := 11
		scale := 1 / math.Sqrt(16)
		mask := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				mask[i*n+j] = math.Inf(-1)
			}
		}
		x, g := randData(rng, n*n, 0), randData(rng, n*n, 6)
		px := paramOf(x, n, n)
		w := px.Scale(scale).SoftmaxRows(mask)
		seedBackward(w, g)
		dst := make([]float64, n*n)
		CausalSoftmaxGradInto(dst, g, w.Data, n, n, scale)
		assertBitEqual(t, "dScores", dst, px.Grad)
	})

	t.Run("RowSum", func(t *testing.T) {
		m, n := 7, 10
		a, v, g := randData(rng, m*n, 0), randData(rng, n, 0), randData(rng, m*n, 4)
		pv := paramOf(v, 1, n)
		seedBackward(tensorOf(a, m, n).AddRow(pv), g)
		dv := make([]float64, n)
		RowSumAccInto(dv, g, m, n)
		assertBitEqual(t, "dV", dv, pv.Grad)
	})
}
