package tensor

import "math"

// Tape-free flat kernels for decoding and training.
//
// These operate directly on raw []float64 buffers with explicit shapes —
// no *Tensor wrappers, no parents slices, no backward closures, and no
// dependence on the process-global NoGrad counter. They exist so a decode
// session, and a teacher-forced training pass with its backward, can run
// entirely on preallocated contiguous memory (one Data-plus-shape layout,
// the Tensor-Go style). The tape-based ops remain as the reference the
// kernels are tested against.
//
// Equivalence contract: every kernel reproduces the floating-point
// operations of its tape counterpart element for element — the same
// accumulation order, the same zero-skips, and the same intermediate
// rounding points (separate passes where the tape path ran separate ops).
// TestKernelsMatchTapeOps holds each kernel bit-exact against the op it
// mirrors, and the core decoding equivalence suite rests on this.
//
// The gradient kernels (the *GradInto and *AccInto family) mirror the
// backward closures of the tape ops. One relaxation is exact for finite
// values and is used freely: a product with a zero factor is ±0, and
// adding ±0 to an accumulator that started at +0 never changes it (a sum
// of reals becomes −0 only when both addends are −0), so zero-skips may be
// taken on either factor. What must match is the per-element order in
// which nonzero contributions are added.

// MatMulInto computes dst = a·b for a of shape (m, k) and b of shape
// (k, n), overwriting dst (length m·n). It mirrors Tensor.MatMul: per
// output element the products accumulate in ascending-p order with zero
// a-elements skipped, so the result is bit-identical to the tape op. The
// k dimension runs four rows of b at a time through the axpy4 kernel
// (SIMD on amd64 — lanes are independent output elements, and the four
// row adds stay in ascending order per element, so the rounding schedule
// is unchanged); any zero among the four falls back to per-row axpy1
// calls that preserve the skip.
func MatMulInto(dst, a []float64, m, k int, b []float64, n int) {
	dst = dst[:m*n]
	if n == 1 {
		// Column vector: per output element the ikj accumulation is exactly
		// the ascending, zero-skipping dot product.
		for i := 0; i < m; i++ {
			dst[i] = DotSkip(a[i*k:(i+1)*k], b[:k])
		}
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	MatMulAccInto(dst, a, m, k, b, n)
}

// MatMulAccInto accumulates dst += a·b with MatMulInto's per-element
// schedule (ascending p, zero a-elements skipped). Into a zeroed dst it is
// MatMulInto; it is also the schedule of Tensor.MatMul's input gradient
// dA = dC·Bᵀ when b holds Bᵀ, since that backward dot runs in ascending
// order from zero.
func MatMulAccInto(dst, a []float64, m, k int, b []float64, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for q := p; q < p+4; q++ {
					if av := arow[q]; av != 0 {
						axpy1(orow, b[q*n:q*n+n], av)
					}
				}
				continue
			}
			axpy4(orow, b[p*n:], n, arow[p:p+4])
		}
		for ; p < k; p++ {
			if av := arow[p]; av != 0 {
				axpy1(orow, b[p*n:p*n+n], av)
			}
		}
	}
}

// DotSkip returns the q·k dot product accumulated in ascending index
// order with the q==0 skip — exactly the score dot of CausalAttendInto
// (and Attention.StepSelf). Exported so precomputed score tables can be
// built from the identical floating-point schedule.
func DotSkip(q, k []float64) float64 {
	s := 0.0
	for p, qv := range q {
		if qv == 0 {
			continue
		}
		s += qv * k[p]
	}
	return s
}

// Axpy accumulates dst[i] += a*src[i], one rounded multiply and one
// rounded add per element — the row primitive of the attention value
// accumulation, exported for table-driven attention gathers.
func Axpy(dst, src []float64, a float64) { axpy1(dst, src, a) }

// AddBiasInto adds the row vector bias (length n) to every row of the
// (m, n) matrix dst in place, mirroring Tensor.AddRow.
func AddBiasInto(dst []float64, m, n int, bias []float64) {
	for i := 0; i < m; i++ {
		addTo(dst[i*n:(i+1)*n], bias)
	}
}

// LinearInto computes dst = x·w + bias for x of shape (m, k) and w of
// shape (k, n) — the flat form of nn.Linear.Forward (MatMul then AddRow).
func LinearInto(dst, x []float64, m, k int, w []float64, n int, bias []float64) {
	MatMulInto(dst, x, m, k, w, n)
	AddBiasInto(dst, m, n, bias)
}

// NormAffineInto computes dst = LayerNorm(x)·γ + β row-wise for x of shape
// (m, n), mirroring nn.LayerNorm.Forward: the normalization pass of
// Tensor.LayerNorm followed by separate MulRow and AddRow passes, so every
// intermediate rounds exactly where the tape path rounded.
func NormAffineInto(dst, x []float64, m, n int, eps float64, gamma, beta []float64) {
	LayerNormInto(dst, nil, x, m, n, eps)
	AffineInto(dst, dst, m, n, gamma, beta)
}

// GELUInto applies the tanh-approximated GELU of Tensor.GELU elementwise,
// writing f(x[i]) into dst[i]. dst may alias x.
func GELUInto(dst, x []float64) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		dst[i] = 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
	}
}

// AddInPlace accumulates dst[i] += src[i] — the flat residual connection,
// mirroring Tensor.Add's per-element single rounding.
func AddInPlace(dst, src []float64) {
	addTo(dst, src)
}

// ScaleInPlace multiplies every element by s, mirroring Tensor.Scale.
func ScaleInPlace(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// SoftmaxRowsInPlace applies the numerically stable row softmax of
// Tensor.SoftmaxRows (mask-free form) to the (m, n) matrix dst in place.
func SoftmaxRowsInPlace(dst []float64, m, n int) {
	for i := 0; i < m; i++ {
		row := dst[i*n : (i+1)*n]
		maxv := math.Inf(-1)
		for _, x := range row {
			if x > maxv {
				maxv = x
			}
		}
		sum := 0.0
		for j, x := range row {
			e := math.Exp(x - maxv)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// CausalAttendInto runs one causal self-attention step for a single
// sequence against its flat KV cache: q, krow and vrow are the (already
// projected) query/key/value rows of the new position, kcache and vcache
// hold the tLen previous rows contiguously (row r at [r*dim, (r+1)*dim)).
// The new key/value rows are appended at row tLen, the query attends over
// the tLen+1 filled rows, and the context vector is written to ctx. It
// mirrors Attention.StepSelf's inner loop exactly: the q·Kᵀ zero-skip dot
// product, the fused max tracking, the exp/sum softmax, and the w==0 skip
// in the value accumulation. scores is scratch of length ≥ tLen+1.
func CausalAttendInto(ctx, q, krow, vrow, kcache, vcache []float64, tLen, dim int, scale float64, scores []float64) {
	copy(kcache[tLen*dim:(tLen+1)*dim], krow)
	copy(vcache[tLen*dim:(tLen+1)*dim], vrow)
	tLen++
	scores = scores[:tLen]
	// Score dots. Each dot's accumulation chain is strictly sequential
	// (p-ascending with the zero-skip, matching StepSelf), so it cannot be
	// vectorized without changing the rounding — instead four independent
	// chains run interleaved for instruction-level parallelism. The max is
	// exact, so tracking it outside the original loop shape is safe.
	maxv := math.Inf(-1)
	j := 0
	for ; j+4 <= tLen; j += 4 {
		k0 := kcache[j*dim : (j+1)*dim]
		k1 := kcache[(j+1)*dim : (j+2)*dim]
		k2 := kcache[(j+2)*dim : (j+3)*dim]
		k3 := kcache[(j+3)*dim : (j+4)*dim]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for p, qv := range q {
			if qv == 0 {
				continue
			}
			s0 += qv * k0[p]
			s1 += qv * k1[p]
			s2 += qv * k2[p]
			s3 += qv * k3[p]
		}
		scores[j] = s0 * scale
		scores[j+1] = s1 * scale
		scores[j+2] = s2 * scale
		scores[j+3] = s3 * scale
	}
	for ; j < tLen; j++ {
		kr := kcache[j*dim : (j+1)*dim]
		s := 0.0
		for p, qv := range q {
			if qv == 0 {
				continue
			}
			s += qv * kr[p]
		}
		scores[j] = s * scale
	}
	for _, s := range scores {
		if s > maxv {
			maxv = s
		}
	}
	sum := 0.0
	for j, s := range scores {
		e := math.Exp(s - maxv)
		scores[j] = e
		sum += e
	}
	for i := range ctx {
		ctx[i] = 0
	}
	// Weighted value sum: per output element the adds run in ascending-j
	// order with the w==0 skip, exactly as StepSelf — four cache rows per
	// axpy4 pass. Normalizing the weights in place first performs the same
	// single division per weight as the reference's inline e/sum.
	for j := range scores {
		scores[j] /= sum
	}
	j = 0
	for ; j+4 <= tLen; j += 4 {
		w0, w1, w2, w3 := scores[j], scores[j+1], scores[j+2], scores[j+3]
		if w0 == 0 || w1 == 0 || w2 == 0 || w3 == 0 {
			for q := j; q < j+4; q++ {
				if w := scores[q]; w != 0 {
					axpy1(ctx, vcache[q*dim:(q+1)*dim], w)
				}
			}
			continue
		}
		axpy4(ctx, vcache[j*dim:], dim, scores[j:j+4])
	}
	for ; j < tLen; j++ {
		if w := scores[j]; w != 0 {
			axpy1(ctx, vcache[j*dim:(j+1)*dim], w)
		}
	}
}

// MatMulTAccInto accumulates dst += aᵀ·b for a of shape (m, k) and b of
// shape (m, n), dst of shape (k, n): the weight-gradient schedule of
// Tensor.MatMul's backward (dB = Aᵀ·dC). Per output element the products
// add in ascending-i order with zero a-elements skipped, exactly as the
// tape's dB loop; four rows of b run per axpy4 pass.
func MatMulTAccInto(dst, a []float64, m, k int, b []float64, n int) {
	var a4 [4]float64
	i := 0
	for ; i+4 <= m; i += 4 {
		for p := 0; p < k; p++ {
			a4[0], a4[1], a4[2], a4[3] = a[i*k+p], a[(i+1)*k+p], a[(i+2)*k+p], a[(i+3)*k+p]
			drow := dst[p*n : (p+1)*n]
			if a4[0] == 0 || a4[1] == 0 || a4[2] == 0 || a4[3] == 0 {
				for q := 0; q < 4; q++ {
					if av := a4[q]; av != 0 {
						axpyRow(drow, b[(i+q)*n:(i+q+1)*n], av)
					}
				}
				continue
			}
			if n == 1 {
				o := drow[0]
				o += a4[0] * b[i]
				o += a4[1] * b[i+1]
				o += a4[2] * b[i+2]
				o += a4[3] * b[i+3]
				drow[0] = o
				continue
			}
			axpy4(drow, b[i*n:], n, a4[:])
		}
	}
	for ; i < m; i++ {
		for p := 0; p < k; p++ {
			if av := a[i*k+p]; av != 0 {
				axpyRow(dst[p*n:(p+1)*n], b[i*n:(i+1)*n], av)
			}
		}
	}
}

// axpyRow is axpy1 with a scalar path for the one-element rows of
// column-vector gradients, where the SIMD call overhead dominates.
func axpyRow(dst, src []float64, a float64) {
	if len(dst) == 1 {
		dst[0] += a * src[0]
		return
	}
	axpy1(dst, src, a)
}

// TransposeInto writes the (n, m) transpose of the (m, n) matrix a.
func TransposeInto(dst, a []float64, m, n int) {
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		for j, v := range row {
			dst[j*m+i] = v
		}
	}
}

// RowSumAccInto accumulates every row of the (m, n) matrix g into dst in
// ascending row order — the gradient of a broadcast row vector
// (Tensor.AddRow's v.Grad loop).
func RowSumAccInto(dst, g []float64, m, n int) {
	for i := 0; i < m; i++ {
		addTo(dst, g[i*n:(i+1)*n])
	}
}

// LayerNormInto writes the normalized rows of the (m, n) matrix x into y
// and, unless inv is nil, each row's inverse standard deviation into inv —
// the forward pass of Tensor.LayerNorm, keeping what its backward reads.
func LayerNormInto(y, inv, x []float64, m, n int, eps float64) {
	nf := float64(n)
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		yrow := y[i*n : (i+1)*n]
		mu := 0.0
		for _, v := range row {
			mu += v
		}
		mu /= nf
		va := 0.0
		for _, v := range row {
			d := v - mu
			va += d * d
		}
		va /= nf
		s := 1 / math.Sqrt(va+eps)
		if inv != nil {
			inv[i] = s
		}
		for j, v := range row {
			yrow[j] = (v - mu) * s
		}
	}
}

// AffineInto writes dst = y·γ + β row-wise for y of shape (m, n) as two
// separately rounded passes, mirroring MulRow then AddRow. dst may alias y.
func AffineInto(dst, y []float64, m, n int, gamma, beta []float64) {
	for i := 0; i < m; i++ {
		yrow := y[i*n : (i+1)*n]
		orow := dst[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = yrow[j] * gamma[j]
		}
		addTo(orow, beta)
	}
}

// AffineGradInto is the backward of AffineInto given gn, the gradient of
// its output: dBeta and dGamma accumulate in ascending row order
// (AddRow's and MulRow's v.Grad loops) and gy receives the gradient of y.
func AffineGradInto(gy, dGamma, dBeta, gn, y []float64, m, n int, gamma []float64) {
	RowSumAccInto(dBeta, gn, m, n)
	for i := 0; i < m; i++ {
		grow := gn[i*n : (i+1)*n]
		yrow := y[i*n : (i+1)*n]
		gyrow := gy[i*n : (i+1)*n]
		for j, g := range grow {
			gyrow[j] = 0 + (0+g)*gamma[j]
			dGamma[j] += g * yrow[j]
		}
	}
}

// LayerNormGradAccInto accumulates the input gradient of Tensor.LayerNorm
// into dx, given gy (the gradient of its output y) and the y and inv
// recorded by LayerNormInto, with the tape's expression and order.
func LayerNormGradAccInto(dx, gy, y, inv []float64, m, n int) {
	nf := float64(n)
	for i := 0; i < m; i++ {
		grow := gy[i*n : (i+1)*n]
		yrow := y[i*n : (i+1)*n]
		drow := dx[i*n : (i+1)*n]
		sumG, sumGY := 0.0, 0.0
		for j, g := range grow {
			sumG += g
			sumGY += g * yrow[j]
		}
		s := inv[i]
		for j, g := range grow {
			drow[j] += s * (g - sumG/nf - yrow[j]*sumGY/nf)
		}
	}
}

// GELUTrainInto is GELUInto that also records each element's tanh term in
// th for GELUGradInto. dst may alias x; th may not.
func GELUTrainInto(dst, th, x []float64) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		t := math.Tanh(c * (v + 0.044715*v*v*v))
		th[i] = t
		dst[i] = 0.5 * v * (1 + t)
	}
}

// GELUGradInto writes dx = g·GELU'(x), Tensor.GELU's backward evaluated
// from the tanh terms GELUTrainInto recorded (the tape recomputes the
// identical tanh from the identical expression). Like the tape it adds the
// product to a zero gradient, so a −0 product lands as +0.
func GELUGradInto(dx, g, x, th []float64) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		t := th[i]
		dinner := c * (1 + 3*0.044715*v*v)
		dx[i] = 0 + g[i]*(0.5*(1+t)+0.5*v*(1-t*t)*dinner)
	}
}

// CausalSoftmaxGradInto is the backward of a causal softmax followed by
// the 1/√d score scale (Tensor.SoftmaxRows with the causal mask, then
// Tensor.Scale): for the (t, t) weights w and their gradient g, both with
// row stride ld, it writes dst[i][j] = w·(g − Σ g·w)·scale for j ≤ i and 0
// above the diagonal. Masked weights are exactly zero, so their terms of
// the row dot are ±0 and are skipped.
func CausalSoftmaxGradInto(dst, g, w []float64, t, ld int, scale float64) {
	for i := 0; i < t; i++ {
		wrow := w[i*ld : i*ld+i+1]
		grow := g[i*ld : i*ld+i+1]
		drow := dst[i*ld : (i+1)*ld]
		dot := 0.0
		for j, gv := range grow {
			dot += gv * wrow[j]
		}
		for j, wv := range wrow {
			drow[j] = 0 + (0+wv*(grow[j]-dot))*scale
		}
		for j := i + 1; j < t; j++ {
			drow[j] = 0
		}
	}
}
