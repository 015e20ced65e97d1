//go:build amd64

package tensor

// SIMD dispatch for the axpy kernels (implementations in axpy_amd64.s).
// SSE2 is part of the amd64 baseline; AVX2 is selected at init when both
// the CPU advertises it and the OS saves YMM state. Both widths keep the
// scalar reference's rounding schedule exactly — see axpy_amd64.s.

// The kernels read and write through their pointer arguments only for
// the duration of the call, so none of them escapes.

//go:noescape
func axpy4SSE(dst, b *float64, stride int, a *float64, n int)

//go:noescape
func axpy1SSE(dst, b *float64, a float64, n int)

//go:noescape
func axpy4AVX2(dst, b *float64, stride int, a *float64, n int)

//go:noescape
func axpy1AVX2(dst, b *float64, a float64, n int)

//go:noescape
func addToSSE(dst, src *float64, n int)

//go:noescape
func addToAVX2(dst, src *float64, n int)
func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

var useAVX2 = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	lo, _ := xgetbv0()
	if lo&0x6 != 0x6 { // OS preserves XMM and YMM state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}()

// axpy4 accumulates the four consecutive rows of b (stride elements apart)
// into dst, scaled by a[0..3], applying the four adds in row order per
// element. len(a) must be ≥ 4 and b must hold 3*stride+len(dst) elements.
func axpy4(dst, b []float64, stride int, a []float64) {
	if len(dst) == 0 {
		return
	}
	_ = b[3*stride+len(dst)-1]
	_ = a[3]
	if useAVX2 {
		axpy4AVX2(&dst[0], &b[0], stride, &a[0], len(dst))
	} else {
		axpy4SSE(&dst[0], &b[0], stride, &a[0], len(dst))
	}
}

// axpy1 accumulates dst[j] += a*b[j].
func axpy1(dst, b []float64, a float64) {
	if len(dst) == 0 {
		return
	}
	_ = b[len(dst)-1]
	if useAVX2 {
		axpy1AVX2(&dst[0], &b[0], a, len(dst))
	} else {
		axpy1SSE(&dst[0], &b[0], a, len(dst))
	}
}

// addTo accumulates dst[j] += src[j].
func addTo(dst, src []float64) {
	if len(dst) == 0 {
		return
	}
	_ = src[len(dst)-1]
	if useAVX2 {
		addToAVX2(&dst[0], &src[0], len(dst))
	} else {
		addToSSE(&dst[0], &src[0], len(dst))
	}
}
