package nn

// axpy4 is the one primitive under every GEMM loop in the package (the
// fused forward kernel, the tape MatMul, and both gradient GEMMs of
// Affine and MatMul): for every j < len(dst),
//
//	dst[j] = (((dst[j] + a0*x0[j]) + a1*x1[j]) + a2*x2[j]) + a3*x3[j]
//
// with each product rounded to float64 before its add. That is exactly
// the chained `v += a*x` accumulation the scalar loops always ran, so a
// caller that feeds contraction terms in ascending order gets the same
// bits as a plain triple loop. The x slices must be at least len(dst)
// long.
//
// On amd64 with AVX the body is assembly (axpy_amd64.s): lanes run over
// j, and each product is a separate multiply then add — never a fused
// multiply-add, which would skip the product's rounding and change the
// bits. Elsewhere, and on CPUs without AVX, the generic loops below run.
func axpy4(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	if useAVX {
		axpy4AVX(dst, x0, x1, x2, x3, a0, a1, a2, a3)
		return
	}
	axpy4Generic(dst, x0, x1, x2, x3, a0, a1, a2, a3)
}

// axpy1 is axpy4 with one term: dst[j] += a*x[j], for the remainders of
// the four-wide blocks.
func axpy1(dst, x []float64, a float64) {
	x = x[:len(dst)]
	if useAVX {
		axpy1AVX(dst, x, a)
		return
	}
	axpy1Generic(dst, x, a)
}

// The generic loops write every product as float64(a*x[j]): the
// explicit conversion forces the product's rounding, which the Go spec
// otherwise lets arm64, ppc64le and s390x skip by fusing the multiply
// into the add. CI checks that the arm64 build emits no FMADDD here.

func axpy4Generic(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for j, v := range dst {
		v += float64(a0 * x0[j])
		v += float64(a1 * x1[j])
		v += float64(a2 * x2[j])
		v += float64(a3 * x3[j])
		dst[j] = v
	}
}

func axpy1Generic(dst, x []float64, a float64) {
	x = x[:len(dst)]
	for j, xv := range x {
		dst[j] += float64(a * xv)
	}
}
