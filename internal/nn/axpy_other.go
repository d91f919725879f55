//go:build !amd64

package nn

// useAVX is always false off amd64: the generic loops are the only axpy
// bodies there.
var useAVX = false

func axpy4AVX(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	panic("nn: no AVX axpy off amd64")
}

func axpy1AVX(dst, x []float64, a float64) {
	panic("nn: no AVX axpy off amd64")
}
