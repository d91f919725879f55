package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// pinnedKernelDigest is kernelDigest's value, recorded from the scalar
// kernels before the GEMM loops were routed through axpy4. Every forward
// output and every gradient it hashes must keep exactly these bits on
// either axpy path.
const pinnedKernelDigest = "4fa1c14fef66f001"

// kernelDigest hashes the bits of every GEMM-backed result in the
// package: tape forwards and backwards through Affine (with and without
// the fused ReLU), MatMul and segment attention, and the Scratch
// executor's forwards. Widths are odd so every blocked loop runs its
// remainder, and inputs carry exact zeros so the zero-skips are taken.
func kernelDigest() string {
	rng := rand.New(rand.NewSource(71))
	h := fnv.New64a()
	var buf [8]byte
	put := func(xs []float64) {
		for _, v := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	sparseParam := func(r, c int) *Tensor {
		p := Param(rng, r, c)
		for i := range p.Data {
			if rng.Intn(4) == 0 {
				p.Data[i] = 0
			}
		}
		return p
	}
	square := func(y *Tensor) *Tensor { return MeanAll(Mul(y, y)) }

	mlp := NewMLP(rng, 37, 67, 33, 1)
	x := sparseParam(19, 37)
	y := mlp.Forward(x)
	Backward(square(y))
	put(y.Data)
	put(x.Grad)
	for _, p := range mlp.Params() {
		put(p.Grad)
	}
	yr := mlp.ForwardReLU(x)
	Backward(square(yr))
	put(yr.Data)
	put(x.Grad)

	a, b := sparseParam(9, 11), sparseParam(11, 6)
	ab := MatMul(a, b)
	Backward(square(ab))
	put(ab.Data)
	put(a.Grad)
	put(b.Grad)

	attn := NewSelfAttention(rng, 13)
	tokens := sparseParam(17, 13)
	lens := []int{5, 1, 7, 4}
	at := attn.ForwardSegments(tokens, lens)
	Backward(square(at))
	put(at.Data)
	put(tokens.Grad)
	for _, p := range attn.Params() {
		put(p.Grad)
	}

	var params []*Tensor
	params = append(params, mlp.Params()...)
	params = append(params, attn.Params()...)
	restore := FreezeParams(params)
	defer restore()
	var s Scratch
	rows := make([][]float64, x.R)
	for i := range rows {
		rows[i] = x.Data[i*x.C : (i+1)*x.C]
	}
	put(s.MLP(mlp, x).Data)
	put(s.MLPReLURows(mlp, rows).Data)
	put(s.LinearRows(mlp.Layers[0], rows).Data)
	idx := make([]int, tokens.R)
	for i := range idx {
		idx[i] = (i * 5) % 11
	}
	put(s.AttentionDedup(attn, tokens, idx, lens).Data)
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestKernelDigestPinned(t *testing.T) {
	if got := kernelDigest(); got != pinnedKernelDigest {
		t.Fatalf("kernel digest %s, pinned %s", got, pinnedKernelDigest)
	}
}
