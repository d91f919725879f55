package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Module is anything owning trainable parameters.
type Module interface {
	Params() []*Tensor
}

// Linear is a fully connected layer y = x@W + b.
type Linear struct {
	W, B *Tensor
}

// NewLinear builds a Linear with Xavier-initialised weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{W: Param(rng, in, out), B: ZeroParam(1, out)}
}

// Forward applies the layer to an (N x in) batch through the fused
// affine op — one tape node, bitwise identical to AddBias(MatMul(x, W)).
func (l *Linear) Forward(x *Tensor) *Tensor {
	return Affine(x, l.W, l.B, false)
}

// Params implements Module.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// LayerNorm holds the gain/bias of row-wise layer normalisation.
type LayerNorm struct {
	G, B *Tensor
}

// NewLayerNorm builds an identity-initialised LayerNorm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	g := ZeroParam(1, dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{G: g, B: ZeroParam(1, dim)}
}

// Forward normalises each row of x.
func (l *LayerNorm) Forward(x *Tensor) *Tensor {
	return LayerNormRows(x, l.G, l.B)
}

// Params implements Module.
func (l *LayerNorm) Params() []*Tensor { return []*Tensor{l.G, l.B} }

// MLP is a stack of Linear+ReLU layers with a linear head.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer widths (len >= 2).
func NewMLP(rng *rand.Rand, widths ...int) *MLP {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, widths[i], widths[i+1]))
	}
	return m
}

// Forward applies ReLU between layers and no activation after the last,
// each layer as one fused affine node.
func (m *MLP) Forward(x *Tensor) *Tensor {
	for i, l := range m.Layers {
		x = Affine(x, l.W, l.B, i+1 < len(m.Layers))
	}
	return x
}

// ForwardReLU applies ReLU after every layer including the last — the
// ReLU(MLP.Forward(x)) composition the cost models use for embeddings,
// with the final activation fused instead of a separate tape node.
func (m *MLP) ForwardReLU(x *Tensor) *Tensor {
	for _, l := range m.Layers {
		x = Affine(x, l.W, l.B, true)
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SelfAttention is a single-head scaled dot-product self-attention block
// with a residual connection and layer normalisation — the contextual
// encoder PaCM and TLP use over their feature sequences.
type SelfAttention struct {
	Q, K, V, O *Linear
	Norm       *LayerNorm
	dim        int
}

// NewSelfAttention builds an attention block over dim-wide tokens.
func NewSelfAttention(rng *rand.Rand, dim int) *SelfAttention {
	return &SelfAttention{
		Q:    NewLinear(rng, dim, dim),
		K:    NewLinear(rng, dim, dim),
		V:    NewLinear(rng, dim, dim),
		O:    NewLinear(rng, dim, dim),
		Norm: NewLayerNorm(dim),
		dim:  dim,
	}
}

// Forward consumes a (seq x dim) token matrix and returns the attended
// (seq x dim) representation.
func (a *SelfAttention) Forward(x *Tensor) *Tensor {
	q := a.Q.Forward(x)
	k := a.K.Forward(x)
	v := a.V.Forward(x)
	scores := Scale(MatMul(q, Transpose(k)), 1/math.Sqrt(float64(a.dim)))
	attn := SoftmaxRows(scores)
	ctx := a.O.Forward(MatMul(attn, v))
	return a.Norm.Forward(Add(x, ctx))
}

// ForwardSegments applies the block independently to contiguous row
// segments of x (lens summing to x.R), with gradients: the Q/K/V/O
// projections and the residual layer norm run batched across all
// segments — one GEMM each instead of one per segment — while the score
// matmuls and softmax, the only row-mixing parts, stay segment-local.
// Projections and layer norm are row-wise, so each segment's output is
// bitwise identical to Forward over that segment alone.
func (a *SelfAttention) ForwardSegments(x *Tensor, lens []int) *Tensor {
	return a.forwardSegments(x, a.Q.Forward(x), a.K.Forward(x), a.V.Forward(x), lens)
}

// ForwardSegmentsDedup is ForwardSegments over a token sequence in
// deduplicated form (see DedupRows): uniq holds the projected-input
// candidates' distinct token rows and idx maps each expanded row to its
// representative. Q/K/V run once per distinct row and are gathered back
// with gradient-aware GatherRows, so training on batches whose tokens
// repeat heavily — TLP's near-constant one-hots, PaCM's zero-padded
// dataflow rows — skips most projection work in the forward and the
// backward both.
func (a *SelfAttention) ForwardSegmentsDedup(uniq *Tensor, idx []int, lens []int) *Tensor {
	return a.forwardSegments(
		GatherRows(uniq, idx),
		GatherRows(a.Q.Forward(uniq), idx),
		GatherRows(a.K.Forward(uniq), idx),
		GatherRows(a.V.Forward(uniq), idx),
		lens,
	)
}

// forwardSegments is the shared segment-attention core over precomputed
// projections.
func (a *SelfAttention) forwardSegments(x, q, k, v *Tensor, lens []int) *Tensor {
	parts := make([]*Tensor, len(lens))
	off := 0
	for s, n := range lens {
		qs := SliceRows(q, off, off+n)
		ks := SliceRows(k, off, off+n)
		vs := SliceRows(v, off, off+n)
		scores := Scale(MatMul(qs, Transpose(ks)), 1/math.Sqrt(float64(a.dim)))
		parts[s] = MatMul(SoftmaxRows(scores), vs)
		off += n
	}
	if off != x.R {
		panic(fmt.Sprintf("nn: ForwardSegments lengths sum to %d, tensor has %d rows", off, x.R))
	}
	ctx := a.O.Forward(ConcatRows(parts...))
	return a.Norm.Forward(Add(x, ctx))
}

// Params implements Module.
func (a *SelfAttention) Params() []*Tensor {
	var ps []*Tensor
	for _, m := range []Module{a.Q, a.K, a.V, a.O, a.Norm} {
		ps = append(ps, m.Params()...)
	}
	return ps
}
