package nn

import "fmt"

// This file is the data-parallel training substrate: parameter aliasing
// and detachable gradient storage. The parallel LambdaRank trainer
// (internal/costmodel) runs one forward/backward per task group on an
// architecture replica whose parameters share the live model's weight
// memory but accumulate gradients into a private GradSet, so concurrent
// backwards never write shared state. Reducing the per-group GradSets
// into the live parameters in a fixed group order keeps the fitted
// weights bitwise independent of the worker count.

// Affine is the fused training op out = x@W + b, optionally through
// ReLU: one tape node where the operator chain ReLU(AddBias(MatMul))
// builds three, so a Linear layer's forward allocates one output and one
// gradient buffer instead of three of each. The forward runs the
// arena executor's fused kernel, which is bitwise identical to the chain
// for the finite weights training produces; the backward fuses the ReLU
// mask and the bias column-sum into MatMul's own gradient GEMMs
// (matmulBackward), so gradients are bitwise identical too.
func Affine(x, w, b *Tensor, relu bool) *Tensor {
	if w.R != x.C || b.R != 1 || b.C != w.C {
		panic(fmt.Sprintf("nn: affine %dx%d @ %dx%d + 1x%d", x.R, x.C, w.R, w.C, b.C))
	}
	out := matmulFusedIn(nil, x, w, b.Data, relu)
	if needsGrad(x, w, b) {
		out.enableGrad(func() { affineBackward(x, w, b, out, relu) }, x, w, b)
	}
	return out
}

func affineBackward(x, w, b, out *Tensor, relu bool) {
	C := w.C
	if relu {
		// The chain's ReLU backward: gradient flows only where the
		// pre-activation was positive — equivalently where the fused
		// output is (max(pre, 0) > 0 iff pre > 0). The mask is applied in
		// place: out.Grad is read by this node's backward alone.
		for i, v := range out.Data {
			if !(v > 0) {
				out.Grad[i] = 0
			}
		}
	}
	g := out.Grad
	if b.requiresGrad {
		for i := 0; i < out.R; i++ {
			gRow := g[i*C : (i+1)*C]
			for j, gv := range gRow {
				b.Grad[j] += gv
			}
		}
	}
	matmulBackward(x, w, g)
}

// AliasParams points each replica parameter's Data at the master
// parameter's backing array (a slice-header copy, no element copy).
// After aliasing, forwards through the replica read the master's live
// weights; the replica's Grad buffers stay its own. Shapes must match.
func AliasParams(replica, master []*Tensor) {
	if len(replica) != len(master) {
		panic(fmt.Sprintf("nn: AliasParams count mismatch %d vs %d", len(replica), len(master)))
	}
	for i, r := range replica {
		m := master[i]
		if r.R != m.R || r.C != m.C {
			panic(fmt.Sprintf("nn: AliasParams shape mismatch at %d: %dx%d vs %dx%d", i, r.R, r.C, m.R, m.C))
		}
		r.Data = m.Data
	}
}

// GradSet is gradient storage matching a parameter list, detachable from
// the parameters that fill it: one zero-initialised buffer per parameter.
// A trainer keeps one GradSet per macro-batch slot and rebinds a replica
// to the slot it is currently computing.
type GradSet [][]float64

// NewGradSet allocates zeroed buffers shaped like params.
func NewGradSet(params []*Tensor) GradSet {
	g := make(GradSet, len(params))
	for i, p := range params {
		g[i] = make([]float64, len(p.Data))
	}
	return g
}

// Zero clears every buffer.
func (g GradSet) Zero() {
	for _, b := range g {
		for i := range b {
			b[i] = 0
		}
	}
}

// Bind points each parameter's Grad at the set's buffers, so the next
// Backward accumulates here. The caller owns the sequencing: bind, run
// one forward/backward, then the set holds that pass's leaf gradients.
func (g GradSet) Bind(params []*Tensor) {
	if len(g) != len(params) {
		panic(fmt.Sprintf("nn: GradSet.Bind count mismatch %d vs %d", len(g), len(params)))
	}
	for i, p := range params {
		if len(g[i]) != len(p.Data) {
			panic(fmt.Sprintf("nn: GradSet.Bind shape mismatch at %d", i))
		}
		p.Grad = g[i]
	}
}

// AddInto accumulates scale * g into the parameters' Grad buffers. The
// caller reduces slots in a fixed order, which is what makes the summed
// gradient — and everything downstream of it — independent of which
// worker produced each slot.
func (g GradSet) AddInto(params []*Tensor, scale float64) {
	if len(g) != len(params) {
		panic(fmt.Sprintf("nn: GradSet.AddInto count mismatch %d vs %d", len(g), len(params)))
	}
	for i, p := range params {
		b := g[i]
		for j := range b {
			p.Grad[j] += b[j] * scale
		}
	}
}
