// One forward, two executors. Each cost model writes its batched
// forward once, over the Exec interface below, and the caller picks how
// it runs: Tape records the autograd operators a training step needs,
// while *Scratch runs no-tape fused kernels on a reusable arena for the
// verify-stage hot path (Predict, under FreezeParams). Every Scratch
// kernel accumulates each output element in exactly the same order as
// the tape operators — ascending over the contraction index — so the
// two executors produce bitwise identical values (the property the
// cost-model equivalence tests pin). The kernels assume finite weights:
// a zero activation then contributes an exact ±0.0 term, which cannot
// perturb any partial sum, letting the inner loop run branchless where
// the tape operator branches per term.
//
// A warmed Scratch performs zero heap allocations — the contract the
// //pruner:hotpath annotations declare, the hotalloc analyzer enforces
// statically, and the TestAlloc* gates pin dynamically. The kernels also
// accept a nil *Scratch, which allocates each output on the heap; the
// tape operators run their forwards that way (see heapArena), so each
// forward loop exists once.
package nn

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Exec runs the layer compositions the cost models are built from. Each
// method's result is bitwise identical across implementations; they
// differ only in whether a backward pass can follow.
type Exec interface {
	// MLP is MLP.Forward: ReLU between layers, none after the last.
	MLP(m *MLP, x *Tensor) *Tensor
	// MLPReLURows is MLP.ForwardReLU fed directly from feature rows:
	// ReLU after every layer including the last.
	MLPReLURows(m *MLP, rows [][]float64) *Tensor
	// LinearRows is Linear.Forward fed directly from feature rows.
	LinearRows(l *Linear, rows [][]float64) *Tensor
	// AttentionDedup is SelfAttention.ForwardSegmentsDedup.
	AttentionDedup(a *SelfAttention, uniq *Tensor, idx, lens []int) *Tensor
	// SegmentSum is SegmentSumRows.
	SegmentSum(x *Tensor, lens []int) *Tensor
	// SegmentMean is SegmentMeanRows.
	SegmentMean(x *Tensor, lens []int) *Tensor
	// Tanh is Tanh.
	Tanh(x *Tensor) *Tensor
	// ConcatCols is ConcatCols.
	ConcatCols(a, b *Tensor) *Tensor
}

// Tape is the training executor: each method is the autograd operator
// composition, so the output carries the tape a Backward needs whenever
// a parameter requires gradients.
type Tape struct{}

// MLP implements Exec.
func (Tape) MLP(m *MLP, x *Tensor) *Tensor { return m.Forward(x) }

// MLPReLURows implements Exec.
func (Tape) MLPReLURows(m *MLP, rows [][]float64) *Tensor { return m.ForwardReLU(FromRows(rows)) }

// LinearRows implements Exec.
func (Tape) LinearRows(l *Linear, rows [][]float64) *Tensor { return l.Forward(FromRows(rows)) }

// AttentionDedup implements Exec.
func (Tape) AttentionDedup(a *SelfAttention, uniq *Tensor, idx, lens []int) *Tensor {
	return a.ForwardSegmentsDedup(uniq, idx, lens)
}

// SegmentSum implements Exec.
func (Tape) SegmentSum(x *Tensor, lens []int) *Tensor { return SegmentSumRows(x, lens) }

// SegmentMean implements Exec.
func (Tape) SegmentMean(x *Tensor, lens []int) *Tensor { return SegmentMeanRows(x, lens) }

// Tanh implements Exec.
func (Tape) Tanh(x *Tensor) *Tensor { return Tanh(x) }

// ConcatCols implements Exec.
func (Tape) ConcatCols(a, b *Tensor) *Tensor { return ConcatCols(a, b) }

// The *Scratch methods below are the inference executor. They read the
// modules' live weights and ignore requiresGrad, so callers run them
// under FreezeParams; outputs alias the arena and are valid until its
// next Reset.

// MLP implements Exec. The first layer scans for structurally-zero
// columns; deeper layers see dense activations and skip the scan.
//
//pruner:hotpath
func (s *Scratch) MLP(m *MLP, x *Tensor) *Tensor {
	for i, l := range m.Layers {
		relu := i+1 < len(m.Layers)
		if i == 0 {
			x = matmulFusedIn(s, x, l.W, l.B.Data, relu)
		} else {
			x = matmulFusedDenseIn(s, x, l.W, l.B.Data, relu)
		}
	}
	return x
}

// MLPReLURows implements Exec, with the first layer contracted over the
// compacted columns (see LinearRows).
//
//pruner:hotpath
func (s *Scratch) MLPReLURows(m *MLP, rows [][]float64) *Tensor {
	x := s.linearRows(m.Layers[0], rows, true)
	for _, l := range m.Layers[1:] {
		x = matmulFusedDenseIn(s, x, l.W, l.B.Data, true)
	}
	return x
}

// LinearRows implements Exec: the input is compacted at copy time
// (compactRows) and contracted against the matching weight panel.
//
//pruner:hotpath
func (s *Scratch) LinearRows(l *Linear, rows [][]float64) *Tensor {
	return s.linearRows(l, rows, false)
}

func (s *Scratch) linearRows(l *Linear, rows [][]float64, relu bool) *Tensor {
	x, cols := compactRows(s, rows, l.W.R)
	return matmulFusedDenseIn(s, x, gatherWeightRows(s, l.W, cols), l.B.Data, relu)
}

// dense applies a Linear layer to dense activations, skipping the
// nonzero-column scan.
func (s *Scratch) dense(l *Linear, x *Tensor) *Tensor {
	return matmulFusedDenseIn(s, x, l.W, l.B.Data, false)
}

// AttentionDedup implements Exec. The Q/K/V/O projections and the
// residual layer norm run batched across all segments, while the score
// matmuls and softmax — the only parts that mix rows — stay
// segment-local. The Q/K/V projections run once per distinct row of
// uniq and are gathered back through idx, so batches whose tokens
// repeat heavily — TLP's near-constant one-hots, PaCM's zero-padded
// dataflow rows — skip most projection work; a projection is row-wise,
// so projecting a representative and copying is bitwise identical to
// projecting every duplicate.
//
//pruner:hotpath
func (s *Scratch) AttentionDedup(a *SelfAttention, uniq *Tensor, idx, lens []int) *Tensor {
	qu := s.dense(a.Q, uniq)
	ku := s.dense(a.K, uniq)
	vu := s.dense(a.V, uniq)
	return s.attend(
		a,
		gatherRowsIn(s, uniq, idx),
		gatherRowsIn(s, qu, idx),
		gatherRowsIn(s, ku, idx),
		gatherRowsIn(s, vu, idx),
		lens,
	)
}

// attend is the attention core over precomputed projections. Scores,
// softmax and the value mix run on one reused scratch row per segment —
// no per-segment tensors — with each value accumulated in the same order
// as the operator chain it replaces
// (SoftmaxRows(Scale(MatMul(qs, ksᵀ))) @ vs).
func (s *Scratch) attend(a *SelfAttention, x, q, k, v *Tensor, lens []int) *Tensor {
	engineAttnSegments.Add(uint64(len(lens)))
	C := x.C
	ctx := newTensor(s, x.R, C)
	scale := 1 / math.Sqrt(float64(a.dim))
	maxN := 0
	for _, n := range lens {
		maxN = max(maxN, n)
	}
	scratch := scratchFloats(s, 2*maxN)
	// softmaxRow replicates SoftmaxRows' operation order on one scratch
	// row in place.
	softmaxRow := func(row []float64) {
		m := math.Inf(-1)
		for _, sv := range row {
			m = math.Max(m, sv)
		}
		var sum float64
		for jj, sv := range row {
			e := math.Exp(sv - m)
			row[jj] = e
			sum += e
		}
		for jj := range row {
			row[jj] /= sum
		}
	}
	off := 0
	for _, n := range lens {
		row0, row1 := scratch[:n], scratch[maxN:maxN+n]
		// Query rows go in pairs sharing each key/value row load.
		r := off
		for ; r+2 <= off+n; r += 2 {
			q0 := q.Data[r*C : r*C+C]
			q1 := q.Data[(r+1)*C : (r+1)*C+C]
			// Scaled scores against the segment's keys: the full dot in
			// ascending order, then one multiply — exactly
			// Scale(MatMul(qs, Transpose(ks))).
			for jj := 0; jj < n; jj++ {
				kRow := k.Data[(off+jj)*C : (off+jj)*C+C]
				var s0, s1 float64
				for kk, kv := range kRow {
					s0 += q0[kk] * kv
					s1 += q1[kk] * kv
				}
				row0[jj] = s0 * scale
				row1[jj] = s1 * scale
			}
			softmaxRow(row0)
			softmaxRow(row1)
			// ctx rows = attn @ values, ascending over the segment. A
			// softmax weight is only zero on deep underflow; the exact
			// ±0.0 term it then contributes is harmless (finite values).
			c0 := ctx.Data[r*C : r*C+C]
			c1 := ctx.Data[(r+1)*C : (r+1)*C+C]
			for jj := 0; jj < n; jj++ {
				a0, a1 := row0[jj], row1[jj]
				vRow := v.Data[(off+jj)*C : (off+jj)*C+C]
				for c2, vv := range vRow {
					c0[c2] += a0 * vv
					c1[c2] += a1 * vv
				}
			}
		}
		for ; r < off+n; r++ {
			qRow := q.Data[r*C : r*C+C]
			for jj := 0; jj < n; jj++ {
				kRow := k.Data[(off+jj)*C : (off+jj)*C+C]
				var sc float64
				for kk, kv := range kRow {
					sc += qRow[kk] * kv
				}
				row0[jj] = sc * scale
			}
			softmaxRow(row0)
			cRow := ctx.Data[r*C : r*C+C]
			for jj, av := range row0[:n] {
				vRow := v.Data[(off+jj)*C : (off+jj)*C+C]
				for c2, vv := range vRow {
					cRow[c2] += av * vv
				}
			}
		}
		off += n
	}
	if off != x.R {
		panic(fmt.Sprintf("nn: ForwardSegments lengths sum to %d, tensor has %d rows", off, x.R))
	}
	return addLayerNormRowsIn(s, x, s.dense(a.O, ctx), a.Norm.G, a.Norm.B)
}

// SegmentSum implements Exec: rows accumulate in order, so each output
// row is bitwise identical to SumRows over that segment in isolation.
//
//pruner:hotpath
func (s *Scratch) SegmentSum(x *Tensor, lens []int) *Tensor {
	total := 0
	for sg, n := range lens {
		if n <= 0 {
			panic(fmt.Sprintf("nn: SegmentSumRows segment %d has length %d", sg, n))
		}
		total += n
	}
	if total != x.R {
		panic(fmt.Sprintf("nn: SegmentSumRows lengths sum to %d, tensor has %d rows", total, x.R))
	}
	out := newTensor(s, len(lens), x.C)
	row := 0
	for sg, n := range lens {
		oRow := out.Data[sg*x.C : (sg+1)*x.C]
		for r := 0; r < n; r++ {
			xRow := x.Data[row*x.C : (row+1)*x.C]
			for j, v := range xRow {
				oRow[j] += v
			}
			row++
		}
	}
	return out
}

// SegmentMean implements Exec: sum in row order, then one multiply by
// the reciprocal length.
//
//pruner:hotpath
func (s *Scratch) SegmentMean(x *Tensor, lens []int) *Tensor {
	sum := s.SegmentSum(x, lens)
	out := newTensor(s, sum.R, sum.C)
	for sg, n := range lens {
		inv := 1 / float64(n)
		for j := 0; j < sum.C; j++ {
			out.Data[sg*sum.C+j] = sum.Data[sg*sum.C+j] * inv
		}
	}
	return out
}

// Tanh implements Exec.
//
//pruner:hotpath
func (s *Scratch) Tanh(x *Tensor) *Tensor {
	out := newTensor(s, x.R, x.C)
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

// ConcatCols implements Exec.
//
//pruner:hotpath
func (s *Scratch) ConcatCols(a, b *Tensor) *Tensor {
	if a.R != b.R {
		panic(fmt.Sprintf("nn: concat rows %d vs %d", a.R, b.R))
	}
	cols := a.C + b.C
	out := newTensor(s, a.R, cols)
	for i := 0; i < a.R; i++ {
		copy(out.Data[i*cols:i*cols+a.C], a.Data[i*a.C:(i+1)*a.C])
		copy(out.Data[i*cols+a.C:(i+1)*cols], b.Data[i*b.C:(i+1)*b.C])
	}
	return out
}

// RowsView returns a zero-copy view of rows [lo, hi) of x, sharing its
// backing array. It is an inference-path helper: x must not carry
// gradients (a view cannot propagate them), so it panics on a
// gradient-carrying tensor.
func RowsView(x *Tensor, lo, hi int) *Tensor {
	if x.requiresGrad {
		panic("nn: RowsView of a gradient-carrying tensor")
	}
	if lo < 0 || hi > x.R || lo >= hi {
		panic(fmt.Sprintf("nn: RowsView [%d,%d) of %d rows", lo, hi, x.R))
	}
	return &Tensor{R: hi - lo, C: x.C, Data: x.Data[lo*x.C : hi*x.C]}
}

// matmulFusedIn is the fused kernel: out = x @ w (+ bias) (then ReLU),
// with the output and the nonzero-column index drawn from s. It keeps
// MatMul's outer-product loop order but blocks the contraction index
// four wide, so each output element is loaded and stored once per four
// terms instead of once per term, with four independent streams of
// b-rows. Per element the terms still add in ascending k — the chained
// v += form — so the result is bitwise identical to
// [ReLU](AddBias)(MatMul(x, w)) for finite w. Blocks whose four
// activations are all zero are skipped outright (feature rows carry long
// zero tails), matching MatMul's per-term zero-skip.
func matmulFusedIn(s *Scratch, x, w *Tensor, bias []float64, relu bool) *Tensor {
	// Contract only over columns that are nonzero somewhere in the batch.
	// Feature matrices carry long structurally-zero column runs (padding
	// tails, unused one-hot slots); those columns contribute an exact zero
	// to every output element, so dropping them reproduces MatMul's
	// per-term zero-skip at dense-kernel cost.
	return matmulFusedNz(s, x, w, bias, relu, nonzeroColsIn(s, x))
}

// matmulFusedDenseIn is the kernel entry for activation matrices (post
// projection or ReLU): no structurally-zero columns worth scanning for,
// so it contracts over every column. Processing zero terms stays
// bitwise-safe (finite weights), so the result is identical to
// matmulFusedIn on the same operands.
func matmulFusedDenseIn(s *Scratch, x, w *Tensor, bias []float64, relu bool) *Tensor {
	nz := scratchInts(s, x.C)
	for k := range nz {
		nz[k] = k
	}
	return matmulFusedNz(s, x, w, bias, relu, nz)
}

func matmulFusedNz(s *Scratch, x, w *Tensor, bias []float64, relu bool, nz []int) *Tensor {
	if x.C != w.R {
		panic(fmt.Sprintf("nn: matmulFused %dx%d @ %dx%d", x.R, x.C, w.R, w.C))
	}
	engineGEMMCalls.Add(1)
	engineGEMMRows.Add(uint64(x.R))
	K, C := x.C, w.C
	out := newTensor(s, x.R, C)
	i := 0
	// Row pairs share each weight-row load and double the number of
	// independent accumulator chains in flight.
	for ; i+2 <= x.R; i += 2 {
		a0Row := x.Data[i*K : i*K+K]
		a1Row := x.Data[(i+1)*K : (i+1)*K+K]
		o0 := out.Data[i*C : i*C+C]
		o1 := out.Data[(i+1)*C : (i+1)*C+C]
		n := 0
		for ; n+4 <= len(nz); n += 4 {
			k0, k1, k2, k3 := nz[n], nz[n+1], nz[n+2], nz[n+3]
			p0, p1, p2, p3 := a0Row[k0], a0Row[k1], a0Row[k2], a0Row[k3]
			q0, q1, q2, q3 := a1Row[k0], a1Row[k1], a1Row[k2], a1Row[k3]
			if p0 == 0 && p1 == 0 && p2 == 0 && p3 == 0 &&
				q0 == 0 && q1 == 0 && q2 == 0 && q3 == 0 {
				continue
			}
			b0 := w.Data[k0*C : k0*C+C]
			b1 := w.Data[k1*C : k1*C+C]
			b2 := w.Data[k2*C : k2*C+C]
			b3 := w.Data[k3*C : k3*C+C]
			for j := 0; j < C; j++ {
				bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
				v := o0[j]
				v += p0 * bv0
				v += p1 * bv1
				v += p2 * bv2
				v += p3 * bv3
				o0[j] = v
				u := o1[j]
				u += q0 * bv0
				u += q1 * bv1
				u += q2 * bv2
				u += q3 * bv3
				o1[j] = u
			}
		}
		for ; n < len(nz); n++ {
			k := nz[n]
			p, q := a0Row[k], a1Row[k]
			if p == 0 && q == 0 {
				continue
			}
			bRow := w.Data[k*C : k*C+C]
			for j, bv := range bRow {
				o0[j] += p * bv
				o1[j] += q * bv
			}
		}
		epilogue(o0, bias, relu)
		epilogue(o1, bias, relu)
	}
	for ; i < x.R; i++ {
		aRow := x.Data[i*K : i*K+K]
		oRow := out.Data[i*C : i*C+C]
		n := 0
		for ; n+4 <= len(nz); n += 4 {
			k0, k1, k2, k3 := nz[n], nz[n+1], nz[n+2], nz[n+3]
			a0, a1, a2, a3 := aRow[k0], aRow[k1], aRow[k2], aRow[k3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := w.Data[k0*C : k0*C+C]
			b1 := w.Data[k1*C : k1*C+C]
			b2 := w.Data[k2*C : k2*C+C]
			b3 := w.Data[k3*C : k3*C+C]
			for j, ov := range oRow {
				v := ov
				v += a0 * b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				v += a3 * b3[j]
				oRow[j] = v
			}
		}
		for ; n < len(nz); n++ {
			k := nz[n]
			av := aRow[k]
			if av == 0 {
				continue
			}
			bRow := w.Data[k*C : k*C+C]
			for j, bv := range bRow {
				oRow[j] += av * bv
			}
		}
		epilogue(oRow, bias, relu)
	}
	return out
}

// compactRows builds the kernel's compacted input directly from feature
// rows: columns that are zero in every row (padding tails, unused
// one-hot slots) are dropped at copy time, so the first GEMM runs the
// dense kernel on the surviving columns only. It returns the compacted
// tensor and the kept column indices (ascending). Dropping an all-zero
// column removes only exact-zero terms from every output sum, so a layer
// fed through the correspondingly gathered weight panel is bitwise
// identical to the full-width forward.
func compactRows(s *Scratch, rows [][]float64, width int) (*Tensor, []int) {
	used := scratchInts(s, width)
	cnt := 0
	for _, r := range rows {
		if len(r) != width {
			panic(fmt.Sprintf("nn: compactRows ragged row %d vs %d", len(r), width))
		}
		if cnt == width {
			break
		}
		for k, v := range r {
			if v != 0 && used[k] == 0 {
				used[k] = 1
				cnt++
			}
		}
	}
	cols := scratchInts(s, width)[:0]
	for k, u := range used {
		if u != 0 {
			cols = append(cols, k)
		}
	}
	if len(cols) == 0 {
		// Degenerate all-zero batch: keep one column so shapes stay valid.
		cols = append(cols, 0)
	}
	x := newTensor(s, len(rows), len(cols))
	for i, r := range rows {
		dst := x.Data[i*len(cols) : (i+1)*len(cols)]
		for n, k := range cols {
			dst[n] = r[k]
		}
	}
	return x, cols
}

// gatherWeightRows copies the weight rows selected by cols into one
// contiguous panel matching a compactRows input.
func gatherWeightRows(s *Scratch, w *Tensor, cols []int) *Tensor {
	out := newTensor(s, len(cols), w.C)
	for n, k := range cols {
		copy(out.Data[n*w.C:(n+1)*w.C], w.Data[k*w.C:(k+1)*w.C])
	}
	return out
}

// nonzeroColsIn returns the ascending indices of columns with at least
// one nonzero entry. The scan stops early once every column is known
// used, so dense activations pay a few rows of scanning while
// structurally sparse feature batches are detected exactly.
func nonzeroColsIn(s *Scratch, x *Tensor) []int {
	K := x.C
	used := scratchInts(s, K)
	cnt := 0
	for i := 0; i < x.R && cnt < K; i++ {
		row := x.Data[i*K : i*K+K]
		for k, v := range row {
			if v != 0 && used[k] == 0 {
				used[k] = 1
				cnt++
				if cnt == K {
					break
				}
			}
		}
	}
	nz := scratchInts(s, K)[:0]
	for k, u := range used {
		if u != 0 {
			nz = append(nz, k)
		}
	}
	return nz
}

// epilogue applies the fused bias add and ReLU to one finished output
// row — the same values AddBias and ReLU produce as separate passes.
func epilogue(oRow, bias []float64, relu bool) {
	switch {
	case bias != nil && relu:
		for j, bv := range bias {
			// Branchless max: same bits as ReLU's conditional for the
			// finite values the engine contracts on (+0.0 on the zero and
			// negative side either way).
			oRow[j] = max(oRow[j]+bv, 0)
		}
	case bias != nil:
		for j, bv := range bias {
			oRow[j] += bv
		}
	case relu:
		for j, v := range oRow {
			oRow[j] = max(v, 0)
		}
	}
}

// DedupRows returns the distinct rows of a feature matrix in
// first-occurrence order plus the mapping from each original row to its
// representative. Rows compare by exact bit pattern, so substituting a
// representative's results for a duplicate's is always bitwise safe.
func DedupRows(rows [][]float64) (uniq [][]float64, idx []int) {
	idx = make([]int, len(rows))
	uniq = make([][]float64, 0, len(rows))
	seen := make(map[string]int, len(rows)) //pruner:allow hotalloc — the dedup hash is the point: one map per chunk buys back whole projection GEMMs over duplicate rows
	var key []byte
	for i, r := range rows {
		key = key[:0]
		for _, v := range r {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		if j, ok := seen[string(key)]; ok {
			idx[i] = j
			continue
		}
		seen[string(key)] = len(uniq)
		idx[i] = len(uniq)
		uniq = append(uniq, r)
	}
	return uniq, idx
}

// GatherRows expands a deduplicated tensor: row i of the result is src
// row idx[i]. It is autograd-complete — the backward scatter-accumulates
// each output row's gradient into its representative (in ascending output
// row order, so gradients are deterministic) — which is what lets the
// training forward reuse the arena's dedup trick: projecting a distinct
// row once and gathering is bitwise identical in the forward and sums
// the duplicates' gradients in the backward.
func GatherRows(src *Tensor, idx []int) *Tensor {
	out := gatherRowsIn(nil, src, idx)
	if needsGrad(src) {
		out.enableGrad(func() {
			for i, j := range idx {
				base, obase := j*src.C, i*src.C
				for c := 0; c < src.C; c++ {
					addGrad(src, base+c, out.Grad[obase+c])
				}
			}
		}, src)
	}
	return out
}

// gatherRowsIn is GatherRows' forward: the row copies, with the output
// drawn from s (or the heap when s is nil) and no tape.
func gatherRowsIn(s *Scratch, src *Tensor, idx []int) *Tensor {
	out := newTensor(s, len(idx), src.C)
	for i, j := range idx {
		copy(out.Data[i*src.C:(i+1)*src.C], src.Data[j*src.C:(j+1)*src.C])
	}
	return out
}

// addLayerNormRowsIn computes LayerNormRows(Add(x, y), g, b) without the
// tape: the elementwise sum materialises in ascending index order (Add's
// order) and each row then normalises exactly as LayerNormRows'
// inference branch does, so the result is bitwise identical to the
// operator composition it replaces.
func addLayerNormRowsIn(s *Scratch, x, y, g, b *Tensor) *Tensor {
	shapeCheck("add", x, y)
	const eps = 1e-5
	if g.R != 1 || g.C != x.C || b.R != 1 || b.C != x.C {
		panic("nn: layernorm parameter shape mismatch")
	}
	sum := newTensor(s, x.R, x.C)
	for i := range sum.Data {
		sum.Data[i] = x.Data[i] + y.Data[i]
	}
	n := float64(x.C)
	out := newTensor(s, x.R, x.C)
	for i := 0; i < x.R; i++ {
		var mu float64
		for j := 0; j < x.C; j++ {
			mu += sum.Data[i*x.C+j]
		}
		mu /= n
		var va float64
		for j := 0; j < x.C; j++ {
			d := sum.Data[i*x.C+j] - mu
			va += d * d
		}
		va /= n
		inv := 1 / math.Sqrt(va+eps)
		for j := 0; j < x.C; j++ {
			idx := i*x.C + j
			nv := (sum.Data[idx] - mu) * inv
			out.Data[idx] = nv*g.Data[j] + b.Data[j]
		}
	}
	return out
}
