// One forward, two executors. Each cost model writes its batched
// forward once, over the Exec interface below, and the caller picks how
// it runs: Tape records the autograd operators a training step needs,
// while *Scratch runs no-tape fused kernels on a reusable arena for the
// verify-stage hot path (Predict, under FreezeParams). Both run their
// GEMMs through the same row kernel, gemmRow, whose inner loop is the
// one vectorised primitive axpy4 (axpy.go), so every output element is
// accumulated in exactly the same order on either executor — ascending
// over the contraction index — and the two produce bitwise identical
// values (the property the cost-model equivalence tests pin). The
// kernels assume finite weights: a zero activation then contributes an
// exact ±0.0 term, which cannot perturb any partial sum, so four terms
// go to axpy4 at once and only an all-zero block is skipped.
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
// softmax and the value mix run on one reused scratch row per query —
// no per-segment tensors — through the same gemmRow calls as the
// operator chain it replaces (SoftmaxRows(Scale(MatMul(qs, ksᵀ))) @ vs):
// scores against the segment's transposed key panel, then the value mix
// against its value rows, so every value is accumulated in the chain's
// order.
func (s *Scratch) attend(a *SelfAttention, x, q, k, v *Tensor, lens []int) *Tensor {
	engineAttnSegments.Add(uint64(len(lens)))
	C := x.C
	ctx := newTensor(s, x.R, C)
	scale := 1 / math.Sqrt(float64(a.dim))
	maxN := 0
	for _, n := range lens {
		maxN = max(maxN, n)
	}
	scores := scratchFloats(s, maxN)
	keysT := scratchFloats(s, C*maxN)
	off := 0
	for _, n := range lens {
		// kT is Transpose(ks): kT[kk*n+jj] = ks[jj][kk].
		kT := keysT[:C*n]
		for jj := 0; jj < n; jj++ {
			for kk, kv := range k.Data[(off+jj)*C : (off+jj+1)*C] {
				kT[kk*n+jj] = kv
			}
		}
		vs := v.Data[off*C : (off+n)*C]
		row := scores[:n]
		for r := off; r < off+n; r++ {
			clear(row)
			gemmRow(row, q.Data[r*C:(r+1)*C], kT, nil)
			softmaxRow(row, scale)
			gemmRow(ctx.Data[r*C:(r+1)*C], row, vs, nil)
		}
		off += n
	}
	if off != x.R {
		panic(fmt.Sprintf("nn: ForwardSegments lengths sum to %d, tensor has %d rows", off, x.R))
	}
	return addLayerNormRowsIn(s, x, s.dense(a.O, ctx), a.Norm.G, a.Norm.B)
}

// softmaxRow scales a row of raw scores in place and replaces it with
// its softmax — Scale then SoftmaxRows' operation order on one row.
func softmaxRow(row []float64, scale float64) {
	m := math.Inf(-1)
	for jj, sv := range row {
		row[jj] = sv * scale
		m = math.Max(m, row[jj])
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
// with the output and the nonzero-column index drawn from s. Each output
// row accumulates its terms in ascending k through axpy4 (gemmRow), so
// the result is bitwise identical to [ReLU](AddBias)(MatMul(x, w)) for
// finite w.
func matmulFusedIn(s *Scratch, x, w *Tensor, bias []float64, relu bool) *Tensor {
	// Contract only over columns that are nonzero somewhere in the batch.
	// Feature matrices carry long structurally-zero column runs (padding
	// tails, unused one-hot slots); those columns contribute an exact zero
	// to every output element, so dropping them skips their terms at no
	// cost to the bits.
	return matmulFusedNz(s, x, w, bias, relu, nonzeroColsIn(s, x))
}

// matmulFusedDenseIn is the kernel entry for activation matrices (post
// projection or ReLU): no structurally-zero columns worth scanning for,
// so it contracts over every column. Processing zero terms stays
// bitwise-safe (finite weights), so the result is identical to
// matmulFusedIn on the same operands.
func matmulFusedDenseIn(s *Scratch, x, w *Tensor, bias []float64, relu bool) *Tensor {
	return matmulFusedNz(s, x, w, bias, relu, nil)
}

func matmulFusedNz(s *Scratch, x, w *Tensor, bias []float64, relu bool, nz []int) *Tensor {
	if x.C != w.R {
		panic(fmt.Sprintf("nn: matmulFused %dx%d @ %dx%d", x.R, x.C, w.R, w.C))
	}
	engineGEMMCalls.Add(1)
	engineGEMMRows.Add(uint64(x.R))
	out := newTensor(s, x.R, w.C)
	for i := 0; i < x.R; i++ {
		oRow := out.Data[i*w.C : (i+1)*w.C]
		gemmRow(oRow, x.Data[i*x.C:(i+1)*x.C], w.Data, nz)
		epilogue(oRow, bias, relu)
	}
	return out
}

// gemmRow accumulates aRow @ w into oRow, where w holds len(aRow) rows
// of len(oRow) values, over the contraction indices nz (ascending; nil
// means every index), four terms per axpy4 call. Per element the terms
// add in ascending k — the chained v += a*w form of the plain loop — and
// a block whose four activations are all zero is skipped outright
// (feature rows carry long zero tails). A zero activation inside a live
// block adds an exact ±0.0, which cannot change a partial sum for finite
// w.
func gemmRow(oRow, aRow, w []float64, nz []int) {
	C := len(oRow)
	n := len(aRow)
	if nz != nil {
		n = len(nz)
	}
	t := 0
	for ; t+4 <= n; t += 4 {
		k0, k1, k2, k3 := col(nz, t), col(nz, t+1), col(nz, t+2), col(nz, t+3)
		a0, a1, a2, a3 := aRow[k0], aRow[k1], aRow[k2], aRow[k3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		axpy4(oRow, w[k0*C:k0*C+C], w[k1*C:k1*C+C], w[k2*C:k2*C+C], w[k3*C:k3*C+C], a0, a1, a2, a3)
	}
	for ; t < n; t++ {
		k := col(nz, t)
		if a := aRow[k]; a != 0 {
			axpy1(oRow, w[k*C:k*C+C], a)
		}
	}
}

// col is the t-th contraction index: nz[t], or t itself when nz is nil.
func col(nz []int, t int) int {
	if nz == nil {
		return t
	}
	return nz[t]
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
