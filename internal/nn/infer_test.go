package nn

import (
	"math"
	"math/rand"
	"testing"
)

// bitwiseEqual asserts two tensors match exactly — the engine's contract
// is bitwise identity, not approximate equality.
func bitwiseEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d: %v (bits %x) want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// randConst returns a constant tensor with Gaussian entries and a sprinkle
// of exact zeros, exercising the matmul zero-skip path.
func randConst(rng *rand.Rand, r, c int) *Tensor {
	x := New(r, c)
	for i := range x.Data {
		if rng.Intn(5) == 0 {
			continue // exact zero
		}
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func TestSegmentSumRowsMatchesPerSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lens := []int{3, 1, 5, 2}
	x := randConst(rng, 11, 7)
	got := SegmentSumRows(x, lens)
	row := 0
	for s, n := range lens {
		seg := RowsView(x, row, row+n)
		want := SumRows(seg)
		for j := 0; j < x.C; j++ {
			if math.Float64bits(got.At(s, j)) != math.Float64bits(want.At(0, j)) {
				t.Fatalf("segment %d col %d: %v want %v", s, j, got.At(s, j), want.At(0, j))
			}
		}
		row += n
	}
}

func TestSegmentMeanRowsMatchesPerSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lens := []int{4, 2, 6}
	x := randConst(rng, 12, 5)
	got := SegmentMeanRows(x, lens)
	row := 0
	for s, n := range lens {
		want := MeanRows(RowsView(x, row, row+n))
		for j := 0; j < x.C; j++ {
			if math.Float64bits(got.At(s, j)) != math.Float64bits(want.At(0, j)) {
				t.Fatalf("segment %d col %d: %v want %v", s, j, got.At(s, j), want.At(0, j))
			}
		}
		row += n
	}
}

func TestGradSegmentSumRows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randParam(rng, 6, 3)
	w := randParam(rng, 3, 3)
	checkGrads(t, "segmentsumrows", []*Tensor{x}, func() *Tensor {
		s := SegmentSumRows(x, []int{2, 3, 1})
		return MeanAll(Mul(s, w))
	})
}

func TestGradSegmentMeanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randParam(rng, 5, 4)
	w := randParam(rng, 2, 4)
	checkGrads(t, "segmentmeanrows", []*Tensor{x}, func() *Tensor {
		s := SegmentMeanRows(x, []int{4, 1})
		return MeanAll(Mul(s, w))
	})
}

func TestSegmentOpsPanicOnBadLengths(t *testing.T) {
	x := New(4, 2)
	for _, tc := range []struct {
		name string
		lens []int
	}{
		{"short", []int{1, 2}},
		{"long", []int{3, 3}},
		{"zero", []int{4, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			SegmentSumRows(x, tc.lens)
		}()
	}
}

func TestMatMulFusedMatchesOps(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// Contraction widths around the 4-wide block edge exercise the tail
	// loop; sprinkled zeros exercise the all-zero-block skip and the
	// mixed-block ±0.0 path.
	for _, shape := range [][3]int{{5, 7, 9}, {1, 4, 4}, {3, 11, 2}, {8, 3, 13}, {6, 16, 8}} {
		r, k, c := shape[0], shape[1], shape[2]
		a := randConst(rng, r, k)
		w := randConst(rng, k, c)
		bias := make([]float64, c)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}
		bt := FromVec(bias)
		bitwiseEqual(t, "fused plain", matmulFusedIn(nil, a, w, nil, false), MatMul(a, w))
		bitwiseEqual(t, "fused bias", matmulFusedIn(nil, a, w, bias, false), AddBias(MatMul(a, w), bt))
		bitwiseEqual(t, "fused bias+relu", matmulFusedIn(nil, a, w, bias, true), ReLU(AddBias(MatMul(a, w), bt)))
		bitwiseEqual(t, "fused relu", matmulFusedIn(nil, a, w, nil, true), ReLU(MatMul(a, w)))
	}
}

// TestMatMulFusedAllZeroRow pins the sparse fast path: rows of exact
// zeros (feature padding) must produce the same bits as the tape kernel.
func TestMatMulFusedAllZeroRow(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := New(3, 8) // all zeros
	a.Data[2*8+5] = rng.NormFloat64()
	w := randConst(rng, 8, 6)
	bitwiseEqual(t, "zero rows", matmulFusedIn(nil, a, w, nil, false), MatMul(a, w))
}

func TestRowsViewSharesData(t *testing.T) {
	x := randConst(rand.New(rand.NewSource(26)), 6, 4)
	v := RowsView(x, 2, 5)
	if v.R != 3 || v.C != 4 {
		t.Fatalf("view shape %dx%d", v.R, v.C)
	}
	x.Set(3, 1, 42)
	if v.At(1, 1) != 42 {
		t.Fatal("view must alias the parent's data")
	}
	rng := rand.New(rand.NewSource(27))
	p := Param(rng, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("RowsView of a parameter should panic")
		}
	}()
	RowsView(p, 0, 1)
}

// TestFrozenModulesBitwiseIdentical pins the arena executor's core
// contract: with the modules' parameters frozen, each Scratch method is
// bitwise identical to the Module forward it stands in for.
func TestFrozenModulesBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(28))

	lin := NewLinear(rng, 9, 6)
	mlp := NewMLP(rng, 9, 16, 16, 1)
	attn := NewSelfAttention(rng, 6)
	var params []*Tensor
	params = append(params, lin.Params()...)
	params = append(params, mlp.Params()...)
	params = append(params, attn.Params()...)
	defer FreezeParams(params)()

	var s Scratch
	x := randConst(rng, 12, 9)
	rows := make([][]float64, x.R)
	for i := range rows {
		rows[i] = x.Data[i*x.C : (i+1)*x.C]
	}
	bitwiseEqual(t, "linear rows", s.LinearRows(lin, rows), lin.Forward(x))
	bitwiseEqual(t, "mlp", s.MLP(mlp, x), mlp.Forward(x))
	bitwiseEqual(t, "mlp relu rows", s.MLPReLURows(mlp, rows), ReLU(mlp.Forward(x)))

	// Attention over segments (identity dedup index) vs per-segment
	// module forwards.
	lens := []int{4, 3, 5}
	tokens := randConst(rng, 12, 6)
	idx := make([]int, tokens.R)
	for i := range idx {
		idx[i] = i
	}
	got := s.AttentionDedup(attn, tokens, idx, lens)
	row := 0
	for sg, n := range lens {
		want := attn.Forward(RowsView(tokens, row, row+n))
		seg := RowsView(got, row, row+n)
		bitwiseEqual(t, "attention segment "+string(rune('0'+sg)), seg, want)
		row += n
	}
}

// TestInferenceForwardBuildsNoTape verifies the no-tape property end to
// end: under FreezeParams an op-composed forward and the arena
// executor's forward both come back without autograd state.
func TestInferenceForwardBuildsNoTape(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mlp := NewMLP(rng, 4, 8, 1)
	restore := FreezeParams(mlp.Params())
	defer restore()
	x := randConst(rng, 3, 4)
	for name, y := range map[string]*Tensor{
		"module": SegmentSumRows(ReLU(mlp.Forward(x)), []int{1, 2}),
		"arena":  new(Scratch).MLP(mlp, x),
	} {
		if y.requiresGrad || y.back != nil || y.prev != nil || y.Grad != nil {
			t.Fatalf("%s inference forward carries tape state", name)
		}
	}
}
