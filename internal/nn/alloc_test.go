package nn

import (
	"math/rand"
	"testing"
)

// The zero-allocation gates: once a Scratch has warmed to the call
// pattern's steady-state shapes, the arena executor's methods must not
// touch the heap at all. This is the dynamic cross-check of the static
// hotalloc analyzer — the analyzer proves no allocating constructs are
// reachable from the //pruner:hotpath roots, these tests prove the arena
// actually absorbs every output buffer. A regression in either shows up
// as a nonzero average from testing.AllocsPerRun.

// mustZeroAllocs pins f, run on a freshly Reset arena, to zero
// steady-state heap allocations.
func mustZeroAllocs(t *testing.T, name string, f func(s *Scratch)) {
	t.Helper()
	var s Scratch
	run := func() {
		s.Reset()
		f(&s)
	}
	run() // warm the arena to steady-state shapes
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("%s: %v allocs per warmed run, want 0", name, avg)
	}
}

// randRows returns n feature rows of the given width.
func randRows(rng *rand.Rand, n, width int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = randConst(rng, 1, width).Data
	}
	return rows
}

func TestAllocScratchMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	mlp := NewMLP(rng, 9, 16, 16, 1)
	x := randConst(rng, 24, 9)
	mustZeroAllocs(t, "Scratch.MLP", func(s *Scratch) { s.MLP(mlp, x) })
}

func TestAllocScratchMLPReLURows(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	mlp := NewMLP(rng, 9, 16, 1)
	rows := randRows(rng, 24, 9)
	mustZeroAllocs(t, "Scratch.MLPReLURows", func(s *Scratch) { s.MLPReLURows(mlp, rows) })
}

func TestAllocScratchLinearRows(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	lin := NewLinear(rng, 9, 6)
	rows := randRows(rng, 24, 9)
	mustZeroAllocs(t, "Scratch.LinearRows", func(s *Scratch) { s.LinearRows(lin, rows) })
}

// The two attention gates keep the names they had when segment attention
// ran on a frozen attention module; both now gate Scratch.AttentionDedup.

// TestAllocFrozenAttentionForwardSegmentsIn gates segment attention over
// distinct tokens: uniq is the token matrix itself and idx the identity.
func TestAllocFrozenAttentionForwardSegmentsIn(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	attn := NewSelfAttention(rng, 6)
	x := randConst(rng, 12, 6)
	idx := make([]int, x.R)
	for i := range idx {
		idx[i] = i
	}
	lens := []int{4, 3, 5}
	mustZeroAllocs(t, "Scratch.AttentionDedup (identity idx)", func(s *Scratch) { s.AttentionDedup(attn, x, idx, lens) })
}

// TestAllocFrozenAttentionForwardSegmentsDedupIn gates segment attention
// over repeated tokens gathered from a smaller distinct-row matrix.
func TestAllocFrozenAttentionForwardSegmentsDedupIn(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	attn := NewSelfAttention(rng, 6)
	uniq := randConst(rng, 5, 6)
	idx := []int{0, 1, 0, 2, 3, 0, 4, 1, 2}
	lens := []int{3, 2, 4}
	mustZeroAllocs(t, "Scratch.AttentionDedup", func(s *Scratch) { s.AttentionDedup(attn, uniq, idx, lens) })
}

func TestAllocScratchSegmentReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	x := randConst(rng, 11, 7)
	lens := []int{3, 1, 5, 2}
	mustZeroAllocs(t, "Scratch.SegmentSum", func(s *Scratch) { s.SegmentSum(x, lens) })
	mustZeroAllocs(t, "Scratch.SegmentMean", func(s *Scratch) { s.SegmentMean(x, lens) })
}

func TestAllocScratchTanhConcatCols(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	a, b := randConst(rng, 6, 3), randConst(rng, 6, 4)
	mustZeroAllocs(t, "Scratch.Tanh", func(s *Scratch) { s.Tanh(a) })
	mustZeroAllocs(t, "Scratch.ConcatCols", func(s *Scratch) { s.ConcatCols(a, b) })
}

// TestScratchVariantsBitwiseIdentical pins that every arena method
// produces exactly the bits of the tape executor — the contract that
// lets one model forward serve both Fit and Predict.
func TestScratchVariantsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	var s Scratch
	var tape Tape
	check := func(name string, got func() *Tensor, want *Tensor) {
		t.Helper()
		s.Reset()
		bitwiseEqual(t, name, got(), want)
	}

	mlp := NewMLP(rng, 9, 16, 16, 1)
	x := randConst(rng, 12, 9)
	check("mlp", func() *Tensor { return s.MLP(mlp, x) }, tape.MLP(mlp, x))

	rows := randRows(rng, 10, 9)
	check("mlp relu rows", func() *Tensor { return s.MLPReLURows(mlp, rows) }, tape.MLPReLURows(mlp, rows))
	lin := NewLinear(rng, 9, 6)
	check("linear rows", func() *Tensor { return s.LinearRows(lin, rows) }, tape.LinearRows(lin, rows))

	attn := NewSelfAttention(rng, 6)
	uniq := randConst(rng, 5, 6)
	idx := []int{0, 1, 0, 2, 3, 0, 4, 1, 2, 0, 3, 4}
	lens := []int{4, 3, 5}
	check("attention dedup",
		func() *Tensor { return s.AttentionDedup(attn, uniq, idx, lens) }, tape.AttentionDedup(attn, uniq, idx, lens))

	seg := randConst(rng, 11, 7)
	segLens := []int{3, 1, 5, 2}
	check("segment sum", func() *Tensor { return s.SegmentSum(seg, segLens) }, tape.SegmentSum(seg, segLens))
	check("segment mean", func() *Tensor { return s.SegmentMean(seg, segLens) }, tape.SegmentMean(seg, segLens))
	check("tanh", func() *Tensor { return s.Tanh(seg) }, tape.Tanh(seg))
	a, b := randConst(rng, 6, 3), randConst(rng, 6, 4)
	check("concat cols", func() *Tensor { return s.ConcatCols(a, b) }, tape.ConcatCols(a, b))
}

// TestScratchReuse pins the arena contract: after Reset the same slots
// come back (no growth), zeroed, and headers carry no tape state.
func TestScratchReuse(t *testing.T) {
	var s Scratch
	t1 := s.tensor(3, 4)
	t1.Data[0] = 7
	buf := s.floats(8)
	buf[3] = 9
	s.Reset()
	t2 := s.tensor(3, 4)
	if &t2.Data[0] != &t1.Data[0] {
		t.Error("tensor storage not reused after Reset")
	}
	for i, v := range t2.Data {
		if v != 0 {
			t.Fatalf("reused tensor entry %d not zeroed: %v", i, v)
		}
	}
	buf2 := s.floats(4)
	if &buf2[0] != &buf[0] {
		t.Error("float buffer not reused after Reset for smaller request")
	}
	if buf2[3] != 0 {
		// buf2 is len 4; index 3 was 9 in the old larger buffer only if
		// shared storage — the clear must have wiped it.
		t.Error("reused float buffer not zeroed")
	}
	if t2.requiresGrad || t2.back != nil || t2.prev != nil || t2.Grad != nil {
		t.Error("scratch tensor carries tape state")
	}
}
