package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withGenericAxpy runs f with the generic axpy loops forced, restoring
// the init-time dispatch afterwards.
func withGenericAxpy(f func()) {
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	f()
}

// axpyValue draws an input covering the cases where a vector body could
// part ways with the scalar one: signed zeros, subnormals, values whose
// products overflow or underflow, infinities and NaN, mixed in with
// ordinary Gaussian values.
func axpyValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 3:
		return -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 4:
		return math.MaxFloat64 / float64(1+rng.Intn(4))
	case 5:
		return 1e-300 * rng.NormFloat64()
	case 6:
		return math.Inf(1 - 2*rng.Intn(2))
	case 7:
		return math.NaN()
	default:
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(64)-32))
	}
}

// sameBits compares element-wise by bit pattern. Two NaNs count as
// equal: which NaN payload survives an operation on two NaN operands
// depends on the order the instruction takes its operands in, which the
// Go compiler does not fix, and no result of the package's contract is
// NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestAxpyMatchesGeneric pins the assembly axpy bodies to the generic
// loops bit for bit, over every length through the vector and tail
// paths, on sub-slices that start off any vector alignment.
func TestAxpyMatchesGeneric(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX axpy on this CPU or architecture")
	}
	rng := rand.New(rand.NewSource(81))
	fill := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = axpyValue(rng)
		}
		return xs
	}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			// Offsets of 0..3 elements move every slice off 32-byte
			// alignment independently.
			off := func() int { return rng.Intn(4) }
			dst := fill(n + 3)[off():][:n]
			xs := [4][]float64{}
			for i := range xs {
				xs[i] = fill(n + 6)[off():][:n+rng.Intn(3)]
			}
			a := [4]float64{axpyValue(rng), axpyValue(rng), axpyValue(rng), axpyValue(rng)}
			if trial == 0 {
				a = [4]float64{1, -0.5, 3, 0} // finite coefficients, ordinary sums
			}

			got4, want4 := append([]float64(nil), dst...), append([]float64(nil), dst...)
			axpy4(got4, xs[0], xs[1], xs[2], xs[3], a[0], a[1], a[2], a[3])
			axpy4Generic(want4, xs[0], xs[1], xs[2], xs[3], a[0], a[1], a[2], a[3])
			got1, want1 := append([]float64(nil), dst...), append([]float64(nil), dst...)
			axpy1(got1, xs[0], a[0])
			axpy1Generic(want1, xs[0], a[0])
			for j := 0; j < n; j++ {
				if !sameBits(got4[j], want4[j]) {
					t.Fatalf("axpy4 n=%d trial=%d j=%d: asm %v (%#x) generic %v (%#x)",
						n, trial, j, got4[j], math.Float64bits(got4[j]), want4[j], math.Float64bits(want4[j]))
				}
				if !sameBits(got1[j], want1[j]) {
					t.Fatalf("axpy1 n=%d trial=%d j=%d: asm %v (%#x) generic %v (%#x)",
						n, trial, j, got1[j], math.Float64bits(got1[j]), want1[j], math.Float64bits(want1[j]))
				}
			}
		}
	}
}

// TestAxpyWritesOnlyDst pins that both bodies touch dst[:len(dst)] and
// nothing past it, even when the backing array continues.
func TestAxpyWritesOnlyDst(t *testing.T) {
	for _, generic := range []bool{false, true} {
		run := func() {
			for n := 0; n <= 9; n++ {
				backing := make([]float64, n+4)
				for i := range backing {
					backing[i] = 7
				}
				x := make([]float64, n)
				for i := range x {
					x[i] = 1
				}
				axpy4(backing[:n], x, x, x, x, 1, 1, 1, 1)
				axpy1(backing[:n], x, 1)
				for i, v := range backing {
					want := 7.0
					if i < n {
						want = 12
					}
					if v != want {
						t.Fatalf("generic=%v n=%d: element %d = %v, want %v", generic, n, i, v, want)
					}
				}
			}
		}
		if generic {
			withGenericAxpy(run)
		} else {
			run()
		}
	}
}

// TestGenericAxpyKeepsKernelBits reruns the executor-equivalence tests
// and the pinned kernel digest with the generic loops forced, so both
// axpy bodies are held to the same bits on a machine that has AVX.
func TestGenericAxpyKeepsKernelBits(t *testing.T) {
	withGenericAxpy(func() {
		t.Run("ScratchVariantsBitwiseIdentical", TestScratchVariantsBitwiseIdentical)
		t.Run("FrozenModulesBitwiseIdentical", TestFrozenModulesBitwiseIdentical)
		t.Run("AffineMatchesChain", TestAffineMatchesChain)
		t.Run("KernelDigestPinned", TestKernelDigestPinned)
	})
}

// BenchmarkAxpy compares the two axpy4 bodies at the row widths the
// cost models run (hidden widths 48, 64 and 96).
func BenchmarkAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(82))
	for _, n := range []int{48, 64, 96} {
		dst := make([]float64, n)
		var xs [4][]float64
		for i := range xs {
			xs[i] = randConst(rng, 1, n).Data
		}
		for _, body := range []struct {
			name string
			run  func()
		}{
			{"asm", func() { axpy4(dst, xs[0], xs[1], xs[2], xs[3], 0.5, -0.25, 0.125, 1) }},
			{"generic", func() { axpy4Generic(dst, xs[0], xs[1], xs[2], xs[3], 0.5, -0.25, 0.125, 1) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", body.name, n), func(b *testing.B) {
				if body.name == "asm" && !useAVX {
					b.Skip("no AVX axpy on this CPU or architecture")
				}
				for b.Loop() {
					clear(dst)
					body.run()
				}
			})
		}
	}
}
