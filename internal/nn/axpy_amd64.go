package nn

// useAVX selects the assembly axpy bodies. It is decided once, at
// package init, from the CPU and never changes afterwards (tests flip it
// to run the generic loops).
var useAVX = hasAVX()

// hasAVX reports whether the CPU supports AVX and the OS saves the YMM
// state across context switches: CPUID.1:ECX must have OSXSAVE (bit 27)
// and AVX (bit 28), and XCR0 must enable both SSE and AVX state (bits 1
// and 2). XGETBV may only run once OSXSAVE is known to be set.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

//go:noescape
func axpy4AVX(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func axpy1AVX(dst, x []float64, a float64)

func cpuid1ECX() uint32

func xgetbv0() uint32
