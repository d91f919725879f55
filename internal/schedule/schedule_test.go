package schedule

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pruner/internal/ir"
)

func testTask() *ir.Task {
	return ir.NewMatMul(512, 384, 768, ir.FP32, 1)
}

func TestRandomScheduleValid(t *testing.T) {
	task := testTask()
	g := NewGenerator(task)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := g.Random(rng)
		if err := s.Validate(task); err != nil {
			t.Fatalf("random schedule invalid: %v", err)
		}
		if s.ThreadsPerBlock() > g.MaxThreads {
			t.Fatalf("threads %d over limit", s.ThreadsPerBlock())
		}
	}
}

func TestMutateCrossoverPreserveValidity(t *testing.T) {
	task := ir.NewConv2D(ir.Conv2DShape{
		N: 1, H: 28, W: 28, CI: 128, CO: 256, KH: 3, KW: 3, Stride: 1, Pad: 1,
	}, ir.FP32, 1)
	g := NewGenerator(task)
	g.MaxSharedWords = 12288
	rng := rand.New(rand.NewSource(2))
	a, b := g.Random(rng), g.Random(rng)
	for i := 0; i < 300; i++ {
		a = g.Mutate(rng, a)
		if err := a.Validate(task); err != nil {
			t.Fatalf("mutation %d invalid: %v", i, err)
		}
		c := g.Crossover(rng, a, b)
		if err := c.Validate(task); err != nil {
			t.Fatalf("crossover %d invalid: %v", i, err)
		}
		b = c
	}
}

// TestFactorizationProperty: random factorisations always multiply back to
// the extent (property-based).
func TestFactorizationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(extent16 uint16, parts8 uint8) bool {
		extent := int(extent16%4096) + 1
		parts := int(parts8%5) + 1
		fs := make([]int, parts)
		randomFactorization(rng, extent, fs)
		p := 1
		for _, v := range fs {
			if v <= 0 {
				return false
			}
			p *= v
		}
		return p == extent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// referenceFactorization is the allocating sampler randomFactorization
// replaced: factorize first, then send each prime to a random level.
func referenceFactorization(rng *rand.Rand, extent, parts int) []int {
	out := make([]int, parts)
	for i := range out {
		out[i] = 1
	}
	for _, p := range primeFactors(extent) {
		out[rng.Intn(parts)] *= p
	}
	return out
}

// TestFactorizationMatchesReference pins the in-place sampler to the
// allocating one it replaced: the same factors land on the same levels
// and the RNG is left in the same state, over a long shared run of draws.
func TestFactorizationMatchesReference(t *testing.T) {
	got := rand.New(rand.NewSource(8))
	want := rand.New(rand.NewSource(8))
	shape := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		extent := shape.Intn(1<<14) + 1
		parts := shape.Intn(5) + 1
		tile := make([]int, parts)
		tile[0] = 7 // stale contents must be overwritten
		randomFactorization(got, extent, tile)
		ref := referenceFactorization(want, extent, parts)
		if fmt.Sprint(tile) != fmt.Sprint(ref) {
			t.Fatalf("extent %d into %d: got %v, want %v", extent, parts, tile, ref)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("RNG state diverged: next draw %d, want %d", g, w)
	}
}

func TestFactorizationCount(t *testing.T) {
	// 12 = 2^2 * 3 into 2 parts: C(3,1)*C(2,1) = 6 ordered factorisations.
	if got := FactorizationCount(12, 2); got != 6 {
		t.Fatalf("FactorizationCount(12,2) = %d, want 6", got)
	}
	// A prime into k parts has k placements.
	if got := FactorizationCount(7, 5); got != 5 {
		t.Fatalf("FactorizationCount(7,5) = %d, want 5", got)
	}
	if got := FactorizationCount(1, 3); got != 1 {
		t.Fatalf("FactorizationCount(1,3) = %d, want 1", got)
	}
}

func TestSpaceSizeIsLarge(t *testing.T) {
	// The paper: GPU spaces reach billions of candidates.
	task := ir.NewConv2D(ir.Conv2DShape{
		N: 1, H: 56, W: 56, CI: 256, CO: 512, KH: 3, KW: 3, Stride: 1, Pad: 1,
	}, ir.FP32, 1)
	if s := SpaceSize(task); s < 1e9 {
		t.Fatalf("space size %.3g; want >= 1e9", s)
	}
}

func TestFingerprintIdentity(t *testing.T) {
	task := testTask()
	g := NewGenerator(task)
	rng := rand.New(rand.NewSource(4))
	s := g.Random(rng)
	c := s.Clone()
	if s.Fingerprint() != c.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	m := g.Mutate(rng, s)
	if m.Fingerprint() == s.Fingerprint() {
		t.Log("mutation returned an equivalent schedule (allowed, rare)")
	}
	// Clone must be deep: mutating the clone cannot touch the original.
	c.SpatialTiles[0][0] = 999
	if s.SpatialTiles[0][0] == 999 {
		t.Fatal("Clone shares tile storage")
	}
}

func TestClampThreads(t *testing.T) {
	task := ir.NewMatMul(4096, 4096, 64, ir.FP32, 0)
	g := NewGenerator(task)
	g.MaxThreads = 128
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		s := g.Random(rng)
		if s.ThreadsPerBlock() > 128 {
			t.Fatalf("clamp failed: %d threads", s.ThreadsPerBlock())
		}
	}
}

func TestElementwiseSketchFlat(t *testing.T) {
	task := ir.NewElementwise(1<<16, 2, ir.FP32)
	g := NewGenerator(task)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		s := g.Random(rng)
		if s.UseShared {
			t.Fatal("elementwise sketch must not use shared memory")
		}
		if s.VThreads() != 1 {
			t.Fatalf("elementwise sketch has vthreads %d", s.VThreads())
		}
	}
}

func TestTensorCoreAlignment(t *testing.T) {
	task := ir.NewMatMul(512, 512, 256, ir.FP16, 0)
	g := NewGenerator(task)
	g.TensorCore = true
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		s := g.Random(rng)
		if !s.TensorCore {
			continue // clamp fallback path may drop alignment
		}
		n := len(s.SpatialTiles)
		m := s.RegTile(n-2) * s.SpatialTiles[n-2][LvlThread]
		nn := s.RegTile(n-1) * s.SpatialTiles[n-1][LvlThread]
		if m%16 != 0 || nn%16 != 0 {
			t.Fatalf("unaligned TC tile %dx%d", m, nn)
		}
	}
}

func TestInitPopulationDistinct(t *testing.T) {
	task := testTask()
	g := NewGenerator(task)
	rng := rand.New(rand.NewSource(8))
	pop := g.InitPopulation(rng, 128)
	if len(pop) != 128 {
		t.Fatalf("population %d want 128", len(pop))
	}
	seen := map[string]bool{}
	dups := 0
	for _, s := range pop {
		fp := s.Fingerprint()
		if seen[fp] {
			dups++
		}
		seen[fp] = true
	}
	if dups > 5 {
		t.Fatalf("%d duplicate schedules in population", dups)
	}
}

func TestMaxSharedWordsRespected(t *testing.T) {
	task := ir.NewMatMul(2048, 2048, 2048, ir.FP32, 0)
	g := NewGenerator(task)
	g.MaxSharedWords = 12288 // 48 KiB
	rng := rand.New(rand.NewSource(9))
	over := 0
	for i := 0; i < 100; i++ {
		s := g.Random(rng)
		lw := Lower(task, s)
		if lw.SharedPerBlock > float64(g.MaxSharedWords) {
			over++
		}
	}
	// The clamp fallback can occasionally exceed; it must be rare.
	if over > 10 {
		t.Fatalf("%d/100 schedules exceed the shared-memory budget", over)
	}
}

// TestFingerprintFormatStable pins Fingerprint to the historical
// fmt-based format: the string feeds the simulator's micro-jitter hash,
// so changing its bytes would silently re-roll the calibrated ground
// truth.
func TestFingerprintFormatStable(t *testing.T) {
	task := ir.NewMatMul(64, 96, 128, ir.FP32, 0)
	g := NewGenerator(task)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		s := g.Random(rng)
		var sb strings.Builder
		for _, tile := range s.SpatialTiles {
			fmt.Fprintf(&sb, "s%v", tile)
		}
		for _, tile := range s.ReduceTiles {
			fmt.Fprintf(&sb, "r%v", tile)
		}
		fmt.Fprintf(&sb, "|u%d|v%d|sh%t|tc%t", s.UnrollStep, s.VectorLen, s.UseShared, s.TensorCore)
		if got := s.Fingerprint(); got != sb.String() {
			t.Fatalf("fingerprint format drifted:\n got %s\nwant %s", got, sb.String())
		}
		if s.Fingerprint() != s.Fingerprint() {
			t.Fatal("cached fingerprint unstable")
		}
	}
	// Clones must not inherit the cache: the genetic operators mutate them.
	s := g.Random(rng)
	_ = s.Fingerprint()
	c := g.Mutate(rng, s)
	var sb strings.Builder
	for _, tile := range c.SpatialTiles {
		fmt.Fprintf(&sb, "s%v", tile)
	}
	for _, tile := range c.ReduceTiles {
		fmt.Fprintf(&sb, "r%v", tile)
	}
	fmt.Fprintf(&sb, "|u%d|v%d|sh%t|tc%t", c.UnrollStep, c.VectorLen, c.UseShared, c.TensorCore)
	if c.Fingerprint() != sb.String() {
		t.Fatal("mutated clone fingerprint stale")
	}
}
