// Package schedule defines the search space of the tuner: Ansor-style
// multi-level tiling schedules over ir.Task loop nests, their random
// sampling and genetic operators, and the lowering of (task, schedule)
// pairs into the buffer statements the analyzer, feature extractors and
// simulator consume.
//
// Tiling convention (matching the paper's Figure 3): every spatial axis is
// split into five levels [Grid, Thread, VThread, Inner0, Inner1] whose
// product equals the axis extent; every reduction axis into three levels
// [Outer, Mid, Inner]. Level 0 maps to blockIdx, level 1 to threadIdx,
// level 2 to virtual threads, levels 3-4 stay in registers. The reduction
// Outer level is the loop that re-fills shared memory.
package schedule

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"pruner/internal/ir"
)

// Spatial tile level indices.
const (
	LvlGrid = iota
	LvlThread
	LvlVThread
	LvlInner0
	LvlInner1
	NumSpatialLevels
)

// Reduction tile level indices.
const (
	RLvlOuter = iota
	RLvlMid
	RLvlInner
	NumReduceLevels
)

// UnrollSteps are the auto-unroll annotation choices (0 disables).
var UnrollSteps = []int{0, 16, 64, 512, 1024}

// VectorLens are the vectorised-access annotation choices.
var VectorLens = []int{1, 2, 4}

// Schedule is one point in the search space for a task.
type Schedule struct {
	SpatialTiles [][NumSpatialLevels]int
	ReduceTiles  [][NumReduceLevels]int
	UnrollStep   int
	VectorLen    int
	// UseShared enables the cooperative shared-memory cache-read stage.
	// Sketch rules force it on for tiled tasks; it is part of the space so
	// ablations can disable it.
	UseShared bool
	// TensorCore requests wmma execution (FP16 tiled tasks only). Inner
	// spatial/reduction tiles must align to the device fragment size.
	TensorCore bool

	// fp caches Fingerprint. Schedules are immutable once the generator
	// returns them; the cache is atomic because measurement workers may
	// fingerprint concurrently. The profile showed fingerprinting inside
	// sort comparators dominating the serial portion of a tuning round.
	fp atomic.Pointer[string]
}

// Clone returns a deep copy. The fingerprint cache is deliberately not
// carried over: the genetic operators clone precisely in order to mutate.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		UnrollStep: s.UnrollStep,
		VectorLen:  s.VectorLen,
		UseShared:  s.UseShared,
		TensorCore: s.TensorCore,
	}
	c.SpatialTiles = make([][NumSpatialLevels]int, len(s.SpatialTiles))
	copy(c.SpatialTiles, s.SpatialTiles)
	c.ReduceTiles = make([][NumReduceLevels]int, len(s.ReduceTiles))
	copy(c.ReduceTiles, s.ReduceTiles)
	return c
}

// Fingerprint is a canonical string identity for deduplication.
func (s *Schedule) Fingerprint() string {
	if p := s.fp.Load(); p != nil {
		return *p
	}
	// Built with strconv rather than fmt (an order of magnitude cheaper),
	// but byte-identical to the historical fmt-based format: the string
	// also feeds the simulator's deterministic micro-jitter hash, so its
	// exact bytes are part of the calibrated ground truth.
	b := make([]byte, 0, 24*(len(s.SpatialTiles)+len(s.ReduceTiles))+32)
	appendTile := func(prefix byte, tile []int) {
		b = append(b, prefix, '[')
		for i, v := range tile {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	for i := range s.SpatialTiles {
		appendTile('s', s.SpatialTiles[i][:])
	}
	for i := range s.ReduceTiles {
		appendTile('r', s.ReduceTiles[i][:])
	}
	b = append(b, "|u"...)
	b = strconv.AppendInt(b, int64(s.UnrollStep), 10)
	b = append(b, "|v"...)
	b = strconv.AppendInt(b, int64(s.VectorLen), 10)
	b = append(b, "|sh"...)
	b = strconv.AppendBool(b, s.UseShared)
	b = append(b, "|tc"...)
	b = strconv.AppendBool(b, s.TensorCore)
	str := string(b)
	s.fp.Store(&str)
	return str
}

// ThreadsPerBlock is the product of thread-level tile extents.
func (s *Schedule) ThreadsPerBlock() int {
	t := 1
	for _, tile := range s.SpatialTiles {
		t *= tile[LvlThread]
	}
	return t
}

// Blocks is the grid size (product of grid-level tile extents).
func (s *Schedule) Blocks() int64 {
	b := int64(1)
	for _, tile := range s.SpatialTiles {
		b *= int64(tile[LvlGrid])
	}
	return b
}

// VThreads is the product of virtual-thread tile extents.
func (s *Schedule) VThreads() int {
	v := 1
	for _, tile := range s.SpatialTiles {
		v *= tile[LvlVThread]
	}
	return v
}

// Validate checks structural consistency against the task.
func (s *Schedule) Validate(t *ir.Task) error {
	if len(s.SpatialTiles) != len(t.Spatial) {
		return fmt.Errorf("schedule has %d spatial tiles, task %s has %d axes", len(s.SpatialTiles), t.Name, len(t.Spatial))
	}
	if len(s.ReduceTiles) != len(t.Reduce) {
		return fmt.Errorf("schedule has %d reduce tiles, task %s has %d axes", len(s.ReduceTiles), t.Name, len(t.Reduce))
	}
	for d, tile := range s.SpatialTiles {
		p := 1
		for l, f := range tile {
			if f <= 0 {
				return fmt.Errorf("spatial tile[%d][%d]=%d", d, l, f)
			}
			p *= f
		}
		if p != t.Spatial[d] {
			return fmt.Errorf("spatial tile %d: product %d != extent %d", d, p, t.Spatial[d])
		}
	}
	for d, tile := range s.ReduceTiles {
		p := 1
		for l, f := range tile {
			if f <= 0 {
				return fmt.Errorf("reduce tile[%d][%d]=%d", d, l, f)
			}
			p *= f
		}
		if p != t.Reduce[d] {
			return fmt.Errorf("reduce tile %d: product %d != extent %d", d, p, t.Reduce[d])
		}
	}
	if s.VectorLen <= 0 {
		return fmt.Errorf("vector length %d", s.VectorLen)
	}
	if s.TensorCore && !t.TensorCoreEligible() {
		return fmt.Errorf("tensorcore schedule on ineligible task %s", t.Name)
	}
	return nil
}

// RegTile is the per-thread output tile along axis d (vthread and inner
// levels).
func (s *Schedule) RegTile(d int) int {
	tile := s.SpatialTiles[d]
	return tile[LvlVThread] * tile[LvlInner0] * tile[LvlInner1]
}

// InnerTile is the innermost serial tile along axis d (levels 3-4 only).
func (s *Schedule) InnerTile(d int) int {
	tile := s.SpatialTiles[d]
	return tile[LvlInner0] * tile[LvlInner1]
}

// ReduceInner is the shared-memory-resident reduction extent along axis d
// (Mid * Inner).
func (s *Schedule) ReduceInner(d int) int {
	tile := s.ReduceTiles[d]
	return tile[RLvlMid] * tile[RLvlInner]
}

// ---------------------------------------------------------------------------
// Factorisation utilities.

// primeFactors returns the prime factorisation of n as an ascending slice
// with multiplicity.
func primeFactors(n int) []int {
	var fs []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			fs = append(fs, p)
			n /= p
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// randomFactorization splits extent into len(tile) factors whose product
// is extent, writing them into tile: each prime factor, in ascending order
// with multiplicity, goes to a uniformly random level.
func randomFactorization(rng *rand.Rand, extent int, tile []int) {
	for i := range tile {
		tile[i] = 1
	}
	n := extent
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			tile[rng.Intn(len(tile))] *= p
			n /= p
		}
	}
	if n > 1 {
		tile[rng.Intn(len(tile))] *= n
	}
}

// FactorizationCount returns the number of distinct ordered factorisations
// of extent into parts factors — the per-axis schedule space size.
func FactorizationCount(extent, parts int) int64 {
	counts := map[int]int{}
	for _, p := range primeFactors(extent) {
		counts[p]++
	}
	total := int64(1)
	for _, m := range counts {
		// stars and bars: C(m+parts-1, parts-1)
		total *= binom(int64(m+parts-1), int64(parts-1))
	}
	return total
}

func binom(n, k int64) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := int64(0); i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// SpaceSize estimates the total number of tile assignments for a task
// (annotations excluded), matching the paper's observation that GPU spaces
// reach billions of candidates.
func SpaceSize(t *ir.Task) float64 {
	total := 1.0
	for _, e := range t.Spatial {
		total *= float64(FactorizationCount(e, NumSpatialLevels))
	}
	for _, e := range t.Reduce {
		total *= float64(FactorizationCount(e, NumReduceLevels))
	}
	return total
}

// ---------------------------------------------------------------------------
// Generation.

// Generator samples and mutates schedules for one task. It embodies the
// sketch-generation rules: tiled tasks get the full multi-level structure
// with a shared-memory stage; elementwise tasks get a flat grid/thread
// split.
type Generator struct {
	Task *ir.Task
	// MaxThreads bounds threadIdx extents during sampling (rejection).
	MaxThreads int
	// MaxSharedWords bounds the shared-memory allocation (in 4-byte
	// words); 0 disables the check. Sampling rejects over-allocating
	// schedules, mirroring Ansor's validity filter on sampled programs.
	MaxSharedWords int
	// TensorCore makes the generator emit wmma-aligned schedules.
	TensorCore bool
	// WMMA is the fragment size for TensorCore alignment (16).
	WMMA int
}

// NewGenerator returns a generator with default constraints.
func NewGenerator(t *ir.Task) *Generator {
	return &Generator{Task: t, MaxThreads: 1024, WMMA: 16}
}

// Fits reports whether a schedule satisfies the generator's resource
// constraints (the sampler-side validity pre-filter).
func (g *Generator) Fits(s *Schedule) bool {
	tp := s.ThreadsPerBlock()
	if tp < 1 || tp > g.MaxThreads {
		return false
	}
	return g.MaxSharedWords <= 0 || SharedFits(g.Task, s, g.MaxSharedWords)
}

// Random samples one valid schedule.
func (g *Generator) Random(rng *rand.Rand) *Schedule {
	const attempts = 64
	var best *Schedule
	for i := 0; i < attempts; i++ {
		s := g.randomOnce(rng)
		if g.Fits(s) {
			if g.TensorCore && !g.tcAligned(s) {
				continue
			}
			return s
		}
		best = s
	}
	// Fall back to clamping: force thread and shared-memory budgets.
	if best == nil {
		best = g.randomOnce(rng)
	}
	g.clampThreads(best)
	g.clampShared(best)
	return best
}

// clampShared moves reduction factors from the shared-resident levels to
// the outer (refill) level, and spatial inner factors to the grid level,
// until the shared allocation fits the budget.
func (g *Generator) clampShared(s *Schedule) {
	if g.MaxSharedWords <= 0 || !g.Task.Tiled() || !s.UseShared {
		return
	}
	for iter := 0; iter < 64; iter++ {
		if SharedFits(g.Task, s, g.MaxSharedWords) {
			return
		}
		// Prefer shrinking the shared-resident reduction extent.
		bestD, bestV := -1, 1
		for d := range s.ReduceTiles {
			if v := s.ReduceInner(d); v > bestV {
				bestV, bestD = v, d
			}
		}
		if bestD >= 0 && bestV > 1 {
			tile := &s.ReduceTiles[bestD]
			lvl := RLvlMid
			if tile[RLvlInner] > tile[RLvlMid] {
				lvl = RLvlInner
			}
			fs := primeFactors(tile[lvl])
			p := fs[len(fs)-1]
			tile[lvl] /= p
			tile[RLvlOuter] *= p
			continue
		}
		// Then shrink the block's spatial tile.
		bestD, bestV = -1, 1
		for d := range s.SpatialTiles {
			if v := s.RegTile(d); v > bestV {
				bestV, bestD = v, d
			}
		}
		if bestD < 0 {
			return
		}
		tile := &s.SpatialTiles[bestD]
		lvl := LvlVThread
		for _, l := range []int{LvlInner1, LvlInner0, LvlVThread} {
			if tile[l] > 1 {
				lvl = l
				break
			}
		}
		if tile[lvl] == 1 {
			return
		}
		fs := primeFactors(tile[lvl])
		p := fs[len(fs)-1]
		tile[lvl] /= p
		tile[LvlGrid] *= p
	}
}

func (g *Generator) randomOnce(rng *rand.Rand) *Schedule {
	t := g.Task
	s := &Schedule{
		SpatialTiles: make([][NumSpatialLevels]int, len(t.Spatial)),
		ReduceTiles:  make([][NumReduceLevels]int, len(t.Reduce)),
		UnrollStep:   UnrollSteps[rng.Intn(len(UnrollSteps))],
		VectorLen:    VectorLens[rng.Intn(len(VectorLens))],
		UseShared:    t.Tiled(),
		TensorCore:   g.TensorCore && t.TensorCoreEligible(),
	}
	for d, e := range t.Spatial {
		randomFactorization(rng, e, s.SpatialTiles[d][:])
	}
	for d, e := range t.Reduce {
		randomFactorization(rng, e, s.ReduceTiles[d][:])
	}
	if !t.Tiled() {
		// Flat sketch: no vthread, no shared stage; fold everything beyond
		// grid/thread into the serial inner levels.
		for d := range s.SpatialTiles {
			tile := &s.SpatialTiles[d]
			tile[LvlInner0] *= tile[LvlVThread]
			tile[LvlVThread] = 1
		}
	}
	return s
}

// tcAligned reports whether the two innermost spatial axes' thread-local
// tiles and the reduction inner extent align to the wmma fragment.
func (g *Generator) tcAligned(s *Schedule) bool {
	n := len(s.SpatialTiles)
	if n < 2 || len(s.ReduceTiles) == 0 {
		return false
	}
	m := s.RegTile(n-2) * s.SpatialTiles[n-2][LvlThread]
	nn := s.RegTile(n-1) * s.SpatialTiles[n-1][LvlThread]
	k := s.ReduceInner(0)
	for _, t := range s.ReduceTiles[1:] {
		k *= t[RLvlMid] * t[RLvlInner]
	}
	w := g.WMMA
	return m%w == 0 && nn%w == 0 && k%w == 0
}

// clampThreads rebalances thread-level factors into the grid level until
// the block size is legal.
func (g *Generator) clampThreads(s *Schedule) {
	for s.ThreadsPerBlock() > g.MaxThreads {
		// Move the largest prime factor of the largest thread tile to grid.
		bestD, bestV := -1, 1
		for d := range s.SpatialTiles {
			if s.SpatialTiles[d][LvlThread] > bestV {
				bestV = s.SpatialTiles[d][LvlThread]
				bestD = d
			}
		}
		if bestD < 0 {
			return
		}
		fs := primeFactors(bestV)
		p := fs[len(fs)-1]
		s.SpatialTiles[bestD][LvlThread] /= p
		s.SpatialTiles[bestD][LvlGrid] *= p
	}
}

// InitPopulation samples n distinct schedules (best effort on
// distinctness).
func (g *Generator) InitPopulation(rng *rand.Rand, n int) []*Schedule {
	seen := make(map[string]bool, n)
	out := make([]*Schedule, 0, n)
	for tries := 0; len(out) < n && tries < n*8; tries++ {
		s := g.Random(rng)
		fp := s.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, s)
	}
	for len(out) < n { // tiny spaces: allow duplicates rather than starve
		out = append(out, g.Random(rng))
	}
	return out
}

// Mutate returns a mutated copy of s. Mutations move a prime factor
// between two levels of one axis (the paper's tiling-factor
// transformation), or flip an annotation.
func (g *Generator) Mutate(rng *rand.Rand, s *Schedule) *Schedule {
	c := s.Clone()
	nSpatial := len(c.SpatialTiles)
	nReduce := len(c.ReduceTiles)
	for attempt := 0; attempt < 8; attempt++ {
		switch choice := rng.Intn(10); {
		case choice < 6 && nSpatial > 0: // spatial tile move
			d := rng.Intn(nSpatial)
			if g.moveFactor(rng, c.SpatialTiles[d][:]) {
				if !g.Task.Tiled() {
					c.SpatialTiles[d][LvlInner0] *= c.SpatialTiles[d][LvlVThread]
					c.SpatialTiles[d][LvlVThread] = 1
				}
				if g.Fits(c) && (!c.TensorCore || g.tcAligned(c)) {
					return c
				}
				c = s.Clone()
			}
		case choice < 8 && nReduce > 0: // reduction tile move
			d := rng.Intn(nReduce)
			if g.moveFactor(rng, c.ReduceTiles[d][:]) {
				if g.Fits(c) && (!c.TensorCore || g.tcAligned(c)) {
					return c
				}
				c = s.Clone()
			}
		case choice == 8:
			c.UnrollStep = UnrollSteps[rng.Intn(len(UnrollSteps))]
			return c
		default:
			c.VectorLen = VectorLens[rng.Intn(len(VectorLens))]
			return c
		}
	}
	return c
}

// moveFactor transfers one prime factor between two random levels of a
// tile; returns false if the tile is all ones.
func (g *Generator) moveFactor(rng *rand.Rand, tile []int) bool {
	var srcLevels []int
	for l, f := range tile {
		if f > 1 {
			srcLevels = append(srcLevels, l)
		}
	}
	if len(srcLevels) == 0 {
		return false
	}
	src := srcLevels[rng.Intn(len(srcLevels))]
	dst := rng.Intn(len(tile) - 1)
	if dst >= src {
		dst++
	}
	fs := primeFactors(tile[src])
	p := fs[rng.Intn(len(fs))]
	tile[src] /= p
	tile[dst] *= p
	return true
}

// Crossover combines per-axis tiles of two parents.
func (g *Generator) Crossover(rng *rand.Rand, a, b *Schedule) *Schedule {
	c := a.Clone()
	for d := range c.SpatialTiles {
		if rng.Intn(2) == 1 {
			c.SpatialTiles[d] = b.SpatialTiles[d]
		}
	}
	for d := range c.ReduceTiles {
		if rng.Intn(2) == 1 {
			c.ReduceTiles[d] = b.ReduceTiles[d]
		}
	}
	if rng.Intn(2) == 1 {
		c.UnrollStep = b.UnrollStep
	}
	if rng.Intn(2) == 1 {
		c.VectorLen = b.VectorLen
	}
	if !g.Fits(c) || (c.TensorCore && !g.tcAligned(c)) {
		return a.Clone()
	}
	return c
}
