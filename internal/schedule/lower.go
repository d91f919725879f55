package schedule

import (
	"math"
	"sync"

	"pruner/internal/ir"
)

// MemLevel identifies the memory hierarchy levels of the paper: L0
// registers, L1 shared memory, L2 global memory.
type MemLevel int

const (
	L0 MemLevel = iota
	L1
	L2
)

func (l MemLevel) String() string {
	switch l {
	case L0:
		return "L0"
	case L1:
		return "L1"
	default:
		return "L2"
	}
}

// StmtKind classifies the data-movement blocks of the multi-tiling
// pattern (paper Figure 4: shared loads, the compute block, the fused
// epilogue, the write-back).
type StmtKind int

const (
	// StmtInit zero-initialises the accumulator (C.local = 0).
	StmtInit StmtKind = iota
	// StmtLoadShared cooperatively stages an operand L2 -> L1.
	StmtLoadShared
	// StmtLoadGlobal streams an operand L2 -> L0 directly (flat sketches).
	StmtLoadGlobal
	// StmtCompute performs the MAC block L1 -> L0 (or L2 -> L0 when flat).
	StmtCompute
	// StmtEpilogue applies fused elementwise ops in registers.
	StmtEpilogue
	// StmtStore writes the result L0 -> L2.
	StmtStore
)

var stmtKindNames = [...]string{
	StmtInit:       "init",
	StmtLoadShared: "load_shared",
	StmtLoadGlobal: "load_global",
	StmtCompute:    "compute",
	StmtEpilogue:   "epilogue",
	StmtStore:      "store",
}

func (k StmtKind) String() string {
	if int(k) < len(stmtKindNames) {
		return stmtKindNames[k]
	}
	return "stmt?"
}

// Statement is one data-movement block of the lowered program. Quantities
// are totals across the whole kernel execution unless suffixed PerUnit.
type Statement struct {
	Kind   StmtKind
	Buffer string
	From   MemLevel
	To     MemLevel

	// Flops attributed to this statement (compute/epilogue only).
	Flops float64
	// MoveWords moved between From and To across the kernel.
	MoveWords float64
	// AllocWords allocated at To: per thread for L0, per block for L1.
	AllocWords float64
	// Reuse is how many times each staged element is consumed.
	Reuse float64
	// ContigRun is the contiguous run length (elements) of the From-side
	// access, driving coalescing / transaction efficiency.
	ContigRun float64
	// StrideElems is the distance between consecutive runs.
	StrideElems float64
	// Threads cooperating in this statement.
	Threads int
	// Trips is how many times the statement region executes per block.
	Trips float64
	// TensorCore marks wmma compute statements.
	TensorCore bool
}

// Lowered is the analyzable form of (task, schedule): the statement list
// plus the schedule-level scalars the hardware-aware symbols are built
// from.
type Lowered struct {
	Task  *ir.Task
	Sched *Schedule

	Blocks          int64   // S6 (L2ParaInfo)
	ThreadsPerBlock int     // S4 (L1ParaInfo)
	VThreads        int     //
	RegsPerThread   float64 // S1 (L0MemAlloc), words
	ThreadCompute   float64 // S2 (L0CompCount), MACs per thread
	SharedPerBlock  float64 // S3 (L1MemAlloc), words
	GlobalWords     float64 // S5 (L2MemFootprint), words moved at L2
	TotalFlops      float64 // S8 (L2CompCount)

	Stmts []Statement

	// featOnce / feat cache derived per-program feature matrices (one slot
	// per family, indexed by the features package), so a memoized program
	// is featurized at most once per round even when draft scoring,
	// verification and training all touch it. Lowered must therefore not
	// be copied by value once shared.
	featOnce [NumFeatureSlots]sync.Once
	feat     [NumFeatureSlots][][]float64
}

// NumFeatureSlots is the number of cached feature families on a Lowered
// program (statement, dataflow and primitive features).
const NumFeatureSlots = 3

// FeatureRows returns the cached feature matrix for the given slot,
// computing it with compute on first use. Concurrent callers are safe:
// the winning computation is shared and compute runs at most once per
// slot. compute must be a pure function of the lowered program.
func (lw *Lowered) FeatureRows(slot int, compute func(*Lowered) [][]float64) [][]float64 {
	lw.featOnce[slot].Do(func() { lw.feat[slot] = compute(lw) }) //pruner:allow hotalloc — one closure per (lowered, slot) miss; round-memoed Lowereds make steady-state calls cache hits that never reach Do's slow path
	return lw.feat[slot]
}

// Lower materialises the statements of (task, schedule). It never fails:
// resource overflows are left for the analyzer's penalties and the
// simulator's launch check to punish, mirroring how Ansor lets the
// hardware reject invalid programs.
func Lower(t *ir.Task, s *Schedule) *Lowered {
	lw := &Lowered{
		Task:            t,
		Sched:           s,
		Blocks:          s.Blocks(),
		ThreadsPerBlock: s.ThreadsPerBlock(),
		VThreads:        s.VThreads(),
		// Init, one load per input, compute, epilogue and store at most.
		Stmts: make([]Statement, 0, len(t.Inputs)+4),
	}
	if t.Tiled() && s.UseShared {
		lw.lowerTiled()
	} else {
		lw.lowerFlat()
	}
	return lw
}

// macsPerBlockTrip is the multiply-adds executed by one block during one
// reduction-outer trip.
func (lw *Lowered) macsPerBlockTrip() float64 {
	s := lw.Sched
	m := 1.0
	for d := range s.SpatialTiles {
		tile := s.SpatialTiles[d]
		m *= float64(tile[LvlThread] * tile[LvlVThread] * tile[LvlInner0] * tile[LvlInner1])
	}
	for d := range s.ReduceTiles {
		m *= float64(s.ReduceTiles[d][RLvlMid] * s.ReduceTiles[d][RLvlInner])
	}
	return m
}

// reduceOuterTrips is the product of reduction Outer levels: how often the
// shared-memory stage refills.
func (lw *Lowered) reduceOuterTrips() float64 {
	trips := 1.0
	for d := range lw.Sched.ReduceTiles {
		trips *= float64(lw.Sched.ReduceTiles[d][RLvlOuter])
	}
	return trips
}

// sharedPerBlock is the shared-memory allocation (elements of the task's
// precision) one block stages per reduction-outer trip: the sum of the
// input operands' shared tiles in declaration order, or 0 when the
// schedule has no shared stage. It equals Lower(t, s).SharedPerBlock bit
// for bit (lowerTiled sums through it) but builds no statements, so the
// validity filters that need only this number skip lowering entirely.
func sharedPerBlock(t *ir.Task, s *Schedule) float64 {
	if !t.Tiled() || !s.UseShared {
		return 0
	}
	var shared float64
	for i := range t.Inputs {
		shared += operandSharedTile(s, &t.Inputs[i])
	}
	return shared
}

// SharedFits reports whether the schedule's shared stage fits a budget of
// the given number of 4-byte words. The demand is rounded up: a fraction of a word past
// the budget still allocates a whole one, so truncation would admit
// schedules the device cannot launch.
func SharedFits(t *ir.Task, s *Schedule, words int) bool {
	words4 := sharedPerBlock(t, s) * float64(t.Precision.Bytes()) / 4
	return int(math.Ceil(words4)) <= words
}

// operandSharedTile is the shared-memory tile (words) one block stages for
// the operand during one reduction-outer trip.
func operandSharedTile(s *Schedule, o *ir.Operand) float64 {
	tile := 1.0
	for _, d := range o.SpatialIdx {
		sp := s.SpatialTiles[d]
		tile *= float64(sp[LvlThread] * sp[LvlVThread] * sp[LvlInner0] * sp[LvlInner1])
	}
	for _, r := range o.ReduceIdx {
		rt := s.ReduceTiles[r]
		tile *= float64(rt[RLvlMid] * rt[RLvlInner])
	}
	return tile * o.FootprintScale
}

// operandRegTile is the per-thread register fragment of an input operand:
// the paper's L0_A = Prod([I2..I4]) — vthread and inner levels along the
// operand's spatial axes only.
func (lw *Lowered) operandRegTile(o *ir.Operand) float64 {
	tile := 1.0
	for _, d := range o.SpatialIdx {
		tile *= float64(lw.Sched.RegTile(d))
	}
	return tile
}

// operandContigRun is the contiguous run length (elements) of the
// operand's global access within one staged tile.
func (lw *Lowered) operandContigRun(o *ir.Operand) float64 {
	s := lw.Sched
	if o.ContigReduce >= 0 && o.ContigReduce < len(s.ReduceTiles) {
		return float64(s.ReduceInner(o.ContigReduce))
	}
	if o.ContigSpatial >= 0 && o.ContigSpatial < len(s.SpatialTiles) {
		if !o.Touches(o.ContigSpatial) {
			return 1
		}
		sp := s.SpatialTiles[o.ContigSpatial]
		return float64(sp[LvlThread] * sp[LvlVThread] * sp[LvlInner0] * sp[LvlInner1])
	}
	return 1
}

// operandStride is the element distance between consecutive contiguous
// runs: the full extent of the innermost storage dimension.
func (lw *Lowered) operandStride(t *ir.Task, o *ir.Operand) float64 {
	if o.ContigReduce >= 0 && o.ContigReduce < len(t.Reduce) {
		return float64(t.Reduce[o.ContigReduce])
	}
	if o.ContigSpatial >= 0 && o.ContigSpatial < len(t.Spatial) {
		return float64(t.Spatial[o.ContigSpatial])
	}
	return 1
}

func (lw *Lowered) lowerTiled() {
	t, s := lw.Task, lw.Sched
	blocks := float64(lw.Blocks)
	threads := lw.ThreadsPerBlock
	trips := lw.reduceOuterTrips()
	macsPerTrip := lw.macsPerBlockTrip()
	outRegTile := 1.0
	for d := range s.SpatialTiles {
		outRegTile *= float64(s.RegTile(d))
	}

	// Accumulator init.
	lw.Stmts = append(lw.Stmts, Statement{
		Kind: StmtInit, Buffer: t.Output.Name + ".local",
		From: L0, To: L0,
		AllocWords: outRegTile,
		Threads:    threads, Trips: 1,
	})
	regs := outRegTile

	// Shared loads, one per input operand, in declaration order.
	shared := sharedPerBlock(t, s)
	var global float64
	for i := range t.Inputs {
		o := &t.Inputs[i]
		tile := operandSharedTile(s, o)
		move := blocks * tile * trips
		global += move
		reuse := macsPerTrip / maxF(tile, 1)
		lw.Stmts = append(lw.Stmts, Statement{
			Kind: StmtLoadShared, Buffer: o.Name + ".shared",
			From: L2, To: L1,
			MoveWords:   move,
			AllocWords:  tile,
			Reuse:       reuse,
			ContigRun:   lw.operandContigRun(o),
			StrideElems: lw.operandStride(t, o),
			Threads:     threads,
			Trips:       trips,
		})
		regs += lw.operandRegTile(o)
	}

	// Compute block.
	threadMacs := outRegTile * float64(t.ReducePoints())
	computeFlops := float64(t.OutputPoints()) * float64(t.ReducePoints()) * t.FlopsPerPoint
	lw.Stmts = append(lw.Stmts, Statement{
		Kind: StmtCompute, Buffer: t.Output.Name + ".local",
		From: L1, To: L0,
		Flops:      computeFlops,
		MoveWords:  computeFlops / maxF(t.FlopsPerPoint, 1), // shared reads
		AllocWords: regs,
		Reuse:      maxF(macsPerTrip/maxF(shared, 1), 1),
		ContigRun:  float64(s.InnerTile(len(s.SpatialTiles) - 1)),
		Threads:    threads,
		Trips:      trips,
		TensorCore: s.TensorCore,
	})

	// Fused epilogue.
	if t.FusedElemwise > 0 {
		lw.Stmts = append(lw.Stmts, Statement{
			Kind: StmtEpilogue, Buffer: t.Output.Name + ".local",
			From: L0, To: L0,
			Flops:      float64(t.OutputPoints()) * float64(t.FusedElemwise),
			AllocWords: outRegTile,
			Threads:    threads,
			Trips:      1,
		})
	}

	// Write-back.
	outWords := float64(t.OutputPoints())
	global += outWords
	lw.Stmts = append(lw.Stmts, Statement{
		Kind: StmtStore, Buffer: t.Output.Name,
		From: L0, To: L2,
		MoveWords:   outWords,
		ContigRun:   lw.operandContigRun(&t.Output),
		StrideElems: lw.operandStride(t, &t.Output),
		Threads:     threads,
		Trips:       1,
	})

	lw.RegsPerThread = regs
	lw.ThreadCompute = threadMacs
	lw.SharedPerBlock = shared
	lw.GlobalWords = global
	lw.TotalFlops = t.FLOPs()
}

// lowerFlat lowers elementwise / reduction tasks (and tiled tasks with the
// shared stage disabled): operands stream straight from global memory.
func (lw *Lowered) lowerFlat() {
	t := lw.Task
	threads := lw.ThreadsPerBlock
	serial := 1.0
	for d := range lw.Sched.SpatialTiles {
		serial *= float64(lw.Sched.RegTile(d))
	}
	reducePts := float64(t.ReducePoints())

	var global float64
	for i := range t.Inputs {
		o := &t.Inputs[i]
		elems := 1.0
		for _, d := range o.SpatialIdx {
			elems *= float64(t.Spatial[d])
		}
		for _, r := range o.ReduceIdx {
			elems *= float64(t.Reduce[r])
		}
		global += elems
		lw.Stmts = append(lw.Stmts, Statement{
			Kind: StmtLoadGlobal, Buffer: o.Name,
			From: L2, To: L0,
			MoveWords:   elems,
			AllocWords:  serial,
			Reuse:       1,
			ContigRun:   lw.operandContigRun(o),
			StrideElems: lw.operandStride(t, o),
			Threads:     threads,
			Trips:       reducePts,
		})
	}

	flops := t.FLOPs()
	if flops > 0 {
		lw.Stmts = append(lw.Stmts, Statement{
			Kind: StmtCompute, Buffer: t.Output.Name,
			From: L0, To: L0,
			Flops:      flops,
			AllocWords: serial,
			Threads:    threads,
			Trips:      reducePts,
		})
	}

	outWords := float64(t.OutputPoints())
	global += outWords
	lw.Stmts = append(lw.Stmts, Statement{
		Kind: StmtStore, Buffer: t.Output.Name,
		From: L0, To: L2,
		MoveWords:   outWords,
		ContigRun:   lw.operandContigRun(&t.Output),
		StrideElems: lw.operandStride(t, &t.Output),
		Threads:     threads,
		Trips:       1,
	})

	lw.RegsPerThread = serial + 2
	lw.ThreadCompute = serial * reducePts
	lw.SharedPerBlock = 0
	lw.GlobalWords = global
	lw.TotalFlops = flops
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
