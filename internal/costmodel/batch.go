package costmodel

import (
	"sync"

	"pruner/internal/features"
	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// The batched inference path behind every learned model's Predict.
// Each model writes its batched forward once (learned.go) over an
// nn.Exec: Fit runs it on the tape, Predict runs it here on pooled
// nn.Scratch arenas under FreezeParams. Candidates are lowered once
// (through the round's memo when the tuner injected one), their feature
// rows concatenate into a few large fused GEMMs per chunk, and
// per-candidate scores fall out of segmented reductions. The result is
// bitwise identical to the per-candidate reference path
// (predictReference, reference_test.go) — pinned by
// TestPredictBatchedMatchesReference — so
// batching changes verify-stage wall-clock only, never a score.

// MemoUser is implemented by models whose Predict can reuse a
// caller-provided lowering memo. The tuner injects a fresh memo each
// measurement round, so verification shares lowered programs (and their
// cached features) with draft scoring.
type MemoUser interface {
	SetMemo(m *schedule.Memo)
}

// batchChunk is the number of candidates fused into one forward call.
// Chunks are the unit fanned across the session pool; a fixed size keeps
// the grouping — and therefore every intermediate tensor — independent of
// the worker count. Each candidate's score depends only on its own rows,
// so chunking cannot change results; 64 candidates amortize per-op
// overhead while keeping chunk working sets cache-sized.
const batchChunk = 64

// forwardFn is a model's one batched forward: it scores a batch of
// lowered programs of one task as an (N x 1) column. On nn.Tape{} it
// records the gradient graph training needs; on a warmed *nn.Scratch it
// runs allocation-free.
type forwardFn func(e nn.Exec, lws []*schedule.Lowered) *nn.Tensor

// predictBatched runs batched inference: it freezes the model's
// parameters for the duration, then fans fixed-size candidate chunks
// across the pool, each scored by forward on an arena of its own.
func predictBatched(pool *parallel.Pool, params []*nn.Tensor, memo *schedule.Memo, t *ir.Task, schs []*schedule.Schedule, forward forwardFn) []float64 {
	if len(schs) == 0 {
		return nil
	}
	if pool == nil {
		pool = parallel.Default()
	}
	defer nn.FreezeParams(params)()
	out := make([]float64, len(schs))
	chunks := (len(schs) + batchChunk - 1) / batchChunk
	pool.ForEach(chunks, func(c int) {
		lo := c * batchChunk
		hi := lo + batchChunk
		if hi > len(schs) {
			hi = len(schs)
		}
		lws := make([]*schedule.Lowered, hi-lo)
		for i := range lws {
			lws[i] = memo.Lower(t, schs[lo+i])
		}
		s := getScratch()
		defer putScratch(s)
		scores := forward(s, lws)
		for i := range lws {
			out[lo+i] = scores.At(i, 0)
		}
	})
	return out
}

// scratchPool is a typed free list of inference arenas, one drawn per
// chunk. A plain mutex-guarded slice rather than sync.Pool: Put/Get on a
// sync.Pool box the pointer through an interface (an allocation per
// chunk — exactly what the arena exists to avoid), and the GC may drop
// pooled arenas between rounds, refuting the warm-state guarantee the
// AllocsPerRun gates measure.
var scratchPool struct {
	mu   sync.Mutex
	free []*nn.Scratch
}

// getScratch pops a warmed arena or builds a fresh one (cold path only:
// the list converges to the pool's worker count).
func getScratch() *nn.Scratch {
	scratchPool.mu.Lock()
	n := len(scratchPool.free)
	if n == 0 {
		scratchPool.mu.Unlock()
		return &nn.Scratch{}
	}
	s := scratchPool.free[n-1]
	scratchPool.free[n-1] = nil
	scratchPool.free = scratchPool.free[:n-1]
	scratchPool.mu.Unlock()
	return s
}

// putScratch rewinds and parks an arena for the next chunk.
func putScratch(s *nn.Scratch) {
	s.Reset()
	scratchPool.mu.Lock()
	scratchPool.free = append(scratchPool.free, s)
	scratchPool.mu.Unlock()
}

// statementBatch concatenates every candidate's statement feature rows
// (shared cache references, no copies) plus the per-candidate segment
// lengths.
func statementBatch(lws []*schedule.Lowered) ([][]float64, []int) {
	lens := make([]int, len(lws))
	rows := make([][]float64, 0, len(lws)*4)
	for i, lw := range lws {
		r := features.Statement(lw)
		lens[i] = len(r)
		rows = append(rows, r...)
	}
	return rows, lens
}
