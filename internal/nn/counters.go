package nn

import "sync/atomic"

// Engine counters: process-wide tallies of the fused kernels behind both
// executors (infer.go). They are plain atomics rather than obs instruments so nn
// keeps zero observability dependencies — the daemons register them as
// func-backed metrics sampled at scrape time. Counting is orthogonal to
// determinism: the tallies never feed back into any computation.
var (
	engineGEMMCalls    atomic.Uint64
	engineGEMMRows     atomic.Uint64
	engineAttnSegments atomic.Uint64
)

// EngineCounters is a snapshot of the engine tallies since process start.
type EngineCounters struct {
	// GEMMCalls counts fused matmul kernel invocations.
	GEMMCalls uint64
	// GEMMRows counts output rows produced by those kernels — the
	// engine's throughput proxy.
	GEMMRows uint64
	// AttnSegments counts attention segments run through the arena
	// attention core.
	AttnSegments uint64
}

// Counters snapshots the engine tallies.
func Counters() EngineCounters {
	return EngineCounters{
		GEMMCalls:    engineGEMMCalls.Load(),
		GEMMRows:     engineGEMMRows.Load(),
		AttnSegments: engineAttnSegments.Load(),
	}
}
