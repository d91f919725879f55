package search

import (
	"maps"
	"math/rand"
	"testing"

	"pruner/internal/device"
	"pruner/internal/ir"
)

// BenchmarkRunLSE times the draft stage on a ResNet-50 3x3 conv with the
// paper's LSE settings: the whole RunLSE call, the sampler it breeds
// from, and the PriorFilter trim of an S_spec pool at its steady-state
// size (SpecSize plus one scored population).
func BenchmarkRunLSE(b *testing.B) {
	task := ir.NewConv2D(ir.Conv2DShape{N: 1, H: 14, W: 14, CI: 256, CO: 256, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1)
	p := DefaultLSEParams()

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RunLSE(newCtx(task, device.A100, int64(i)), p)
		}
	})

	b.Run("random", func(b *testing.B) {
		ctx := newCtx(task, device.A100, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Gen.Random(ctx.RNG)
		}
	})

	b.Run("pruneSpec", func(b *testing.B) {
		ctx := newCtx(task, device.A100, 2)
		pool := ctx.Gen.InitPopulation(rand.New(rand.NewSource(3)), p.SpecSize+p.Population)
		scores := ctx.scoreDraft(pool)
		spec := make(map[string]scored, len(pool))
		for i, s := range pool {
			spec[s.Fingerprint()] = scored{sch: s, score: scores[i]}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := maps.Clone(spec)
			b.StartTimer()
			pruneSpec(m, p.SpecSize)
		}
	})
}
