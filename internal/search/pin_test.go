package search

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// pinHash folds an ordered schedule list, its scores and the RNG's next
// draw into one FNV-64 value: any change to a schedule, to the order, or
// to the number of random draws consumed moves the hash.
type pinHash struct{ h uint64 }

func (p *pinHash) add(s string) {
	f := fnv.New64a()
	f.Write([]byte(strconv.FormatUint(p.h, 16)))
	f.Write([]byte(s))
	p.h = f.Sum64()
}

func (p *pinHash) schedules(schs []*schedule.Schedule) {
	p.add(strconv.Itoa(len(schs)))
	for _, s := range schs {
		p.add(s.Fingerprint())
	}
}

// rng records the stream's next draw, which moves with the number of
// draws consumed so far.
func (p *pinHash) rng(ctx *Context) {
	p.add(strconv.FormatInt(ctx.RNG.Int63(), 16))
}

func (p *pinHash) ranked(cands []scored) {
	p.add(strconv.Itoa(len(cands)))
	for _, c := range cands {
		p.add(c.sch.Fingerprint())
		p.add(strconv.FormatUint(math.Float64bits(c.score), 16))
	}
}

// tieHeavyScore gives schedules only a handful of distinct fitness values,
// so the stable sorts' tie order decides the GA's parent ranks.
func tieHeavyScore(schs []*schedule.Schedule) []float64 {
	out := make([]float64, len(schs))
	for i, s := range schs {
		out[i] = float64(s.ThreadsPerBlock() % 13)
	}
	return out
}

// TestDraftStagePinned pins the draft stage bitwise: the ordered output
// of RunLSE, of the evolutionary loop (draft-scored and tie-heavy), and
// of the Pruner and Ansor policies' batches, plus how many RNG draws each
// consumed, for fixed seeds. Performance work on breeding, sorting or the
// validity filters must leave every value unchanged.
func TestDraftStagePinned(t *testing.T) {
	cases := []struct {
		name string
		task *ir.Task
		tc   bool // wmma-aligned generator
		want string
	}{
		{"matmul", ir.NewMatMul(512, 512, 512, ir.FP32, 1), false, "824a0deaa6ba8a00"},
		{"conv1x1", ir.NewConv2D(ir.Conv2DShape{N: 1, H: 56, W: 56, CI: 64, CO: 256, KH: 1, KW: 1, Stride: 1, Pad: 0}, ir.FP32, 1), false, "46f91462eafc68c2"},
		{"conv3x3", ir.NewConv2D(ir.Conv2DShape{N: 1, H: 14, W: 14, CI: 256, CO: 256, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP32, 1), false, "0878bcaafee8aea2"},
		// FP16 with odd extents: shared demands land on half words.
		{"matmul-fp16", ir.NewMatMul(196, 75, 147, ir.FP16, 1), false, "24e3ca10abc1943f"},
		{"conv3x3-fp16", ir.NewConv2D(ir.Conv2DShape{N: 1, H: 7, W: 7, CI: 512, CO: 512, KH: 3, KW: 3, Stride: 1, Pad: 1}, ir.FP16, 1), false, "22e3ae18d3d3722b"},
		{"matmul-fp16-tc", ir.NewMatMul(256, 384, 1024, ir.FP16, 1), true, "4ef4b0a01efe07e1"},
	}
	for _, pc := range cases {
		var h pinHash
		fresh := func(seed int64) *Context {
			ctx := newCtx(pc.task, device.A100, seed)
			ctx.Gen.TensorCore = pc.tc && pc.task.TensorCoreEligible()
			return ctx
		}

		ctx := fresh(11)
		h.schedules(RunLSE(ctx, DefaultLSEParams()))
		h.rng(ctx)

		evo := EvoParams{Population: 600, Generations: 3, MutateProb: 0.85, CrossProb: 0.05}
		ctx = fresh(12)
		h.ranked(evolve(ctx, evo, nil, ctx.scoreDraft))
		h.rng(ctx)

		ctx = fresh(13)
		h.ranked(evolve(ctx, evo, nil, tieHeavyScore))
		h.rng(ctx)

		ctx = fresh(14)
		ctx.Model = costmodel.NewRandom(3)
		pp := NewPrunerPolicy()
		pp.LSE = LSEParams{SpecSize: 128, Population: 400, Steps: 3}
		h.schedules(pp.NextBatch(ctx, 32))
		h.rng(ctx)

		ctx = fresh(15)
		ctx.Model = costmodel.NewRandom(4)
		ap := NewAnsorPolicy()
		ap.Evo = evo
		h.schedules(ap.NextBatch(ctx, 32))
		h.rng(ctx)

		got := fmt.Sprintf("%016x", h.h)
		if got != pc.want {
			t.Errorf("%s: draft-stage hash %s, want %s", pc.name, got, pc.want)
		}
	}
}
