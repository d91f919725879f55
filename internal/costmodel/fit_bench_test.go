package costmodel

import (
	"fmt"
	"testing"

	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// perRecordForward composes the pre-engine training forward: one small
// gradient graph per record, concatenated — what the models ran before
// the batched group forwards. It always runs on the tape.
func perRecordForward(one func(*schedule.Lowered) *nn.Tensor) forwardFn {
	return func(_ nn.Exec, lws []*schedule.Lowered) *nn.Tensor {
		outs := make([]*nn.Tensor, len(lws))
		for i, lw := range lws {
			outs[i] = one(lw)
		}
		return nn.ConcatRows(outs...)
	}
}

// BenchmarkFit measures the online-training hot path: the data-parallel
// macro-batch engine (with its session feature cache, as the tuner runs
// it) against the retained pre-engine serial loop, for the two heaviest
// learned models. EXPERIMENTS.md records the before/after numbers; CI's
// bench-smoke keeps the harness alive. The fitted parameters at p=1 and
// p=8 are bitwise identical (TestFitDeterministicAcrossWorkers) — only
// wall-clock may move.
func BenchmarkFit(b *testing.B) {
	recs := multiTaskRecords(b, 16, 48, 21)
	opt := FitOptions{Epochs: 4, Seed: 2}

	builders := map[string]func() Model{
		"pacm": func() Model { return NewPaCM(31) },
		"tlp":  func() Model { return NewTLP(32) },
	}
	for _, kind := range []string{"pacm", "tlp"} {
		build := builders[kind]
		// The reference arm is the pre-engine path end to end: the serial
		// per-group-step loop driving the per-candidate forward (one small
		// graph per record, concatenated), with no session feature cache.
		b.Run(kind+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := build()
				b.StartTimer()
				switch m := m.(type) {
				case *PaCM:
					rankFitReference(recs, opt, m.adam, perRecordForward(m.forwardOne), m.seed)
				case *TLP:
					rankFitReference(recs, opt, m.adam, perRecordForward(m.forwardOne), m.seed)
				}
			}
		})
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/engine-p%d", kind, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m := build()
					m.(PoolUser).SetPool(parallel.New(workers))
					sessionOpt := opt
					sessionOpt.Cache = NewFitCache()
					b.StartTimer()
					m.Fit(recs, sessionOpt)
				}
			})
		}
	}
}
