package costmodel

import (
	"math"
	"math/rand"

	"pruner/internal/features"
	"pruner/internal/ir"
	"pruner/internal/nn"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
)

// The per-candidate and per-group baselines the production paths
// replaced. They exist only to pin equivalence: the batched forwards,
// Predict and the training engine must stay bitwise identical to them
// (batch_test.go, train_test.go), and BenchmarkFit and
// BenchmarkPredictBatched time against them.

// forwardOne is each model's per-candidate forward: the architecture op by
// op on one lowered program, without batching, deduplication or fusion.
func (m *TenSetMLP) forwardOne(lw *schedule.Lowered) *nn.Tensor {
	rows := nn.FromRows(features.Statement(lw))
	emb := m.embed.ForwardReLU(rows)
	return m.head.Forward(nn.SumRows(emb))
}

func (m *PaCM) forwardOne(lw *schedule.Lowered) *nn.Tensor {
	var parts *nn.Tensor
	if m.UseStatement {
		rows := nn.FromRows(features.Statement(lw))
		emb := m.stmtEmbed.ForwardReLU(rows)
		parts = nn.SumRows(emb)
	}
	if m.UseDataflow {
		df := nn.FromRows(features.Dataflow(lw))
		tokens := nn.Tanh(m.dfProj.Forward(df))
		ctx := nn.MeanRows(m.dfAttn.Forward(tokens))
		if parts == nil {
			parts = ctx
		} else {
			parts = nn.ConcatCols(parts, ctx)
		}
	}
	return m.head.Forward(parts)
}

func (m *TLP) forwardOne(lw *schedule.Lowered) *nn.Tensor {
	tokens := nn.FromRows(features.Primitives(lw))
	x := m.proj.Forward(tokens)
	x = m.attn.Forward(x)
	return m.head.Forward(nn.MeanRows(x))
}

// predictReference is the per-candidate baseline batching replaced: one
// tape-free forward per schedule, fanned over the pool.
func predictReference(pool *parallel.Pool, params []*nn.Tensor, t *ir.Task, schs []*schedule.Schedule, one func(*schedule.Lowered) *nn.Tensor) []float64 {
	if pool == nil {
		pool = parallel.Default()
	}
	defer nn.FreezeParams(params)()
	out := make([]float64, len(schs))
	pool.ForEach(len(schs), func(i int) {
		out[i] = one(schedule.Lower(t, schs[i])).At(0, 0)
	})
	return out
}

// rankFitReference is the pre-engine serial loop: one optimiser step per
// task group, forward and backward on the live parameters.
func rankFitReference(recs []Record, opt FitOptions, adam *nn.Adam, forward forwardFn, seed int64) FitReport {
	opt = opt.withDefaults()
	groups := groupByTask(recs)
	report := FitReport{Loss: math.NaN()}
	if len(groups) == 0 {
		return report
	}
	defer func(prev float64) { adam.LR = prev }(adam.SwapLR(opt.LR))
	rng := rand.New(rand.NewSource(seed ^ opt.Seed))
	for _, g := range groups {
		report.Samples += len(g.recs)
	}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		batches := epochBatches(groups, opt, rng)
		var epochLoss float64
		for _, b := range batches {
			memo := opt.Cache.memo(b.task)
			lws := make([]*schedule.Lowered, len(b.recs))
			for i, r := range b.recs {
				lws[i] = memo.Lower(b.task, r.Sched)
			}
			adam.ZeroGrad()
			loss := nn.LambdaRankLoss(forward(nn.Tape{}, lws), b.rel)
			nn.Backward(loss)
			adam.Step()
			epochLoss += loss.Data[0]
			report.Batches++
			report.SampleVisits += len(b.recs)
		}
		if len(batches) > 0 {
			report.Loss = epochLoss / float64(len(batches))
		}
	}
	return report
}
