// Package search implements the schedule-space exploration policies: the
// paper's Draft-then-Verify Pruner policy with its Latent Schedule
// Explorer (Algorithm 2), and the Ansor, MetaSchedule and Roller baseline
// policies it is evaluated against.
package search

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"pruner/internal/analyzer"
	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

// Context is the per-task state a policy sees when proposing the next
// measurement batch.
type Context struct {
	// Ctx optionally bounds the search: policies check it between
	// generations/iterations and return early (with whatever they have)
	// when it is cancelled. The tuner discards a round whose search was
	// cut short, so cancellation can never alter committed results. nil
	// never cancels.
	Ctx  context.Context
	Task *ir.Task
	Gen  *schedule.Generator
	// RNG is the task-owned random stream. Policies must draw from it only
	// on their serial path (population breeding, ε-greedy picks) — never
	// from pool workers.
	RNG *rand.Rand
	// Pool fans pure candidate scoring (draft evaluations, screening)
	// across the session's workers; nil scores serially.
	Pool *parallel.Pool
	// Measured is the task's tuning history (latest last).
	Measured []costmodel.Record
	// MeasuredSet holds fingerprints of measured schedules for dedup.
	MeasuredSet map[string]bool
	// Model is the learned (verify) cost model.
	Model costmodel.Model
	// Draft is the Symbol-based Analyzer used by draft-stage policies.
	Draft *analyzer.Analyzer
	// Clock and Cost account simulated exploration time. Clock may be nil
	// in unit tests.
	Clock *simulator.Clock
	Cost  simulator.CostParams
	// Memo caches this round's lowered programs so a candidate is lowered
	// (and featurized) exactly once across draft scoring and cost-model
	// verification. nil falls back to lowering on every use.
	Memo *schedule.Memo
	// DraftBudget, when positive, overrides the policy's own draft-stage
	// candidate budget (|S_spec| for the Pruner policy) for this round —
	// the tuner's adaptive controller shrinks or grows it with the cost
	// model's measured calibration. Policies without a draft stage
	// ignore it; 0 keeps the policy's configured budget.
	DraftBudget int
}

// lower resolves a schedule through the round memo (plain lowering when
// no memo is installed).
func (c *Context) lower(s *schedule.Schedule) *schedule.Lowered {
	return c.Memo.Lower(c.Task, s)
}

// cancelled reports whether the search's context has been cancelled.
func (c *Context) cancelled() bool {
	return c.Ctx != nil && c.Ctx.Err() != nil
}

// chargeModel accounts n learned-model candidate evaluations.
func (c *Context) chargeModel(n int) {
	if c.Clock == nil || c.Model == nil {
		return
	}
	mc := c.Model.Costs()
	c.Clock.Exploration += float64(n) * (c.Cost.FeatureExtract*mc.FeatureX + c.Cost.ModelInfer*mc.InferX)
}

// chargeDraft accounts n Symbol-based-Analyzer evaluations.
func (c *Context) chargeDraft(n int) {
	if c.Clock == nil {
		return
	}
	c.Clock.Exploration += float64(n) * c.Cost.DraftEval
}

// scoreDraft evaluates the Symbol-based Analyzer over a candidate set,
// fanned across the session pool (the analyzer is a pure function of the
// lowered program), and charges the batch to the simulated clock on the
// serial path.
func (c *Context) scoreDraft(schs []*schedule.Schedule) []float64 {
	c.chargeDraft(len(schs))
	out := make([]float64, len(schs))
	c.Pool.ForEach(len(schs), func(i int) {
		out[i] = c.Draft.Score(c.lower(schs[i]))
	})
	return out
}

// Policy proposes schedules to measure.
type Policy interface {
	Name() string
	// NextBatch returns up to n unmeasured schedules for the task.
	NextBatch(ctx *Context, n int) []*schedule.Schedule
}

// SpecBudgeter is optionally implemented by policies with an explicit
// draft-stage candidate budget (the Pruner policy's |S_spec|). The tuner
// reads it to learn the budget Context.DraftBudget scales against, so
// adaptive control adapts to a policy's configured size instead of
// assuming the paper default.
type SpecBudgeter interface {
	SpecBudget() int
}

// scored pairs a schedule with a policy-internal score (higher better).
type scored struct {
	sch   *schedule.Schedule
	score float64
}

// byScoreDesc orders candidates best first. It is negative exactly when
// a.score > b.score, so a NaN score compares equal to everything, as it
// did under the sort.SliceStable comparator it replaced (cmp.Compare
// would instead rank NaN last).
func byScoreDesc(a, b scored) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	}
	return 0
}

// byScoreThenFingerprint orders candidates best first, fingerprint
// ascending on equal scores.
func byScoreThenFingerprint(a, b scored) int {
	if a.score != b.score {
		return byScoreDesc(a, b)
	}
	return strings.Compare(a.sch.Fingerprint(), b.sch.Fingerprint())
}

// rankOrder returns the permutation that stably sorts cands best first.
// It sorts int32 indices rather than the 16-byte entries, so swaps move
// no pointers.
func rankOrder(cands []scored) []int32 {
	order := make([]int32, len(cands))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return byScoreDesc(cands[a], cands[b]) })
	return order
}

// topK returns the k highest-scoring entries (stable on ties).
func topK(cands []scored, k int) []scored {
	order := rankOrder(cands)
	out := make([]scored, min(k, len(cands)))
	for i := range out {
		out[i] = cands[order[i]]
	}
	return out
}

// buildable statically rejects schedules the device cannot launch (the
// validity pre-filter Ansor applies before handing candidates to the cost
// model or the builder). It needs the draft analyzer's device; without
// one, everything passes.
func (c *Context) buildable(s *schedule.Schedule) bool {
	if c.Draft == nil {
		return true
	}
	dev := c.Draft.Dev
	return s.ThreadsPerBlock() <= dev.MaxThreads && schedule.SharedFits(c.Task, s, dev.SharedPerBlock)
}

// pickBatch selects n unmeasured, deduplicated, buildable schedules from
// ranked candidates, filling an epsFrac share with random exploration, the
// ε-greedy step all policies end with.
func pickBatch(ctx *Context, ranked []scored, n int, epsFrac float64) []*schedule.Schedule {
	out := make([]*schedule.Schedule, 0, n)
	seen := map[string]bool{}
	nRandom := int(math.Round(float64(n) * epsFrac))
	for _, c := range ranked {
		if len(out) >= n-nRandom {
			break
		}
		fp := c.sch.Fingerprint()
		if seen[fp] || ctx.MeasuredSet[fp] || !ctx.buildable(c.sch) {
			continue
		}
		seen[fp] = true
		out = append(out, c.sch)
	}
	for tries := 0; len(out) < n && tries < n*16; tries++ {
		s := ctx.Gen.Random(ctx.RNG)
		fp := s.Fingerprint()
		if seen[fp] || ctx.MeasuredSet[fp] || !ctx.buildable(s) {
			continue
		}
		seen[fp] = true
		out = append(out, s)
	}
	return out
}

// bestMeasured returns up to k best-latency schedules from the task
// history to seed evolutionary populations.
func bestMeasured(ctx *Context, k int) []*schedule.Schedule {
	recs := make([]costmodel.Record, 0, len(ctx.Measured))
	for _, r := range ctx.Measured {
		if !math.IsInf(r.Latency, 1) && r.Latency > 0 {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Latency < recs[j].Latency })
	if len(recs) > k {
		recs = recs[:k]
	}
	out := make([]*schedule.Schedule, len(recs))
	for i, r := range recs {
		out[i] = r.Sched
	}
	return out
}

// EvoParams parameterise the shared evolutionary loop.
type EvoParams struct {
	Population  int
	Generations int
	MutateProb  float64
	CrossProb   float64
}

// DefaultEvoParams mirrors Ansor's evolutionary-search defaults scaled to
// the paper's ~8,000 model evaluations per tuning round.
func DefaultEvoParams() EvoParams {
	return EvoParams{Population: 2000, Generations: 4, MutateProb: 0.85, CrossProb: 0.05}
}

// evolve runs a fitness-guided GA. scoreFn evaluates a generation and is
// charged by the caller; evolve returns every scored candidate seen,
// deduplicated, ranked descending.
func evolve(ctx *Context, p EvoParams, seed []*schedule.Schedule, scoreFn func([]*schedule.Schedule) []float64) []scored {
	pop := make([]*schedule.Schedule, 0, p.Population)
	pop = append(pop, seed...)
	if len(pop) > p.Population {
		pop = pop[:p.Population]
	}
	pop = append(pop, ctx.Gen.InitPopulation(ctx.RNG, p.Population-len(pop))...)

	all := map[string]scored{}
	for gen := 0; gen < p.Generations; gen++ {
		if ctx.cancelled() {
			break // the tuner discards rounds whose search was cut short
		}
		scores := scoreFn(pop)
		cands := make([]scored, len(pop))
		for i := range pop {
			c := scored{sch: pop[i], score: scores[i]}
			cands[i] = c
			fp := pop[i].Fingerprint()
			if prev, ok := all[fp]; !ok || c.score > prev.score {
				all[fp] = c
			}
		}
		if gen == p.Generations-1 {
			break
		}
		pop = nextGeneration(ctx, p, cands)
	}
	out := make([]scored, 0, len(all))
	for _, c := range all {
		out = append(out, c)
	}
	slices.SortStableFunc(out, byScoreThenFingerprint)
	return out
}

// nextGeneration breeds a new population with fitness-proportional parent
// selection (softmax over ranks) plus mutation and crossover.
func nextGeneration(ctx *Context, p EvoParams, cands []scored) []*schedule.Schedule {
	order := rankOrder(cands)
	// Rank-based selection weights.
	weights := make([]float64, len(cands))
	var sum float64
	for i := range cands {
		w := 1 / math.Sqrt(float64(i+1))
		weights[i] = w
		sum += w
	}
	sample := func() *schedule.Schedule {
		r := ctx.RNG.Float64() * sum
		for i, w := range weights {
			r -= w
			if r <= 0 {
				return cands[order[i]].sch
			}
		}
		return cands[order[len(order)-1]].sch
	}
	next := make([]*schedule.Schedule, 0, p.Population)
	// Elitism: carry the top 5%.
	elite := len(cands) / 20
	for i := 0; i < elite && i < len(cands); i++ {
		next = append(next, cands[order[i]].sch)
	}
	for len(next) < p.Population {
		switch r := ctx.RNG.Float64(); {
		case r < p.CrossProb:
			next = append(next, ctx.Gen.Crossover(ctx.RNG, sample(), sample()))
		case r < p.CrossProb+p.MutateProb:
			next = append(next, ctx.Gen.Mutate(ctx.RNG, sample()))
		default:
			next = append(next, ctx.Gen.Random(ctx.RNG))
		}
	}
	return next
}
