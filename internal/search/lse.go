package search

import (
	"slices"

	"pruner/internal/schedule"
)

// LSEParams configure the Latent Schedule Explorer (Algorithm 2).
type LSEParams struct {
	// SpecSize is |S_spec|, the drafted candidate budget (paper: 512).
	SpecSize int
	// Population is |S_x|, the GA population per step.
	Population int
	// Steps is nSteps, the number of GA iterations.
	Steps int
	// MutateProb / CrossProb drive SchMutation.
	MutateProb float64
	CrossProb  float64
}

// DefaultLSEParams are the paper's settings: S_spec = 512, with a GA
// exploring the same ~8,000 candidates per round Ansor's evolution sees —
// affordable precisely because each draft evaluation costs a fraction of
// a learned-model inference.
func DefaultLSEParams() LSEParams {
	return LSEParams{SpecSize: 512, Population: 1600, Steps: 5, MutateProb: 0.85, CrossProb: 0.05}
}

// withDefaults fills unset (zero) fields independently. The earlier
// all-or-nothing rule — defaults only when SpecSize was zero — meant a
// caller who set SpecSize but left Steps or Population zero silently got
// an empty draft set. Zero therefore always means "use the default"; a
// probability of exactly zero is not representable (use a negligible
// positive value instead).
func (p LSEParams) withDefaults() LSEParams {
	def := DefaultLSEParams()
	if p.SpecSize <= 0 {
		p.SpecSize = def.SpecSize
	}
	if p.Population <= 0 {
		p.Population = def.Population
	}
	if p.Steps <= 0 {
		p.Steps = def.Steps
	}
	if p.MutateProb <= 0 {
		p.MutateProb = def.MutateProb
	}
	if p.CrossProb <= 0 {
		p.CrossProb = def.CrossProb
	}
	return p
}

// RunLSE is Algorithm 2: a GA over the schedule space whose fitness is the
// Symbol-based Analyzer's hardware-fitness score, accumulating the best
// candidates seen into S_spec via PriorFilter. It never touches a learned
// model; the caller charges only draft-evaluation time.
//
// As in TVM's evolutionary search, the initial population is seeded with
// the task's best measured schedules so later rounds refine around proven
// programs instead of re-deriving the draft model's optimum from scratch.
func RunLSE(ctx *Context, p LSEParams) []*schedule.Schedule {
	if ctx.Draft == nil {
		panic("search: RunLSE requires a draft analyzer")
	}
	p = p.withDefaults()
	// Draft fitness runs on the session pool; breeding stays serial on the
	// task-owned RNG.
	scoreFn := ctx.scoreDraft

	// S_x <- best measured ∪ RandomInitSch(theta_x)
	pop := bestMeasured(ctx, p.Population/8)
	pop = append(pop, ctx.Gen.InitPopulation(ctx.RNG, p.Population-len(pop))...)
	// S_spec accumulates across steps (PriorFilter keeps the global top).
	spec := map[string]scored{}
	for step := 0; step < p.Steps; step++ {
		if ctx.cancelled() {
			break // the tuner discards rounds whose search was cut short
		}
		scores := scoreFn(pop)
		cands := make([]scored, len(pop))
		for i := range pop {
			c := scored{sch: pop[i], score: scores[i]}
			cands[i] = c
			fp := pop[i].Fingerprint()
			if prev, ok := spec[fp]; !ok || c.score > prev.score {
				spec[fp] = c
			}
		}
		// PriorFilter: retain only the SpecSize best in S_spec.
		if len(spec) > p.SpecSize {
			pruneSpec(spec, p.SpecSize)
		}
		if step == p.Steps-1 {
			break
		}
		// SchMutation: breed the next S_x guided by the draft fitness.
		pop = nextGeneration(ctx, EvoParams{
			Population: p.Population, Generations: 1,
			MutateProb: p.MutateProb, CrossProb: p.CrossProb,
		}, cands)
	}

	out := make([]scored, 0, len(spec))
	for _, c := range spec {
		out = append(out, c)
	}
	slices.SortStableFunc(out, byScoreThenFingerprint)
	if len(out) > p.SpecSize {
		out = out[:p.SpecSize]
	}
	schs := make([]*schedule.Schedule, len(out))
	for i, c := range out {
		schs[i] = c.sch
	}
	return schs
}

// pruneSpec trims the spec map to the k best entries in place.
func pruneSpec(spec map[string]scored, k int) {
	all := make([]scored, 0, len(spec))
	for _, c := range spec {
		all = append(all, c)
	}
	slices.SortStableFunc(all, byScoreThenFingerprint)
	for _, c := range all[k:] {
		delete(spec, c.sch.Fingerprint())
	}
}
