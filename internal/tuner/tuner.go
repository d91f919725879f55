// Package tuner implements the paper's Algorithm 1: full-graph tuning of a
// partitioned workload with a gradient-based task scheduler, pluggable
// on-device measurement (internal/measure), online cost-model training,
// and the MoA-Pruner Momentum online Adaptation strategy (§4.3). The
// round loop is a pipelined engine: up to Options.PipelineDepth
// measurement batches are in flight while search and online fits proceed,
// with results committed in strict round order so sessions stay
// deterministic at any worker count (DESIGN.md §9).
package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"pruner/internal/analyzer"
	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/nn"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/search"
	"pruner/internal/simulator"
)

// Adaptation selects how a pretrained cost model is used during online
// tuning.
type Adaptation int

const (
	// AdaptNone starts the cost model from scratch.
	AdaptNone Adaptation = iota
	// AdaptFineTune loads pretrained weights once and fine-tunes online
	// (the paper's "O-F" baseline).
	AdaptFineTune
	// AdaptMoA runs the Momentum online Adaptation: the pretrained model
	// is the Siamese network; each round the target is re-initialised from
	// it, fine-tuned, and fed back with momentum m.
	AdaptMoA
)

// Options configure one tuning session.
type Options struct {
	// Trials is the total measurement budget (paper: 2,000).
	Trials int
	// BatchSize is measurements per round (paper: 10).
	BatchSize int
	// Policy proposes candidates; Model verifies/guides it.
	Policy search.Policy
	Model  costmodel.Model
	// OnlineTrain enables online cost-model updates from collected data.
	OnlineTrain bool
	// TrainEvery spaces online updates (rounds); MoA uses 2 by default.
	TrainEvery int
	// Fit configures each online training call.
	Fit costmodel.FitOptions
	// Replay bounds each incremental online fit: the fit sees the records
	// measured since the last fit plus Replay records sampled from earlier
	// rounds (so per-session training cost grows linearly with rounds, not
	// quadratically). 0 selects 4*BatchSize — 12*BatchSize under MoA,
	// whose every update re-initialises the target from the Siamese and
	// therefore leans harder on the sample — and negative disables
	// replay. Set it very large (it is capped at the history size) to
	// recover the old full-history refit. The sample comes from a
	// dedicated deterministic stream, so sessions stay bitwise
	// reproducible at any Parallelism.
	Replay int
	// Adaptation + Pretrained select the cross-platform strategy.
	Adaptation Adaptation
	Pretrained []*nn.Tensor
	// Momentum is MoA's m (default 0.99).
	Momentum float64
	// TensorCore tunes wmma schedules (MetaSchedule-style sessions).
	TensorCore bool
	// Seed drives all randomness in the session.
	Seed int64
	// Parallelism is the session's worker count for candidate scoring and
	// simulated measurement; <= 0 selects runtime.NumCPU(), 1 runs
	// serially. Results are bitwise identical at any setting: every random
	// draw comes from a deterministic per-task (or scheduler-owned) stream
	// on the serial path, and workers only evaluate pure functions.
	Parallelism int
	// Pool optionally supplies a caller-owned worker budget shared with
	// other concurrent sessions (suite fan-outs), overriding Parallelism;
	// nil builds a session-private pool. Sharing keeps total concurrency
	// at the pool's budget instead of multiplying per session.
	Pool *parallel.Pool
	// Measurer is the measurement backend: the in-process simulator
	// adapter (default), a remote worker fleet, or a test fake. Backends
	// return true latencies; the session draws measurement noise itself at
	// commit time, which keeps results bitwise identical across backends.
	Measurer measure.Measurer
	// PipelineDepth bounds how many measurement rounds may be in flight at
	// once. 1 (the default) reproduces the serial loop bitwise; higher
	// depths overlap round r's measurement with round r+1's search and the
	// round-r online fit, committing results in strict round order so a
	// fixed depth is still bitwise reproducible at any Parallelism and
	// across measurement backends. Ignored when AdaptBudget is set: the
	// controller then owns the window (1..Adapt.MaxDepth), which makes
	// adaptive sessions bitwise identical at any requested depth.
	PipelineDepth int
	// AdaptBudget enables the calibration-driven budget controller
	// (adapt.go, DESIGN.md §14): per-task predicted-vs-measured rank
	// error — tracked from commit-ordered results only — shrinks or
	// grows the verify/measure batch, the LSE draft budget handed to the
	// policy, and the effective pipeline depth, spending trials where
	// the model is uncertain and skipping verification where it is
	// calibrated. Off (the default), the engine is bitwise identical to
	// the fixed-budget loop.
	AdaptBudget bool
	// Adapt bounds the controller; zero fields select defaults. Only
	// read when AdaptBudget is set.
	Adapt AdaptConfig
	// Sim overrides the simulator (tests, noise ablations); nil builds the
	// default. Kept as a compatibility alias: unless Measurer is set, the
	// session wraps Sim in the in-process measure.Sim adapter.
	Sim *simulator.Simulator
	// Cost overrides the simulated-clock constants; zero uses defaults.
	Cost simulator.CostParams
	// DraftConfig tweaks the Symbol-based Analyzer (penalty ablations).
	DraftConfig analyzer.Config
	// Ctx optionally bounds the session: cancellation is observed inside
	// the measurement stage (in-flight batches abort mid-batch) and
	// between pipeline stages; the session stops cleanly and the partial
	// Result (with Interrupted set) is still valid. nil never cancels.
	// Cancellation never changes what an uncancelled prefix of committed
	// rounds computes, so the determinism contract is unaffected.
	Ctx context.Context
	// Progress, when non-nil, is invoked on the session goroutine after
	// every measurement round (serially, in round order). Callbacks must
	// not retain the event's schedule pointers past the call if they
	// mutate them (they never should); blocking callbacks slow tuning but
	// cannot reorder it.
	Progress func(ProgressEvent)
	// Obs, when non-nil, receives the session's observability: plan /
	// measure / commit spans into its tracer and round/stage latency,
	// batch-size and trial metrics into its registry. The engine times
	// everything through the observer's injected Clock — a no-op clock
	// reads constant zero — and readings flow only into spans and
	// metrics, never into results, so a fully-armed observer leaves
	// session fingerprints bitwise unchanged. nil disables observability
	// at the cost of a few nil checks per round.
	Obs *obs.Observer
	// WarmStart seeds the session with prior measurements (a record log or
	// store history, the cross-session MoA story): each record lands in
	// its task's measured set (so the policy never re-proposes it), its
	// latency competes for the task best, and — when OnlineTrain is set —
	// one initial Fit over the warm records primes the cost model before
	// round 0. Records whose task is not part of this session are ignored.
	// Warm records charge neither measurement time nor trials — those
	// were paid for by an earlier session — though the priming fit
	// itself charges training time like any online update. Identical
	// WarmStart slices keep the session bitwise reproducible at any
	// Parallelism.
	WarmStart []costmodel.Record
}

func (o Options) withDefaults(dev *device.Device) Options {
	if o.Trials == 0 {
		o.Trials = 2000
	}
	if o.BatchSize == 0 {
		o.BatchSize = 10
	}
	if o.TrainEvery == 0 {
		if o.Adaptation == AdaptMoA {
			o.TrainEvery = 2
		} else {
			o.TrainEvery = 1
		}
	}
	if o.Momentum == 0 {
		// The paper's m = 0.99 assumes ~100 Siamese updates (200 rounds,
		// update every 2). Shorter sessions scale the momentum so the
		// Siamese absorbs a comparable total amount of target progress:
		// m = 0.99^(100/updates).
		updates := float64(o.Trials) / float64(o.BatchSize) / float64(o.TrainEvery)
		if updates < 1 {
			updates = 1
		}
		o.Momentum = math.Pow(0.99, math.Min(32, 100/updates))
	}
	if o.Sim == nil {
		o.Sim = simulator.New(dev)
	}
	if o.Measurer == nil {
		o.Measurer = measure.NewSim(o.Sim)
	}
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = 1
	}
	if o.Cost == (simulator.CostParams{}) {
		o.Cost = simulator.DefaultCostParams(dev)
	}
	if o.Fit.Epochs == 0 {
		o.Fit.Epochs = 8
	}
	if o.Replay == 0 {
		if o.Adaptation == AdaptMoA {
			o.Replay = 12 * o.BatchSize
		} else {
			o.Replay = 4 * o.BatchSize
		}
	}
	if o.Adaptation == AdaptMoA {
		// Each MoA update re-initialises the target from the Siamese, so
		// the fine-tune must re-absorb its training slice — the fresh
		// batch plus the (MoA-enlarged) replay sample — every time; it
		// gets twice the epochs, paid for by MoA's halved update
		// frequency. History beyond the sample reaches the model through
		// the momentum-blended Siamese.
		o.Fit.Epochs *= 2
	}
	return o
}

// taskState tracks per-task tuning progress.
type taskState struct {
	task        *ir.Task
	gen         *schedule.Generator
	records     []costmodel.Record
	measuredSet map[string]bool
	best        float64
	bestSched   *schedule.Schedule
	trials      int
	// bestHistory[r] is the best latency after this task's r-th round.
	bestHistory []float64
	// rng is the task-owned random stream (seed split by task index), so
	// one task's draws never depend on how other tasks interleave.
	rng *rand.Rand
}

// ProgressEvent is one round of session progress, delivered to
// Options.Progress as it happens (the server's SSE feed and any other
// live observer consume these).
type ProgressEvent struct {
	// Round / Rounds locate the event within the session.
	Round  int
	Rounds int
	// TaskID / TaskName identify the subgraph tuned this round.
	TaskID   string
	TaskName string
	// Batch is the number of measurements taken this round; Trials the
	// session total so far (warm-start records excluded).
	Batch  int
	Trials int
	// TaskBest is the task's best latency (s) after this round; +Inf
	// until the task has a valid measurement.
	TaskBest float64
	// SimSeconds / WorkloadLat mirror the curve point appended this round.
	SimSeconds  float64
	WorkloadLat float64
	// Measurer names the backend that executed this round's batch
	// ("simulator", "fleet"), so observers can see where a job's time
	// goes.
	Measurer string
	// InFlight is the number of measurement batches (this one included)
	// that were in flight when the round committed — the pipeline window's
	// utilisation; 1 on the serial path.
	InFlight int
	// RoundMillis is the wall-clock duration of the round in
	// milliseconds. The deterministic engine never reads the wall clock
	// and always leaves it zero; the serving layer stamps it at the
	// commit boundary (between successive Progress callbacks) before
	// forwarding events to SSE consumers.
	RoundMillis int64
	// CalibError is the controller's smoothed predicted-vs-measured rank
	// error for this round's task after the commit (0 perfect ranking,
	// 0.5 random). Only meaningful when Options.AdaptBudget is set;
	// fixed-budget sessions leave it zero.
	CalibError float64
	// VerifyBudget / DraftBudget / TargetDepth are the controller's
	// decisions in force when this round was planned: the measured-batch
	// bound, the LSE |S_spec| handed to the policy (0 when the policy
	// exposes no draft budget), and the pipeline-window bound. All zero
	// when adaptation is off.
	VerifyBudget int
	DraftBudget  int
	TargetDepth  int
}

// CurvePoint is one sample of the tuning curve.
type CurvePoint struct {
	Round       int
	Trials      int
	SimSeconds  float64 // simulated wall-clock since session start
	WorkloadLat float64 // sum over tasks of weight * best latency (s)
}

// BestEntry is the tuned result for one task.
type BestEntry struct {
	Task    *ir.Task
	Sched   *schedule.Schedule
	Latency float64
}

// Result summarises a tuning session.
type Result struct {
	Curve []CurvePoint
	Best  map[string]BestEntry
	Clock simulator.Clock
	// FinalLatency is the workload latency (s) after the last round.
	FinalLatency float64
	// Records is the full measurement log (online dataset). The first
	// Warm entries are the accepted warm-start records; Records[Warm:]
	// are the measurements this session actually took (what a caller
	// should persist to avoid re-logging history).
	Records []costmodel.Record
	// Warm counts the leading warm-start records in Records.
	Warm int
	// Interrupted reports that the session stopped before the measurement
	// budget was spent — Options.Ctx was cancelled, or the measurement
	// backend failed (MeasureErr). The Result covers the completed prefix
	// of rounds.
	Interrupted bool
	// MeasureErr is the measurement-backend error that stopped the
	// session, if any (a fleet whose workers all refused a batch). The
	// failed batch and everything after it are NOT in Records: a backend
	// failure is transient infrastructure trouble, and recording it as
	// +Inf "failed builds" would poison the durable store and every
	// warm-started session after it.
	MeasureErr error
}

// WorkloadLatencyAt returns the earliest simulated time the curve reaches
// a workload latency <= target, or +Inf if never.
func (r *Result) WorkloadLatencyAt(target float64) float64 {
	for _, p := range r.Curve {
		if p.WorkloadLat <= target {
			return p.SimSeconds
		}
	}
	return math.Inf(1)
}

// schedulerStream is the scheduler's SplitSeed stream index; task streams
// use the task index, so any negative constant keeps them disjoint.
const schedulerStream = -2

// trainStream owns the online trainer's replay-sampling draws, disjoint
// from every task stream and the scheduler stream.
const trainStream = -3

// Tune runs Algorithm 1 over the partitioned task set on one device.
func Tune(dev *device.Device, tasks []*ir.Task, opt Options) *Result {
	opt = opt.withDefaults(dev)
	pool := opt.Pool
	if pool == nil {
		pool = parallel.New(opt.Parallelism)
	}
	if pu, ok := opt.Model.(costmodel.PoolUser); ok {
		pu.SetPool(pool)
	}
	if ou, ok := opt.Model.(costmodel.ObsUser); ok {
		ou.SetObserver(opt.Obs)
	}
	eo := newEngineObs(opt.Obs)
	draft := &analyzer.Analyzer{Dev: dev, Cfg: opt.DraftConfig}

	// The adaptive controller (nil under fixed budgets — every use below
	// is gated, so the fixed path is untouched down to the clock charge).
	var ctrl *adaptController
	if opt.AdaptBudget {
		specBase := 0
		if sb, ok := opt.Policy.(search.SpecBudgeter); ok {
			specBase = sb.SpecBudget()
		}
		ctrl = newAdaptController(opt.Adapt, opt.BatchSize, specBase)
	}

	states := make([]*taskState, len(tasks))
	for i, t := range tasks {
		gen := schedule.NewGenerator(t)
		gen.MaxThreads = dev.MaxThreads
		gen.MaxSharedWords = dev.SharedPerBlock
		gen.TensorCore = opt.TensorCore && t.TensorCoreEligible()
		gen.WMMA = dev.WMMA
		if gen.WMMA == 0 {
			gen.WMMA = 16
		}
		states[i] = &taskState{
			task:        t,
			gen:         gen,
			measuredSet: map[string]bool{},
			best:        math.Inf(1),
			rng:         rand.New(rand.NewSource(parallel.SplitSeed(opt.Seed, int64(i)))),
		}
	}

	res := &Result{Best: map[string]BestEntry{}}

	// Warm-start: fold prior records into each task's state before any
	// round runs. Dedup by schedule fingerprint so a record replayed from
	// several logs seeds once; rebind the task pointer to the session's
	// instance so downstream grouping (cost-model fits key on Task) sees
	// one identity. The order of opt.WarmStart fully determines the
	// seeded state, which keeps warm sessions deterministic.
	var allRecords []costmodel.Record
	stateByID := make(map[string]*taskState, len(states))
	for _, st := range states {
		stateByID[st.task.ID] = st
	}
	for _, r := range opt.WarmStart {
		if r.Task == nil || r.Sched == nil {
			continue
		}
		st, ok := stateByID[r.Task.ID]
		if !ok {
			continue // history covers more networks than this session
		}
		fp := r.Sched.Fingerprint()
		if st.measuredSet[fp] {
			continue
		}
		st.measuredSet[fp] = true
		rec := costmodel.Record{Task: st.task, Sched: r.Sched, Latency: r.Latency}
		st.records = append(st.records, rec)
		allRecords = append(allRecords, rec)
		if !math.IsInf(rec.Latency, 1) && !math.IsNaN(rec.Latency) && rec.Latency < st.best {
			st.best = rec.Latency
			st.bestSched = rec.Sched
		}
	}
	res.Warm = len(allRecords)

	sched := newTaskScheduler(states,
		rand.New(rand.NewSource(parallel.SplitSeed(opt.Seed, schedulerStream))))

	// MoA: the Siamese starts as a copy of the pretrained weights; plain
	// fine-tuning loads them into the target once.
	var siamese []*nn.Tensor
	switch opt.Adaptation {
	case AdaptMoA:
		if opt.Pretrained == nil {
			panic("tuner: AdaptMoA requires pretrained weights")
		}
		siamese = cloneParams(opt.Pretrained)
		nn.CopyParams(opt.Model.Params(), siamese)
	case AdaptFineTune:
		if opt.Pretrained == nil {
			panic("tuner: AdaptFineTune requires pretrained weights")
		}
		nn.CopyParams(opt.Model.Params(), opt.Pretrained)
	case AdaptNone:
		// The model trains from scratch online.
	}

	// Online training is incremental: each fit sees the records measured
	// since the last fit plus a seeded replay sample of older history, so
	// per-session training cost grows linearly with rounds instead of
	// quadratically (the full-history refit this replaces). The training
	// feature cache is session-scoped — records are append-only and
	// features deterministic — so each record is lowered and featurized
	// once per session, not once per epoch x round.
	opt.Fit.Cache = costmodel.NewFitCache()
	trainedTo := 0
	trainRNG := rand.New(rand.NewSource(parallel.SplitSeed(opt.Seed, trainStream)))

	// trainOnline is Algorithm 1 line 13 (and the warm-start priming fit):
	// MoA re-initialises the target from the Siamese before fitting and
	// feeds the result back with momentum; other adaptations fit in place.
	trainOnline := func() {
		fresh := allRecords[trainedTo:]
		fitRecs := fresh
		if history := allRecords[:trainedTo]; len(history) > 0 && opt.Replay > 0 {
			k := opt.Replay
			if k > len(history) {
				k = len(history)
			}
			fitRecs = make([]costmodel.Record, 0, len(fresh)+k)
			fitRecs = append(fitRecs, fresh...)
			for _, i := range trainRNG.Perm(len(history))[:k] {
				fitRecs = append(fitRecs, history[i])
			}
		}
		trainedTo = len(allRecords)
		var report costmodel.FitReport
		if opt.Adaptation == AdaptMoA {
			nn.CopyParams(opt.Model.Params(), siamese)
			report = opt.Model.Fit(fitRecs, opt.Fit)
			nn.MomentumUpdate(siamese, opt.Model.Params(), opt.Momentum)
		} else {
			report = opt.Model.Fit(fitRecs, opt.Fit)
		}
		res.Clock.Training += float64(report.SampleVisits) * opt.Cost.TrainPerSample * opt.Model.Costs().TrainX
	}
	canTrain := opt.OnlineTrain && opt.Model.Params() != nil

	// Warm history primes the cost model before the first round, so the
	// verify stage starts from the transferred fit instead of random
	// weights — the cross-session analogue of MoA's cross-platform
	// adaptation.
	if canTrain && len(allRecords) > 0 {
		trainOnline()
	}

	// ------------------------------------------------------------------
	// Pipelined round engine. Rounds flow through three stages — plan
	// (task selection + draft/verify search), measure (the pluggable
	// backend, in a background goroutine), commit (noise, records, online
	// fit, curve/progress) — with at most PipelineDepth rounds in flight.
	//
	// Determinism: plan and commit both run on this goroutine in a fixed
	// interleaving (commit the oldest round exactly when the window is
	// full, then plan the next), so every random draw — scheduler picks,
	// policy draws, measurement noise, replay sampling — happens in a
	// deterministic order for a fixed depth, no matter how many workers
	// the pool has or how long the backend takes. Background measurement
	// is a pure function of the dispatched batch. Depth 1 interleaves
	// plan(r), commit(r), plan(r+1): exactly the historical serial loop.
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background() //pruner:allow ctxflow — documented nil-Ctx default (Options.Ctx); the session then runs to completion
	}
	minfo := opt.Measurer.Info()
	// mctx aborts in-flight batches the moment the session stops —
	// whether by cancellation or by the engine returning.
	mctx, mcancel := context.WithCancel(ctx)
	defer mcancel()

	type inflight struct {
		round   int
		st      *taskState
		batch   []*schedule.Schedule
		done    chan struct{}
		results []measure.Result
		err     error
		// planStart / measureStart are observer-clock readings taken at
		// plan entry and batch dispatch; msp is the open measure span.
		// All three live on the session goroutine only.
		planStart    int64
		measureStart int64
		msp          *obs.ActiveSpan
		// pred holds the verifier's scores for the dispatched batch and
		// verifyWant / draftWant / depthAt the controller's decisions in
		// force at plan time; all zero under fixed budgets.
		pred       []float64
		verifyWant int
		draftWant  int
		depthAt    int
		// calibErr is the task's smoothed rank error after this commit.
		calibErr float64
	}

	rounds := (opt.Trials + opt.BatchSize - 1) / opt.BatchSize
	// plannedTrials caps adaptive batches at the session budget. The
	// fixed path keeps its historical accounting (rounds*BatchSize may
	// overshoot Trials by up to BatchSize-1), preserved bit-for-bit.
	plannedTrials := 0

	// plan runs round selection and the draft/verify search, pre-marks the
	// batch as measured (so deeper pipelines never propose a schedule that
	// is already in flight) and dispatches the batch to the backend. It
	// reports false when the session was cancelled mid-search: a truncated
	// batch must not be dispatched, or cancellation timing would change
	// committed results.
	plan := func(round int) (*inflight, bool) {
		planStart := eo.clock.Now()
		psp := eo.tr.Start("tuner.plan", obs.Int("round", round))
		st := sched.next(round)

		// One lowering memo per round: draft scoring, cost-model
		// verification and in-process measurement all resolve
		// candidates through it, so each is lowered and
		// featurized exactly once. Scoped to the round so entries die with
		// the round's candidate pool.
		memo := schedule.NewMemo()
		if mu, ok := opt.Model.(costmodel.MemoUser); ok {
			mu.SetMemo(memo)
		}
		sctx := &search.Context{
			Ctx:         ctx,
			Task:        st.task,
			Gen:         st.gen,
			RNG:         st.rng,
			Pool:        pool,
			Measured:    st.records,
			MeasuredSet: st.measuredSet,
			Model:       opt.Model,
			Draft:       draft,
			Clock:       &res.Clock,
			Cost:        opt.Cost,
			Memo:        memo,
		}
		want, verifyWant, draftWant, depthAt := opt.BatchSize, 0, 0, 0
		if ctrl != nil {
			want = ctrl.verifyBudget(st.task.ID)
			if rem := opt.Trials - plannedTrials; want > rem {
				want = rem
			}
			verifyWant = want
			draftWant = ctrl.draftBudget(st.task.ID)
			depthAt = ctrl.targetDepth()
			sctx.DraftBudget = draftWant
		}
		batch := opt.Policy.NextBatch(sctx, want)
		var pred []float64
		if ctrl != nil && len(batch) > 1 {
			// Capture the verifier's scores for exactly the dispatched
			// batch while the round memo still holds its features; the
			// commit folds them against measured latencies. Charged like
			// any verify-stage inference (adaptive sessions only, so the
			// fixed clock is untouched).
			pred = opt.Model.Predict(st.task, batch)
			mc := opt.Model.Costs()
			res.Clock.Exploration += float64(len(batch)) *
				(opt.Cost.FeatureExtract*mc.FeatureX + opt.Cost.ModelInfer*mc.InferX)
		}
		if mu, ok := opt.Model.(costmodel.MemoUser); ok {
			mu.SetMemo(nil) // do not retain the round's programs
		}
		if ctx.Err() != nil {
			return nil, false
		}
		for _, s := range batch {
			st.measuredSet[s.Fingerprint()] = true
		}
		plannedTrials += len(batch)
		psp.End(obs.String("task", st.task.ID), obs.Int("batch", len(batch)))
		eo.planSeconds.Observe(obs.Seconds(eo.clock, planStart))
		eo.verifyBatch.Observe(float64(len(batch)))
		f := &inflight{round: round, st: st, batch: batch, done: make(chan struct{}), planStart: planStart,
			pred: pred, verifyWant: verifyWant, draftWant: draftWant, depthAt: depthAt}
		if len(batch) == 0 {
			close(f.done)
			return f, true
		}
		f.measureStart = eo.clock.Now()
		f.msp = eo.tr.Start("tuner.measure",
			obs.Int("round", round), obs.String("measurer", minfo.Name), obs.Int("batch", len(batch)))
		//pruner:allow rawgo — the pipelined round engine's single in-flight measurement; determinism is pinned by commit order (rounds fold in strictly by round index), not by when this goroutine finishes
		go func() {
			f.results, f.err = opt.Measurer.Measure(mctx, measure.Request{
				Device: dev.Name,
				Task:   st.task,
				Batch:  batch,
				Memo:   memo,
				Pool:   pool,
			})
			if f.err == nil && len(f.results) != len(f.batch) {
				f.err = fmt.Errorf("tuner: measurer %q returned %d results for a batch of %d",
					minfo.Name, len(f.results), len(f.batch))
			}
			close(f.done)
		}()
		return f, true
	}

	// commit folds one measured round into the session, in strict round
	// order: measurement noise (drawn from the task stream, one per valid
	// result in index order — the historical sequence), records, bests,
	// the simulated clock, the online fit, and the curve/progress point.
	// Empty-batch rounds still emit their curve point and Progress event
	// (Batch=0) so round accounting is gapless for SSE consumers. Returns
	// false when the session was cancelled before the batch finished.
	commit := func(f *inflight, inFlight int) bool {
		select {
		case <-f.done:
		case <-ctx.Done():
			return false
		}
		if len(f.batch) > 0 {
			f.msp.End(obs.Bool("err", f.err != nil))
			eo.measureSeconds.Observe(obs.Seconds(eo.clock, f.measureStart))
		}
		commitStart := eo.clock.Now()
		csp := eo.tr.Start("tuner.commit",
			obs.Int("round", f.round), obs.Int("in_flight", inFlight))
		st := f.st
		if len(f.batch) > 0 {
			if f.err != nil {
				if ctx.Err() != nil {
					return false
				}
				// Backend failure (a fleet whose workers all refused the
				// batch): stop the session with the completed prefix.
				// The failed batch is dropped, not recorded — fabricating
				// +Inf "failed build" records for transient
				// infrastructure trouble would persist to the store and
				// poison every warm-started session after it.
				res.MeasureErr = f.err
				return false
			}
			measure.ApplyNoise(f.results, st.rng, minfo.MeasureNoise)
			lats := make([]float64, len(f.results))
			for i, r := range f.results {
				lats[i] = r.Latency
				rec := costmodel.Record{Task: st.task, Sched: f.batch[i], Latency: r.Latency}
				st.records = append(st.records, rec)
				allRecords = append(allRecords, rec)
				if r.Valid && r.Latency < st.best {
					st.best = r.Latency
					st.bestSched = f.batch[i]
				}
			}
			res.Clock.ChargeMeasurements(opt.Cost, lats)
			st.trials += len(f.batch)
			st.bestHistory = append(st.bestHistory, st.best)
			if ctrl != nil {
				// Feed the calibration tracker from the committed (noise
				// -applied) latencies — the only place results exist in
				// round order, which is what keeps every later control
				// decision reproducible.
				f.calibErr = ctrl.observe(st.task.ID, f.pred, lats)
			}

			// Online cost-model update (Algorithm 1 line 13).
			if canTrain && (f.round+1)%opt.TrainEvery == 0 {
				trainOnline()
			}
		}

		res.Curve = append(res.Curve, CurvePoint{
			Round:       f.round,
			Trials:      totalTrials(states),
			SimSeconds:  res.Clock.Total(),
			WorkloadLat: workloadLatency(states),
		})
		if opt.Progress != nil {
			opt.Progress(ProgressEvent{
				Round:        f.round,
				Rounds:       rounds,
				TaskID:       st.task.ID,
				TaskName:     st.task.Name,
				Batch:        len(f.batch),
				Trials:       totalTrials(states),
				TaskBest:     st.best,
				SimSeconds:   res.Clock.Total(),
				WorkloadLat:  workloadLatency(states),
				Measurer:     minfo.Name,
				InFlight:     inFlight,
				CalibError:   f.calibErr,
				VerifyBudget: f.verifyWant,
				DraftBudget:  f.draftWant,
				TargetDepth:  f.depthAt,
			})
		}
		if ctrl != nil {
			eo.calibError.Observe(f.calibErr)
			eo.verifyBudget.Set(float64(f.verifyWant))
			eo.draftBudget.Set(float64(f.draftWant))
			eo.targetDepth.Set(float64(f.depthAt))
		}
		csp.End(obs.Int("batch", len(f.batch)))
		eo.commitSeconds.Observe(obs.Seconds(eo.clock, commitStart))
		eo.roundSeconds.Observe(obs.Seconds(eo.clock, f.planStart))
		eo.rounds.Inc()
		eo.trials.Add(float64(len(f.batch)))
		eo.inFlight.Set(float64(inFlight))
		return true
	}

	// Under adaptation the controller owns the window bound: it is
	// re-read before every step, so depth follows session confidence
	// (committing the oldest rounds first whenever it shrinks below the
	// current occupancy). The bound derives only from committed state,
	// so the plan/commit interleaving — and therefore every result — is
	// identical at any Parallelism, requested depth, or backend.
	maxDepth := opt.PipelineDepth
	if ctrl != nil {
		maxDepth = ctrl.cfg.MaxDepth
	}
	window := make([]*inflight, 0, maxDepth)
	for planned := 0; planned < rounds || len(window) > 0; {
		depth := opt.PipelineDepth
		if ctrl != nil {
			depth = ctrl.targetDepth()
		}
		if len(window) >= depth || planned >= rounds {
			f := window[0]
			window = window[:copy(window, window[1:])]
			if !commit(f, len(window)+1) {
				res.Interrupted = true
				break
			}
			continue
		}
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		f, ok := plan(planned)
		if !ok {
			res.Interrupted = true
			break
		}
		window = append(window, f)
		planned++
	}

	for _, st := range states {
		res.Best[st.task.ID] = BestEntry{Task: st.task, Sched: st.bestSched, Latency: st.best}
	}
	res.FinalLatency = workloadLatency(states)
	res.Records = allRecords
	return res
}

// workloadLatency is the weighted sum of per-task bests; +Inf until every
// task has one valid measurement.
func workloadLatency(states []*taskState) float64 {
	var total float64
	for _, st := range states {
		if math.IsInf(st.best, 1) {
			return math.Inf(1)
		}
		total += float64(st.task.Weight) * st.best
	}
	return total
}

func totalTrials(states []*taskState) int {
	n := 0
	for _, st := range states {
		n += st.trials
	}
	return n
}

func cloneParams(ps []*nn.Tensor) []*nn.Tensor {
	out := make([]*nn.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

// SnapshotParams clones a model's current weights (e.g. after offline
// pretraining) for later use as Pretrained.
func SnapshotParams(m costmodel.Model) []*nn.Tensor {
	return cloneParams(m.Params())
}
