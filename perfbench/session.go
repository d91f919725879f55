package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/search"
	"pruner/internal/simulator"
	"pruner/internal/tuner"
	"pruner/internal/workloads"
)

// sessionSpec is one in-process tuning session: the method's policy and
// cost model, the network, and the budget.
type sessionSpec struct {
	Method   string // "pruner" or "ansor"
	Network  string
	Device   string
	MaxTasks int
	Trials   int
}

// sessionInputs is a session ready to tune; building it is the session's
// set-up.
type sessionInputs struct {
	dev   *device.Device
	tasks []*ir.Task
	opt   tuner.Options
}

// build resolves the spec into tuner.Options the way the pruner facade
// does for the same method: MethodPruner drafts with LSE and verifies
// with an online PaCM, MethodAnsor evolves and verifies every explored
// candidate with an online TenSetMLP.
func (sp sessionSpec) build(seed int64, parallelism int) (*sessionInputs, error) {
	dev, err := device.ByName(sp.Device)
	if err != nil {
		return nil, err
	}
	net, err := workloads.ByName(sp.Network)
	if err != nil {
		return nil, err
	}
	sim := simulator.New(dev)
	opt := tuner.Options{
		Trials:      sp.Trials,
		Seed:        seed,
		Parallelism: parallelism,
		OnlineTrain: true,
		Sim:         sim,
		Measurer:    measure.NewSim(sim),
	}
	switch sp.Method {
	case "pruner":
		opt.Policy = search.NewPrunerPolicy()
		opt.Model = costmodel.NewPaCM(seed + 1)
	case "ansor":
		opt.Policy = search.NewAnsorPolicy()
		opt.Model = costmodel.NewTenSetMLP(seed + 1)
	default:
		return nil, fmt.Errorf("unknown session method %q", sp.Method)
	}
	return &sessionInputs{dev: dev, tasks: net.Representative(sp.MaxTasks), opt: opt}, nil
}

// sessionRun is the outcome of one Tune call.
type sessionRun struct {
	res      *tuner.Result
	wall     float64   // seconds
	roundsMS []float64 // wall time between successive round commits
	fp       string
	// Traced sessions only.
	layers   *layerTotals
	allocMB  float64
	gcCycles float64
}

// tune runs one session. With lt non-nil the policy, model and
// measurer are wrapped and timed and the process's allocation and GC
// counters are read around Tune; otherwise the session runs bare.
func tune(in *sessionInputs, lt *layerTotals) sessionRun {
	opt := in.opt
	var run sessionRun
	var last time.Time
	opt.Progress = func(tuner.ProgressEvent) {
		now := time.Now()
		run.roundsMS = append(run.roundsMS, float64(now.Sub(last).Nanoseconds())/1e6)
		last = now
		if lt != nil {
			lt.round.Add(1)
		}
	}
	var before runtime.MemStats
	if lt != nil {
		opt.Policy = tracedPolicy{opt.Policy, lt}
		opt.Model = tracedModel{opt.Model, lt}
		opt.Measurer = tracedMeasurer{opt.Measurer, lt}
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	last = start
	run.res = tuner.Tune(in.dev, in.tasks, opt)
	end := time.Now()
	run.wall = end.Sub(start).Seconds()
	if lt != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		run.layers = lt
		run.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		run.gcCycles = float64(after.NumGC - before.NumGC)
		lt.span("tuner.tune", start, end)
	}
	run.fp = fingerprint(run.res)
	return run
}

// checkSession verifies a session's output: no interruption or backend
// error, a trial count equal to the budget, a valid best for every task,
// and a FinalLatency equal to the weighted sum of those bests.
func checkSession(res *tuner.Result, tasks []*ir.Task, trials int) error {
	if res.MeasureErr != nil {
		return fmt.Errorf("session measurement failed: %v", res.MeasureErr)
	}
	if res.Interrupted {
		return fmt.Errorf("session interrupted")
	}
	if got := len(res.Records) - res.Warm; got != trials {
		return fmt.Errorf("session measured %d trials, budget %d", got, trials)
	}
	if n := len(res.Curve); n == 0 || res.Curve[n-1].Trials != trials {
		return fmt.Errorf("session curve does not end at %d trials", trials)
	}
	var want float64
	for _, t := range tasks {
		b, ok := res.Best[t.ID]
		if !ok || b.Sched == nil || !(b.Latency > 0) || math.IsInf(b.Latency, 1) {
			return fmt.Errorf("task %s has no valid best", t.ID)
		}
		want += float64(t.Weight) * b.Latency
	}
	if res.FinalLatency != want {
		return fmt.Errorf("FinalLatency %v differs from the weighted sum of bests %v", res.FinalLatency, want)
	}
	return nil
}

// fingerprint hashes everything a session decides: the final latency,
// the simulated clock, the curve, every per-task best and the full
// record log, all as exact bit patterns.
func fingerprint(res *tuner.Result) string {
	h := sha256.New()
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	fmt.Fprintf(h, "%x %x %x %x %d %v\n", bits(res.FinalLatency), bits(res.Clock.Exploration),
		bits(res.Clock.Training), bits(res.Clock.Measurement), res.Warm, res.Interrupted)
	for _, p := range res.Curve {
		fmt.Fprintf(h, "c %d %d %x %x\n", p.Round, p.Trials, bits(p.SimSeconds), bits(p.WorkloadLat))
	}
	ids := make([]string, 0, len(res.Best))
	for id := range res.Best {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b := res.Best[id]
		sched := ""
		if b.Sched != nil {
			sched = b.Sched.Fingerprint()
		}
		fmt.Fprintf(h, "b %s %s %x\n", id, sched, bits(b.Latency))
	}
	for _, r := range res.Records {
		fmt.Fprintf(h, "r %s %s %x\n", r.Task.ID, r.Sched.Fingerprint(), bits(r.Latency))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// setupRepeats is how many times each session or cycle is set up; the
// run reports the median, and the last set-up is the one used.
const setupRepeats = 10

// runSessions runs a session workload. Every session of a run
// tunes the same inputs from the same seed, so each result must match
// the first bit for bit. A traced run alternates bare and traced
// sessions; the traced ones give the per-layer figures.
func runSessions(sp sessionSpec, cfg runConfig, rep *report) error {
	var (
		setups, walls, tracedWalls, roundsMS []float64
		traced                               []sessionRun
		ref                                  *tuner.Result // the run's first session
		refFP                                string
		refTasks                             []*ir.Task
	)
	one := func(id string, lt *layerTotals) error {
		// Collect the previous session's garbage first, so set-up starts
		// from a heap like a fresh process's and does not pay for it.
		runtime.GC()
		var in *sessionInputs
		for i := 0; i < setupRepeats; i++ {
			setupStart := time.Now()
			var err error
			if in, err = sp.build(cfg.Seed, cfg.Parallelism); err != nil {
				return err
			}
			setups = append(setups, time.Since(setupStart).Seconds())
		}
		if lt != nil {
			lt.sessionID = id
		}
		run := tune(in, lt)
		err := checkSession(run.res, in.tasks, sp.Trials)
		if ref == nil {
			ref, refFP, refTasks = run.res, run.fp, in.tasks
		} else if err == nil && run.fp != refFP {
			err = fmt.Errorf("session %s fingerprint %s differs from the run's first %s", id, run.fp, refFP)
		}
		rep.Ops.record(err)
		if lt == nil {
			walls = append(walls, run.wall)
			roundsMS = append(roundsMS, run.roundsMS...)
		} else {
			traced = append(traced, run)
			tracedWalls = append(tracedWalls, run.wall)
		}
		return nil
	}
	log := newSpanLog()
	loop := newTimeBox(cfg.Seconds)
	for k := 0; loop.next(); k++ {
		id := fmt.Sprintf("%s-%d-%d", rep.Workload, cfg.Seed, k)
		if err := one(id, nil); err != nil {
			return err
		}
		if cfg.Traced {
			if err := one(id+"-traced", &layerTotals{log: log}); err != nil {
				return err
			}
		}
		loop.done()
	}

	rep.Samples = map[string][]float64{"session_s": walls, "round_ms": roundsMS, "setup_s": setups}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.EndToEnd = []metric{
		{"session_s", median(walls), "s", fmt.Sprintf("median of %d sessions", len(walls))},
		{"round_p50_ms", median(roundsMS), "ms", fmt.Sprintf("median of %d rounds", len(roundsMS))},
		{"peak_rss_mb", peak, "MB", "VmHWM"},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
	}
	rep.Extra = append(rep.Extra,
		metric{"final_latency_ms", ref.FinalLatency * 1e3, "ms", "Result.FinalLatency"},
		metric{"sim_search_s", ref.Clock.Total(), "s", "Result.Clock.Total()"})
	rep.Extra = append(rep.Extra, roundTail(roundsMS)...)
	if !cfg.Traced {
		return nil
	}
	if err := log.save(cfg.path(rep, "spans")); err != nil {
		return err
	}
	rep.PerLayer = sessionLayers(traced, median(tracedWalls)/median(walls)-1)
	rep.Extra = append(rep.Extra, fitAlloc(traced))
	rep.StoreDirect, err = storeFromRecords(cfg, sp.Device, refTasks, ref.Records)
	return err
}

// roundTail reports the round p90 only when at least minBeyond rounds lie
// above it, that is when the run had 100 rounds or more.
func roundTail(roundsMS []float64) []metric {
	if p90, ok := percentile(roundsMS, 0.9); ok {
		return []metric{{"round_p90_ms", p90, "ms", fmt.Sprintf("p90 of %d rounds", len(roundsMS))}}
	}
	return nil
}

// sessionLayers turns the traced sessions' totals into per-session
// per-layer figures (medians over the traced sessions).
func sessionLayers(runs []sessionRun, overhead float64) []metric {
	n := len(runs)
	per := func(f func(r sessionRun) float64) float64 {
		xs := make([]float64, n)
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	note := fmt.Sprintf("per session, median of %d traced sessions", n)
	nextBatch := per(func(r sessionRun) float64 { return sec(r.layers.nextBatchNS.Load()) })
	predict := per(func(r sessionRun) float64 { return sec(r.layers.predictNS.Load()) })
	cands := per(func(r sessionRun) float64 { return float64(r.layers.predictCands.Load()) })
	fit := per(func(r sessionRun) float64 { return sec(r.layers.fitNS.Load()) })
	meas := per(func(r sessionRun) float64 { return sec(r.layers.measureNS.Load()) })
	scheds := per(func(r sessionRun) float64 { return float64(r.layers.measureScheds.Load()) })
	return []metric{
		{"search.next_batch_s", nextBatch, "s", note},
		{"search.calls", per(func(r sessionRun) float64 { return float64(r.layers.nextBatchCalls.Load()) }), "count", note},
		{"search.draft_self_s", per(func(r sessionRun) float64 {
			return sec(r.layers.nextBatchNS.Load() - r.layers.predictInBatch.Load())
		}), "s", "NextBatch minus the Predict nested in it; " + note},
		{"costmodel.predict_s", predict, "s", note},
		{"costmodel.predict_candidates", cands, "count", note},
		{"costmodel.predict_us_per_candidate", ratio(predict*1e6, cands), "us", "base: predicted candidates"},
		{"costmodel.predicted_per_trial", ratio(cands, scheds), "ratio", fmt.Sprintf("base: %g measured trials", scheds)},
		{"costmodel.fit_s", fit, "s", note},
		{"costmodel.fit_records", per(func(r sessionRun) float64 { return float64(r.layers.fitRecords.Load()) }), "count", note},
		{"measure.measure_s", meas, "s", note},
		{"measure.schedules", scheds, "count", note},
		{"measure.errors", per(func(r sessionRun) float64 { return float64(r.layers.measureErrors.Load()) }), "count", note},
		{"tuner.self_s", per(func(r sessionRun) float64 {
			l := r.layers
			return r.wall - sec(l.nextBatchNS.Load()+l.fitNS.Load()+l.measureNS.Load())
		}), "s", "session wall minus NextBatch, Fit and Measure; " + note},
		{"tuner.alloc_mb", per(func(r sessionRun) float64 { return r.allocMB }), "MB", "TotalAlloc delta around Tune; " + note},
		{"tuner.gc_cycles", per(func(r sessionRun) float64 { return r.gcCycles }), "count", "NumGC delta around Tune; " + note},
		{"tuner.trace_overhead_frac", overhead, "ratio", "base: median bare session_s of the same run"},
	}
}

// fitAlloc is the allocation volume of the online fits; only the
// wrapped model can see it, so it exists on the session workloads only.
func fitAlloc(runs []sessionRun) metric {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = float64(r.layers.fitAllocBytes.Load()) / (1 << 20)
	}
	return metric{"costmodel.fit_alloc_mb", median(xs), "MB",
		fmt.Sprintf("TotalAlloc delta around Fit, per session, median of %d traced sessions", len(runs))}
}
