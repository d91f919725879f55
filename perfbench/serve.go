package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"pruner"
	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/obs"
	"pruner/internal/server"
	"pruner/internal/store"
	"pruner/internal/tuner"
	"pruner/internal/workloads"
)

// serveSpec is the daemon workload: per network, a fresh job, a job
// warm-started from the store, then repeats answered from the store.
type serveSpec struct {
	Device      string
	Networks    []string
	MaxTasks    int
	FreshTrials int
	WarmTrials  int
	Hits        int // repeats per network
}

// daemon is one in-process pruner-serve with one loopback measurement
// worker registered with it, as cmd/pruner-serve and cmd/pruner-measure
// would run them.
type daemon struct {
	store     *store.Store
	srv       *server.Server
	base      string // daemon URL
	workerURL string
	client    *http.Client
	https     []*http.Server
	served    chan error
}

// startDaemon opens the store in dir, starts the daemon and the worker on
// loopback listeners and registers the worker. It is the workload's
// set-up.
func startDaemon(dir string, parallelism int) (*daemon, error) {
	ob := pruner.NewObserver(0)
	st, err := store.Open(dir, store.Options{Metrics: ob.Reg()})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(context.Background(), server.Config{
		Store:       st,
		Pool:        pruner.NewPool(parallelism),
		Obs:         ob,
		MeasurerTTL: -1,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	worker := measure.NewWorker(measure.WorkerOptions{
		Pool:    pruner.NewPool(parallelism),
		Metrics: obs.NewRegistry(),
	})
	d := &daemon{
		store: st, srv: srv,
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{}},
		served: make(chan error, 2),
	}
	for _, h := range []http.Handler{srv.Handler(), worker.Handler()} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.stop()
			return nil, err
		}
		hs := &http.Server{Handler: h}
		d.https = append(d.https, hs)
		go func() { d.served <- hs.Serve(ln) }()
		if d.base == "" {
			d.base = "http://" + ln.Addr().String()
		} else {
			d.workerURL = "http://" + ln.Addr().String()
		}
	}
	body, _ := json.Marshal(map[string]string{"url": d.workerURL})
	if code, err := d.post("/v1/measurers", body, nil); err != nil || code != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("registering the worker: HTTP %d: %v", code, err)
	}
	return d, nil
}

// stop shuts the daemon, both HTTP servers and the store down and waits
// until the serve loops have returned.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{d.srv.Shutdown(ctx)}
	for _, hs := range d.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	for range d.https {
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	d.client.CloseIdleConnections()
	errs = append(errs, d.store.Close())
	return errors.Join(errs...)
}

// post sends a JSON body and decodes a JSON answer into out (when
// non-nil), returning the HTTP status.
func (d *daemon) post(path string, body []byte, out any) (int, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s answer: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// jobView is the daemon's job representation (GET /v1/jobs/{id}).
type jobView struct {
	ID     string            `json:"id"`
	State  string            `json:"state"`
	Error  string            `json:"error"`
	Result *server.JobResult `json:"result"`
}

// tunedJob is one searched job as the client saw it.
type tunedJob struct {
	wall     float64   // submit to the terminal event, seconds
	roundsMS []float64 // gaps between round events on the SSE stream
	view     jobView
}

// runTuned submits a job the store cannot answer, follows its SSE stream
// to the terminal event, then fetches the result.
func (d *daemon) runTuned(spec server.JobSpec) (tunedJob, error) {
	var tj tunedJob
	body, _ := json.Marshal(spec)
	start := time.Now()
	var queued jobView
	code, err := d.post("/v1/jobs", body, &queued)
	if err != nil {
		return tj, err
	}
	if code != http.StatusAccepted {
		return tj, fmt.Errorf("submit %s/%d trials: HTTP %d (%s), want 202", spec.Network, spec.Trials, code, queued.Error)
	}
	resp, err := d.client.Get(d.base + "/v1/jobs/" + queued.ID + "/events")
	if err != nil {
		return tj, err
	}
	defer resp.Body.Close()
	last := start
	var terminal server.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return tj, fmt.Errorf("decoding SSE event: %w", err)
		}
		now := time.Now()
		switch ev.Type {
		case "started":
			last = now
		case "round":
			tj.roundsMS = append(tj.roundsMS, float64(now.Sub(last).Nanoseconds())/1e6)
			last = now
		case "done", "failed", "canceled":
			terminal = ev
		}
		if terminal.Type != "" {
			break
		}
	}
	tj.wall = time.Since(start).Seconds()
	if err := sc.Err(); err != nil {
		return tj, fmt.Errorf("reading SSE stream: %w", err)
	}
	if terminal.Type != "done" {
		return tj, fmt.Errorf("job %s ended %q: %s", queued.ID, terminal.Type, terminal.Error)
	}
	r, err := d.client.Get(d.base + "/v1/jobs/" + queued.ID)
	if err != nil {
		return tj, err
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&tj.view); err != nil {
		return tj, fmt.Errorf("decoding job %s: %w", queued.ID, err)
	}
	return tj, nil
}

// checkTuned verifies a searched job: done, searched on the fleet, a full
// budget of new measurements, a valid best for every task and a final
// latency equal to the weighted sum of those bests.
func checkTuned(v jobView, tasks []*ir.Task, trials, warm int) error {
	res := v.Result
	if v.State != "done" || res == nil {
		return fmt.Errorf("job %s state %q: %s", v.ID, v.State, v.Error)
	}
	if res.Source != "tuned" || res.Measurer != "fleet" {
		return fmt.Errorf("job %s source %q measurer %q, want tuned on the fleet", v.ID, res.Source, res.Measurer)
	}
	if res.NewMeasurements != trials || res.WarmRecords != warm {
		return fmt.Errorf("job %s measured %d with %d warm records, want %d and %d", v.ID, res.NewMeasurements, res.WarmRecords, trials, warm)
	}
	return checkBests(v, tasks)
}

// checkBests recomputes the job's final latency from its per-task bests.
func checkBests(v jobView, tasks []*ir.Task) error {
	res := v.Result
	if len(res.Best) != len(tasks) {
		return fmt.Errorf("job %s has bests for %d of %d tasks", v.ID, len(res.Best), len(tasks))
	}
	var want float64
	for _, b := range res.Best {
		if !(b.LatencyUS > 0) {
			return fmt.Errorf("job %s task %s has no valid best", v.ID, b.TaskID)
		}
		want += float64(b.Weight) * b.LatencyUS / 1e3
	}
	if !sameLatency(res.FinalWorkloadMS, want) {
		return fmt.Errorf("job %s final_workload_ms %v, weighted sum of bests %v", v.ID, res.FinalWorkloadMS, want)
	}
	return nil
}

// sameLatency compares latencies that took different float paths (seconds
// in the engine, microseconds in the store's index).
func sameLatency(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// jobFingerprint is everything deterministic a searched job reports.
func jobFingerprint(res *server.JobResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x %x", math.Float64bits(res.FinalWorkloadMS), math.Float64bits(res.SimCompileSeconds))
	for _, p := range res.Curve {
		fmt.Fprintf(&b, " %d:%d:%x:%x", p.Round, p.Trials, math.Float64bits(p.SimSeconds), math.Float64bits(p.WorkloadMS))
	}
	return b.String()
}

// hit submits a request the store answers and checks the answer: done at
// once, zero new measurements, and the final latency of the job that
// tuned the network.
func (d *daemon) hit(body []byte, tasks []*ir.Task, wantMS float64) (float64, error) {
	start := time.Now()
	var v jobView
	code, err := d.post("/v1/jobs", body, &v)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return ms, err
	}
	if code != http.StatusOK || v.State != "done" || v.Result == nil || v.Result.Source != "store" {
		return ms, fmt.Errorf("repeat was not answered from the store: HTTP %d state %q", code, v.State)
	}
	if v.Result.NewMeasurements != 0 {
		return ms, fmt.Errorf("store answer reports %d new measurements", v.Result.NewMeasurements)
	}
	if !sameLatency(v.Result.FinalWorkloadMS, wantMS) {
		return ms, fmt.Errorf("store answer final_workload_ms %v, tuned job %v", v.Result.FinalWorkloadMS, wantMS)
	}
	return ms, checkBests(v, tasks)
}

// cycle is one pass of the client over every network on a fresh store.
type cycle struct {
	setups    []float64
	tuned     []tunedJob // fresh and warm job per network, in order
	hitsMS    []float64
	finalMS   float64 // sum over networks of the warm job's final latency
	simSearch float64 // sum over the cycle's searched jobs
	fps       []string
	// Traced cycles only.
	daemonMetrics, workerMetrics scrape
	allocMB, gcCycles            float64
	storeDir                     string
}

// meanJob is the mean submit-to-done time of the cycle's searched jobs.
// The cycle's mix is fixed (a fresh and a warm job per network), so the
// mean is steady where a median would fall in the gap between the short
// fresh and the long warm jobs.
func (c *cycle) meanJob() float64 {
	var t float64
	for _, tj := range c.tuned {
		t += tj.wall
	}
	return ratio(t, float64(len(c.tuned)))
}

// runCycle sets up a daemon on a fresh store and drives the closed-loop
// client through every network. Failed operations are tallied; only
// set-up failures abort the run.
func runCycle(sp serveSpec, cfg runConfig, rep *report, traced bool, log *spanLog, id string) (*cycle, error) {
	// Collect the previous cycle's garbage first, so set-up starts from a
	// heap like a fresh process's and does not pay for it.
	runtime.GC()
	c := &cycle{}
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(cfg.Scratch, "serve-store-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if d, err = startDaemon(dir, cfg.Parallelism); err != nil {
			return nil, err
		}
		c.setups = append(c.setups, time.Since(start).Seconds())
		c.storeDir = dir
		if log != nil {
			log.add("serve.setup", id, 0, start, time.Now())
		}
	}
	var before, after runtime.MemStats
	for i, name := range sp.Networks {
		net, err := workloads.ByName(name)
		if err != nil {
			d.stop()
			return nil, err
		}
		tasks := net.Representative(sp.MaxTasks)
		spec := server.JobSpec{Device: sp.Device, Network: name, MaxTasks: sp.MaxTasks, Seed: cfg.Seed}
		var warmMS float64
		for _, stage := range []struct{ trials, warm int }{{sp.FreshTrials, 0}, {sp.WarmTrials, sp.FreshTrials}} {
			spec.Trials = stage.trials
			if traced {
				runtime.ReadMemStats(&before)
			}
			t0 := time.Now()
			tj, err := d.runTuned(spec)
			if traced {
				runtime.ReadMemStats(&after)
				c.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
				c.gcCycles += float64(after.NumGC - before.NumGC)
			}
			if log != nil {
				log.add("serve.tuned_job", id, int64(i), t0, time.Now())
			}
			if err == nil {
				err = checkTuned(tj.view, tasks, stage.trials, stage.warm)
			}
			rep.Ops.record(err)
			if err != nil {
				continue
			}
			c.tuned = append(c.tuned, tj)
			c.simSearch += tj.view.Result.SimCompileSeconds
			c.fps = append(c.fps, jobFingerprint(tj.view.Result))
			warmMS = tj.view.Result.FinalWorkloadMS
		}
		c.finalMS += warmMS
		body, _ := json.Marshal(spec)
		for k := 0; k < sp.Hits; k++ {
			t0 := time.Now()
			ms, err := d.hit(body, tasks, warmMS)
			if log != nil {
				log.add("serve.hit", id, int64(i), t0, time.Now())
			}
			rep.Ops.record(err)
			if err == nil {
				c.hitsMS = append(c.hitsMS, ms)
			}
		}
	}
	if traced {
		var err error
		if c.daemonMetrics, err = fetchScrape(d.client, d.base+"/metrics"); err == nil {
			c.workerMetrics, err = fetchScrape(d.client, d.workerURL+"/metrics")
		}
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	return c, d.stop()
}

// runServe runs the daemon workload: whole cycles while they fit,
// each on a fresh store with the same seed, so every cycle's searched
// jobs must match the first cycle's bit for bit. A traced run alternates
// bare and traced cycles.
func runServe(sp serveSpec, cfg runConfig, rep *report) error {
	var bare, traced []*cycle
	refFP := ""
	log := newSpanLog()
	loop := newTimeBox(cfg.Seconds)
	for k := 0; loop.next(); k++ {
		for _, tr := range []bool{false, true} {
			if tr && !cfg.Traced {
				continue
			}
			id := fmt.Sprintf("%s-%d-%d", rep.Workload, cfg.Seed, k)
			var l *spanLog
			if tr {
				id += "-traced"
				l = log
			}
			c, err := runCycle(sp, cfg, rep, tr, l, id)
			if err != nil {
				return err
			}
			if fp := strings.Join(c.fps, "|"); refFP == "" {
				refFP = fp
			} else if fp != refFP {
				rep.Ops.record(fmt.Errorf("cycle %s searched jobs differ from the run's first cycle", id))
			}
			if tr {
				traced = append(traced, c)
			} else {
				bare = append(bare, c)
			}
		}
		loop.done()
	}

	var setups, jobs, jobMeans, rounds, hits []float64
	for _, c := range bare {
		setups = append(setups, c.setups...)
		hits = append(hits, c.hitsMS...)
		for _, tj := range c.tuned {
			jobs = append(jobs, tj.wall)
			rounds = append(rounds, tj.roundsMS...)
		}
		jobMeans = append(jobMeans, c.meanJob())
	}
	rep.Samples = map[string][]float64{"searched_job_s": jobs, "round_ms": rounds, "setup_s": setups}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	first := bare[0]
	rep.EndToEnd = []metric{
		{"session_s", median(jobMeans), "s", fmt.Sprintf("mean submit-to-done of a cycle's %d searched jobs, median of %d cycles", 2*len(sp.Networks), len(jobMeans))},
		{"round_p50_ms", median(rounds), "ms", fmt.Sprintf("SSE round gaps at the client, median of %d rounds", len(rounds))},
		{"peak_rss_mb", peak, "MB", "VmHWM of the process (client, daemon and worker)"},
		{"setup_s", median(setups), "s", fmt.Sprintf("store.Open to worker registered, median of %d set-ups", len(setups))},
	}
	rep.Extra = append(rep.Extra,
		metric{"final_latency_ms", first.finalMS, "ms", "sum over networks of the warm job's final_workload_ms"},
		metric{"sim_search_s", first.simSearch, "s", "sum of sim_compile_seconds over one cycle's searched jobs"},
		metric{"tuned_job_p50_ms", median(jobs) * 1e3, "ms", fmt.Sprintf("median of %d tuned jobs", len(jobs))},
		metric{"hit_p50_ms", median(hits), "ms", fmt.Sprintf("median of %d store-answered jobs", len(hits))})
	if p99, ok := percentile(hits, 0.99); ok {
		rep.Extra = append(rep.Extra, metric{"hit_p99_ms", p99, "ms", fmt.Sprintf("p99 of %d store-answered jobs", len(hits))})
	}
	rep.Extra = append(rep.Extra, roundTail(rounds)...)
	if !cfg.Traced {
		return nil
	}
	if err := log.save(cfg.path(rep, "spans")); err != nil {
		return err
	}
	tc := traced[len(traced)-1]
	var tracedMeans []float64
	for _, c := range traced {
		tracedMeans = append(tracedMeans, c.meanJob())
	}
	rep.PerLayer, rep.Extra = serveLayers(tc, median(tracedMeans)/median(jobMeans)-1, rep.Extra)

	var groups [][]*ir.Task
	minTotal := sp.FreshTrials + sp.WarmTrials
	for _, name := range sp.Networks {
		net, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		groups = append(groups, net.Representative(sp.MaxTasks))
	}
	rep.StoreDirect, err = storeDirect(cfg, tc.storeDir, sp.Device, groups, minTotal)
	return err
}

// serveLayers reads one traced cycle's per-layer figures out of the
// daemon's and the worker's /metrics. The daemon arms every job with its
// observer, so the engine's stage histograms and the cost model's
// predict/fit instruments stand in for the wrappers the session
// workloads use.
func serveLayers(c *cycle, overhead float64, extra []metric) ([]metric, []metric) {
	dm, wm := c.daemonMetrics, c.workerMetrics
	stage := func(st, suffix string) float64 {
		return dm.sum(tuner.MetricStageSeconds+suffix, map[string]string{"stage": st})
	}
	plan, planCalls := stage("plan", "_sum"), stage("plan", "_count")
	meas := stage("measure", "_sum")
	predict := dm.sum(costmodel.MetricPredictSeconds+"_sum", nil)
	cands := dm.sum(costmodel.MetricPredictCandidates, nil)
	fit := dm.sum(costmodel.MetricFitSeconds+"_sum", nil)
	trials := dm.sum(tuner.MetricTrials, nil)
	var jobs float64
	for _, tj := range c.tuned {
		jobs += tj.wall
	}
	note := fmt.Sprintf("one traced cycle of %d searched jobs", len(c.tuned))
	layers := []metric{
		{"search.next_batch_s", plan, "s", "engine plan stage (pruner_tuner_stage_seconds{stage=plan}); " + note},
		{"search.calls", planCalls, "count", "plan stage observations; " + note},
		{"search.draft_self_s", plan - predict, "s", "plan stage minus cost-model predict; " + note},
		{"costmodel.predict_s", predict, "s", "pruner_costmodel_predict_seconds; " + note},
		{"costmodel.predict_candidates", cands, "count", "pruner_costmodel_predict_candidates_total; " + note},
		{"costmodel.predict_us_per_candidate", ratio(predict*1e6, cands), "us", "base: predicted candidates"},
		{"costmodel.predicted_per_trial", ratio(cands, trials), "ratio", fmt.Sprintf("base: %g measured trials", trials)},
		{"costmodel.fit_s", fit, "s", "pruner_costmodel_fit_seconds; " + note},
		{"costmodel.fit_records", dm.sum(costmodel.MetricFitRecords, nil), "count", "pruner_costmodel_fit_records_total; " + note},
		{"measure.measure_s", meas, "s", "engine measure stage (pruner_tuner_stage_seconds{stage=measure}); " + note},
		{"measure.schedules", trials, "count", "pruner_tuner_trials_total; " + note},
		{"measure.errors", dm.sum(measure.MetricFleetFailures, nil), "count", "pruner_fleet_worker_failures_total; " + note},
		{"tuner.self_s", jobs - plan - fit - meas, "s", "searched jobs' submit-to-done minus plan, fit and measure; " + note},
		{"tuner.alloc_mb", c.allocMB, "MB", "process TotalAlloc delta around the searched jobs; " + note},
		{"tuner.gc_cycles", c.gcCycles, "count", "process NumGC delta around the searched jobs; " + note},
		{"tuner.trace_overhead_frac", overhead, "ratio", "base: bare session_s of the same run"},
	}
	batchP50, batches := dm.quantile(measure.MetricFleetBatchSeconds, 0.5, nil)
	waitP50, waits := dm.quantile(server.MetricQueueWaitSeconds, 0.5, nil)
	hitsCov := dm.sum(store.MetricCovered, map[string]string{"result": "hit"})
	checks := hitsCov + dm.sum(store.MetricCovered, map[string]string{"result": "miss"})
	extra = append(extra,
		metric{"measure.fleet_batch_p50_ms", batchP50 * 1e3, "ms", fmt.Sprintf("bucket-interpolated p50 of %g fleet batches (pruner_fleet_batch_seconds)", batches)},
		metric{"measure.worker_measure_s", wm.sum(measure.MetricWorkerMeasureSeconds+"_sum", nil), "s", "pruner_worker_measure_seconds; " + note},
		metric{"server.queue_wait_p50_ms", waitP50 * 1e3, "ms", fmt.Sprintf("bucket-interpolated p50 of %g queued jobs (pruner_server_queue_wait_seconds)", waits)},
		metric{"store.covered_hit_ratio", ratio(hitsCov, checks), "ratio", fmt.Sprintf("base: %g coverage checks (pruner_store_covered_checks_total)", checks)},
	)
	return layers, extra
}
