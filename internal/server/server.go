// Package server is the tuning daemon's HTTP layer: tuning-as-a-service
// over the pruner facade, backed by the persistent record store.
//
// API (JSON everywhere; see API.md for curl examples):
//
//	POST /v1/jobs            enqueue a tuning job (or answer it from the store)
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       job status, curve and result
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET  /v1/jobs/{id}/events  SSE round-by-round progress (replay + live)
//	GET  /v1/best            best stored schedules for (device, network)
//	GET  /v1/healthz         liveness + queue/store/fleet statistics
//	POST /v1/measurers       register (or heartbeat) a measurement worker
//	GET  /v1/measurers       list registered workers + dispatch stats
//	DELETE /v1/measurers     deregister a worker (?url=...)
//	GET  /metrics            Prometheus text exposition of the daemon's registry
//	GET  /v1/trace           recent pipeline spans (ring buffer) as JSON
//
// Concurrency model: a bounded queue feeds a fixed set of worker
// goroutines, and every job tunes on ONE shared parallel.Pool — the
// daemon's -parallelism flag is a real budget, so N concurrent jobs
// contend for that budget instead of multiplying it (the pool's nested
// semaphore makes the sum of all sessions' helpers stay within it).
//
// Store integration: before searching, a job warm-starts from the store's
// history for its (device, task set); when the store already holds a
// valid best for every task of the request, the job is answered from the
// store with zero new measurements ("source": "store") — the repeat-query
// path that makes tuning cost amortise across sessions. Every completed
// job appends only its NEW measurements back to the store.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"pruner"
	"pruner/internal/ir"
	"pruner/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Store persists and answers from tuning history. Required.
	Store *store.Store
	// Pool is the shared tuning budget all jobs draw on; nil sizes one to
	// the machine.
	Pool *pruner.Pool
	// Workers is the number of jobs tuned concurrently (default 1).
	Workers int
	// QueueDepth bounds the backlog; a full queue rejects submissions
	// with 503 (default 16).
	QueueDepth int
	// DefaultTrials is the measurement budget of jobs that do not set one
	// (default 200). MaxTrials caps requested budgets (default 10x
	// DefaultTrials).
	DefaultTrials int
	MaxTrials     int
	// Pretrained optionally supplies offline cost-model weights (loaded
	// from a pruner.SaveModel bundle via the daemon's -model-in flag).
	// When set, jobs may request the pretrained-weight methods whose
	// architecture matches the bundle's kind (e.g. moa-pruner for "pacm");
	// without it those methods are rejected at submit time.
	Pretrained *pruner.Pretrained
	// MeasurerTTL expires fleet workers whose last heartbeat (re-POST to
	// /v1/measurers) is older than this; expired workers stay listed but
	// are not dispatched to. 0 selects 2 minutes; negative never expires.
	MeasurerTTL time.Duration
	// MaxPipelineDepth caps the per-job pipeline_depth request
	// (default 16).
	MaxPipelineDepth int
	// Obs is the daemon's observability spine: every job tunes armed
	// with it, /metrics scrapes its registry, /v1/trace serves its span
	// ring and /v1/healthz is assembled from registry reads. nil builds
	// a wall-clock observer — the serving layer is the one sanctioned
	// time boundary; deterministic layers see the clock only by
	// injection, and armed sessions stay bitwise identical to unarmed
	// ones.
	Obs *pruner.Observer
	// Log receives the daemon's structured lifecycle logs (job start,
	// round commits at debug, terminal states, measurer churn) with
	// job/round/measurer attrs. nil discards them (tests, embedders).
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Pool == nil {
		c.Pool = pruner.NewPool(0)
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTrials <= 0 {
		c.DefaultTrials = 200
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 10 * c.DefaultTrials
	}
	if c.MeasurerTTL == 0 {
		c.MeasurerTTL = 2 * time.Minute
	}
	if c.MaxPipelineDepth <= 0 {
		c.MaxPipelineDepth = 16
	}
	if c.Obs == nil {
		c.Obs = pruner.NewObserver(0)
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the daemon. Create with New, serve Handler(), stop with
// Shutdown.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *job
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
	closed bool

	// Measurer registry (measurers.go); guarded by its own mutex so fleet
	// bookkeeping never contends with job bookkeeping.
	mmu           sync.Mutex
	measurers     map[string]*measurerEntry
	measurerOrder []string

	// Prepared instruments on cfg.Obs's registry (obs.go).
	obs serverObs
}

// New starts the worker goroutines and returns the server. The parent
// context bounds the daemon's lifetime: cancelling it stops the workers
// (Close still performs the orderly drain).
func New(parent context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	ctx, cancel := context.WithCancel(parent)
	s := &Server{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		queue:     make(chan *job, cfg.QueueDepth),
		jobs:      map[string]*job{},
		measurers: map[string]*measurerEntry{},
	}
	s.initObs()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		//pruner:allow rawgo — the daemon's job workers live for the server's lifetime and are joined by wg on Shutdown; the parallel pool is for bounded fan-out inside a session, not long-lived service loops
		go s.worker()
	}
	return s, nil
}

// Shutdown stops accepting jobs, cancels running sessions (they stop at
// the next round boundary and their partial measurements are persisted),
// and waits for the workers up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		s.cancel()
		close(s.queue)
	}
	done := make(chan struct{})
	//pruner:allow rawgo — shutdown waiter: turns wg.Wait into a select-able channel so Shutdown can honor ctx's deadline; exits as soon as the workers drain
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/best", s.handleBest)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/measurers", s.handleRegisterMeasurer)
	mux.HandleFunc("GET /v1/measurers", s.handleListMeasurers)
	mux.HandleFunc("DELETE /v1/measurers", s.handleDeregisterMeasurer)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	return mux
}

// ms converts seconds to milliseconds for the API, mapping the tuner's
// +Inf "no valid measurement yet" (and any other non-finite value, which
// json.Marshal rejects outright) to the JSON-safe sentinel -1.
func ms(seconds float64) float64 {
	v := seconds * 1e3
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // response write failure is the client's problem
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds the JSON bodies the daemon decodes: job specs and
// measurer registrations. Both are a handful of short fields, well under
// 1 KiB, so 64 KiB admits any legitimate client while an untrusted one
// cannot make the decoder buffer without limit.
const maxRequestBody = 64 << 10

// decodeBody decodes r's size-bounded JSON body into v. On failure it
// answers 413 with the limit for an oversized body, 400 otherwise, and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	default:
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// resolve validates a spec against the registries, fills its defaults in
// place, and returns the device, network and the job's task set. The spec
// is fully normalised at submit time; afterwards it is immutable.
func (s *Server) resolve(spec *JobSpec) (*pruner.Device, *pruner.Network, []*ir.Task, error) {
	dev, err := pruner.DeviceByName(spec.Device)
	if err != nil {
		return nil, nil, nil, err
	}
	net, err := pruner.LoadNetwork(spec.Network)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Trials <= 0 {
		spec.Trials = s.cfg.DefaultTrials
	}
	if spec.Trials > s.cfg.MaxTrials {
		return nil, nil, nil, fmt.Errorf("trials %d exceeds the daemon cap %d", spec.Trials, s.cfg.MaxTrials)
	}
	// A negative batch would make the round count negative (an instant
	// bogus "done"); a batch above the trials budget would measure the
	// whole batch in one round, bypassing the trials cap. Zero takes the
	// library default.
	if spec.BatchSize < 0 || spec.BatchSize > spec.Trials {
		return nil, nil, nil, fmt.Errorf("batch_size %d out of range [0, trials=%d]", spec.BatchSize, spec.Trials)
	}
	switch spec.Measurer {
	case "", "auto", "simulator", "fleet":
	default:
		return nil, nil, nil, fmt.Errorf("measurer %q is not one of auto, simulator, fleet", spec.Measurer)
	}
	if spec.PipelineDepth < 0 || spec.PipelineDepth > s.cfg.MaxPipelineDepth {
		return nil, nil, nil, fmt.Errorf("pipeline_depth %d out of range [0, %d]", spec.PipelineDepth, s.cfg.MaxPipelineDepth)
	}
	if spec.Method == "" {
		spec.Method = string(pruner.MethodPruner)
	}
	switch method := pruner.Method(spec.Method); method {
	case pruner.MethodPruner, pruner.MethodAnsor, pruner.MethodMetaSchedule, pruner.MethodRoller:
	default:
		// Everything else is either a pretrained-weight method — servable
		// only when the daemon was started with a matching -model-in
		// bundle (consulting the canonical pruner.PretrainedKind map, so a
		// new pretrained method needs no server change) — or unknown.
		// Reject either up front instead of failing mid-queue.
		kind := pruner.PretrainedKind(method)
		if kind == "" {
			return nil, nil, nil, fmt.Errorf("method %q is not servable (supported: pruner, ansor, metaschedule, roller%s)", spec.Method, servablePretrained(s.cfg.Pretrained))
		}
		if s.cfg.Pretrained == nil {
			return nil, nil, nil, fmt.Errorf("method %q needs pretrained weights; start the daemon with -model-in", spec.Method)
		}
		if s.cfg.Pretrained.Kind != kind {
			return nil, nil, nil, fmt.Errorf("method %q needs %q weights, daemon loaded %q", spec.Method, kind, s.cfg.Pretrained.Kind)
		}
	}
	return dev, net, net.Representative(spec.MaxTasks), nil
}

// servablePretrained names the extra methods a loaded bundle enables,
// for the submit-time error message (derived from the canonical
// pruner.PretrainedKind map so the list cannot drift).
func servablePretrained(p *pruner.Pretrained) string {
	if p == nil {
		return ""
	}
	var extra string
	for _, m := range []pruner.Method{
		pruner.MethodMoAPruner, pruner.MethodPrunerOffline,
		pruner.MethodTenSetMLP, pruner.MethodTLP,
	} {
		if pruner.PretrainedKind(m) == p.Kind {
			extra += ", " + string(m)
		}
	}
	return extra
}

// decodeSpec reads and resolves a job-spec request body. It answers 413
// or 400 itself when the body is oversized, malformed or names an
// invalid job, and returns false.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, []*ir.Task, bool) {
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return spec, nil, false
	}
	_, _, tasks, err := s.resolve(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return spec, nil, false
	}
	return spec, tasks, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, tasks, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}

	// The cache-hit path: history already covers every task of this
	// (device, network) at least as deeply as the requested budget —
	// answer from the store, no search, no queue slot. Shallower
	// history warm-starts a real search below instead.
	if !spec.Fresh && s.cfg.Store.Covered(spec.Device, tasks, spec.Trials) {
		j := s.register(spec)
		j.finish(StateDone, s.storeResult(spec, tasks), "")
		s.cfg.Log.Info("job answered from store", "job", j.id,
			"device", spec.Device, "network", spec.Network)
		writeJSON(w, http.StatusOK, j.view())
		return
	}

	j, err := s.enqueue(spec)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// enqueue registers a job and places it on the bounded queue, atomically
// with the shutdown check so a submission can never race the queue close.
func (s *Server) enqueue(spec JobSpec) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server is shutting down")
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j-%06d", s.nextID), spec, s.obs.jobStates)
	j.enqueuedAt = time.Now()
	select {
	case s.queue <- j:
	default:
		s.nextID--
		j.states.With(string(StateQueued)).Add(-1) // never entered the queue
		return nil, fmt.Errorf("job queue is full (depth %d)", s.cfg.QueueDepth)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j, nil
}

// register allocates an ID and tracks the job.
func (s *Server) register(spec JobSpec) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := newJob(fmt.Sprintf("j-%06d", s.nextID), spec, s.obs.jobStates)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]jobView, len(list))
	for i, j := range list {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleEvents streams the job's progress as Server-Sent Events: full
// replay of past events, then live rounds until the job is terminal.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	s.obs.sseStreams.Add(1)
	defer s.obs.sseStreams.Add(-1)

	i := 0
	for {
		evs, changed, done := j.snapshot(i)
		for _, ev := range evs {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			s.obs.sseEvents.Inc()
		}
		if len(evs) > 0 {
			flusher.Flush()
			i += len(evs)
			continue // drain before deciding the stream is over
		}
		if done {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := JobSpec{Device: q.Get("device"), Network: q.Get("network")}
	_, _ = fmt.Sscanf(q.Get("max_tasks"), "%d", &spec.MaxTasks) // unparsable means 0 = no cap
	_, _, tasks, err := s.resolve(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	best, workload, covered := s.bestViews(spec.Device, tasks)
	writeJSON(w, http.StatusOK, map[string]any{
		"device":      spec.Device,
		"network":     spec.Network,
		"covered":     covered,
		"tasks":       len(tasks),
		"workload_ms": ms(workload),
		"best":        best,
	})
}

// handleHealthz assembles the daemon's health view from the same
// registry /metrics scrapes (the job-state gauges, the store's
// func-backed occupancy gauges, the fleet's per-worker counters), so a
// scrape and a health check can never tell different stories. The JSON
// shape predates the registry and is kept stable.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	reg := s.cfg.Obs.Reg()
	counts := map[string]int{}
	for _, state := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		if v, ok := reg.Value(MetricJobs, string(state)); ok && v != 0 {
			counts[string(state)] = int(v)
		}
	}
	regGauge := func(name string) int {
		v, _ := reg.Value(name)
		return int(v)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": map[bool]string{false: "ok", true: "shutting-down"}[closed],
		"store": map[string]any{
			"devices":            regGauge(store.MetricDevices),
			"records":            regGauge(store.MetricRecords),
			"dropped_tail_lines": regGauge(store.MetricDropped),
		},
		"jobs":        counts,
		"workers":     s.cfg.Workers,
		"queue_depth": s.cfg.QueueDepth,
		"parallelism": s.cfg.Pool.Workers(),
		"measurers":   s.measurerStats(),
	})
}

// bestViews assembles per-task best entries from the store; workload is
// the weighted latency sum (seconds), covered whether every task has one.
func (s *Server) bestViews(device string, tasks []*ir.Task) (views []BestView, workload float64, covered bool) {
	ids := make([]string, len(tasks))
	byID := make(map[string]*ir.Task, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
		byID[t.ID] = t
	}
	best := s.cfg.Store.BestForTasks(device, ids)
	covered = len(best) == len(tasks)
	for _, id := range ids {
		b, ok := best[id]
		if !ok {
			continue
		}
		t := byID[id]
		views = append(views, BestView{
			TaskID:    id,
			TaskName:  t.Name,
			Weight:    t.Weight,
			LatencyUS: b.LatencyUS,
			Records:   b.Records,
			Record:    b.Line,
		})
		workload += float64(t.Weight) * b.LatencyUS / 1e6
	}
	return views, workload, covered
}

// storeResult builds a terminal result for a store-answered job.
func (s *Server) storeResult(spec JobSpec, tasks []*ir.Task) *JobResult {
	best, workload, _ := s.bestViews(spec.Device, tasks)
	return &JobResult{
		Source:          "store",
		FinalWorkloadMS: ms(workload),
		Best:            best,
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one tuning job end to end.
func (s *Server) run(j *job) {
	// Every terminal transition is logged with the job attr so operators
	// can grep a job's lifecycle out of the daemon's structured stream.
	finish := func(state JobState, res *JobResult, errMsg string) {
		j.finish(state, res, errMsg)
		if errMsg != "" {
			s.cfg.Log.Warn("job finished", "job", j.id, "state", string(state), "error", errMsg)
			return
		}
		s.cfg.Log.Info("job finished", "job", j.id, "state", string(state))
	}
	if s.ctx.Err() != nil {
		finish(StateCanceled, nil, "server shut down before the job started")
		return
	}
	if j.cancelRequested() {
		finish(StateCanceled, nil, "canceled while queued")
		return
	}
	if !j.enqueuedAt.IsZero() {
		s.obs.queueWait.Observe(time.Since(j.enqueuedAt).Seconds())
	}
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	j.setCancel(cancel)

	// The spec was normalised at submit time; work on a copy so nothing
	// here races a concurrent view().
	spec := j.spec
	dev, net, tasks, err := s.resolve(&spec)
	if err != nil {
		finish(StateFailed, nil, err.Error())
		return
	}

	var warm []pruner.Record
	if !spec.Fresh {
		warm, err = s.cfg.Store.WarmStart(spec.Device, tasks)
		if err != nil {
			finish(StateFailed, nil, fmt.Sprintf("warm-start: %v", err))
			return
		}
	}

	// Measurement backend: the registered worker fleet when requested (or
	// on "auto" with live workers), the in-process simulator otherwise.
	// Both produce bitwise-identical results for the same seed, so the
	// choice is purely about where the measurement wall-clock is spent.
	// Fleets are handed the daemon's long-lived registry, so per-worker
	// dispatch totals accumulate across jobs and are scrapeable (and
	// served by /v1/measurers) mid-session.
	var fleet *pruner.Fleet
	measName := "simulator"
	switch spec.Measurer {
	case "", "auto":
		if urls := s.liveMeasurerURLs(); len(urls) > 0 {
			fleet = pruner.NewObservedFleet(urls, s.cfg.Obs)
			measName = "fleet"
		}
	case "simulator":
	case "fleet":
		urls := s.liveMeasurerURLs()
		if len(urls) == 0 {
			finish(StateFailed, nil, "measurer \"fleet\" requested but no live measurement workers are registered (POST /v1/measurers)")
			return
		}
		fleet = pruner.NewObservedFleet(urls, s.cfg.Obs)
		measName = "fleet"
	}

	j.publish(StateRunning, Event{Type: "started", Trials: spec.Trials, WarmRecords: len(warm), Measurer: measName})
	s.cfg.Log.Info("job started", "job", j.id, "device", spec.Device,
		"network", spec.Network, "method", spec.Method, "trials", spec.Trials,
		"measurer", measName, "warm_records", len(warm))

	// Round wall-clock is stamped here, at the commit boundary: the
	// deterministic engine never reads a real clock, and Progress
	// callbacks arrive serially, so successive timestamps bracket each
	// committed round.
	lastRound := time.Now()
	cfg := pruner.Config{
		Method:        pruner.Method(spec.Method),
		Trials:        spec.Trials,
		BatchSize:     spec.BatchSize,
		Seed:          spec.Seed,
		MaxTasks:      spec.MaxTasks,
		TensorCore:    spec.TensorCore,
		PipelineDepth: spec.PipelineDepth,
		AdaptBudget:   spec.AdaptBudget,
		Pretrained:    s.cfg.Pretrained,
		Pool:          s.cfg.Pool,
		Ctx:           ctx,
		WarmStart:     warm,
		Obs:           s.cfg.Obs,
		Progress: func(ev pruner.ProgressEvent) {
			now := time.Now()
			elapsed := now.Sub(lastRound)
			lastRound = now
			s.obs.roundSeconds.Observe(elapsed.Seconds())
			s.cfg.Log.Debug("round committed", "job", j.id,
				"round", ev.Round, "rounds", ev.Rounds,
				"measurer", ev.Measurer, "round_millis", elapsed.Milliseconds())
			j.publish("", Event{
				Type:         "round",
				Round:        ev.Round,
				Rounds:       ev.Rounds,
				Task:         ev.TaskName,
				Trials:       ev.Trials,
				SimSeconds:   ev.SimSeconds,
				WorkloadMS:   ms(ev.WorkloadLat),
				TaskBestMS:   ms(ev.TaskBest),
				Measurer:     ev.Measurer,
				InFlight:     ev.InFlight,
				RoundMillis:  elapsed.Milliseconds(),
				CalibError:   ev.CalibError,
				VerifyBudget: ev.VerifyBudget,
				DraftBudget:  ev.DraftBudget,
				TargetDepth:  ev.TargetDepth,
			})
		},
	}
	if fleet != nil {
		cfg.Measurer = fleet
	}
	res, err := pruner.Tune(dev, net, cfg)
	if err != nil {
		finish(StateFailed, nil, err.Error())
		return
	}

	// Persist only what this session measured; the warm prefix is already
	// in the store. This runs even when the measurement backend failed
	// mid-session: the committed prefix is genuine history (the failed
	// batch itself was dropped by the tuner, so fleet trouble can never
	// poison the store).
	fresh := res.Records[res.Warm:]
	if err := s.cfg.Store.Append(spec.Device, fresh); err != nil {
		finish(StateFailed, nil, fmt.Sprintf("persisting records: %v", err))
		return
	}
	if res.MeasureErr != nil {
		finish(StateFailed, nil, fmt.Sprintf("measurement backend failed after %d measurements: %v", len(fresh), res.MeasureErr))
		return
	}

	result := &JobResult{
		Source:            "tuned",
		FinalWorkloadMS:   ms(res.FinalLatency),
		WarmRecords:       res.Warm,
		NewMeasurements:   len(fresh),
		Interrupted:       res.Interrupted,
		Measurer:          measName,
		SimCompileSeconds: res.Clock.Total(),
	}
	for _, p := range res.Curve {
		result.Curve = append(result.Curve, CurveView{
			Round: p.Round, Trials: p.Trials,
			SimSeconds: p.SimSeconds, WorkloadMS: ms(p.WorkloadLat),
		})
	}
	result.Best, _, _ = s.bestViews(spec.Device, tasks)

	state := StateDone
	if res.Interrupted {
		state = StateCanceled
	}
	finish(state, result, "")
}
