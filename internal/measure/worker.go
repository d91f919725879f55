package measure

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

// wireHeader is the first line of a fleet measurement request: the device
// to measure on and the full task definition (the worker holds no session
// state, so every batch is self-describing — TVM-RPC-runner style).
type wireHeader struct {
	Device string   `json:"device"`
	Task   *ir.Task `json:"task"`
}

// WorkerOptions configure a measurement worker.
type WorkerOptions struct {
	// Pool bounds the worker's measurement fan-out; nil sizes one to the
	// machine.
	Pool *parallel.Pool
	// SimConfig overrides the hidden-model settings of the worker's
	// simulators (tests); the zero value selects the calibrated defaults,
	// matching in-process sessions.
	SimConfig simulator.Config
	// Metrics, when non-nil, exposes the worker's counters as
	// func-backed metrics (pruner_worker_* — see metrics.go) and mounts
	// GET /metrics on the worker's handler.
	Metrics *obs.Registry
}

// Worker executes measurement batches on behalf of remote tuning
// sessions: the serving half of a Fleet, exposed over HTTP by
// cmd/pruner-measure. It returns true (noise-free) latencies — the
// session applies measurement noise at commit, which is what keeps
// fleet-measured sessions bitwise identical to simulator-backed ones.
type Worker struct {
	opts WorkerOptions

	mu   sync.Mutex
	sims map[string]*simulator.Simulator

	batches   atomic.Int64
	schedules atomic.Int64
	busy      atomic.Int64

	measureSeconds *obs.Histogram // nil without WorkerOptions.Metrics
}

// NewWorker builds a worker.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Pool == nil {
		opts.Pool = parallel.New(0)
	}
	w := &Worker{opts: opts, sims: map[string]*simulator.Simulator{}}
	if reg := opts.Metrics; reg != nil {
		// Func-backed counters sample the same atomics /healthz reports,
		// so a scrape and a health check can never disagree.
		reg.CounterFunc(MetricWorkerBatches, "Measurement batches executed.",
			func() float64 { return float64(w.batches.Load()) })
		reg.CounterFunc(MetricWorkerSchedules, "Schedules executed.",
			func() float64 { return float64(w.schedules.Load()) })
		reg.GaugeFunc(MetricWorkerBusy, "In-flight measure requests.",
			func() float64 { return float64(w.busy.Load()) })
		w.measureSeconds = reg.Histogram(MetricWorkerMeasureSeconds,
			"Per-batch execution latency.", nil)
	}
	return w
}

// sim returns the worker's simulator for a device, building it on first
// use. One worker serves any preset device: the fleet routes by batch,
// not by worker identity.
func (w *Worker) sim(name string) (*simulator.Simulator, error) {
	dev, err := device.ByName(name)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.sims[dev.Name]
	if s == nil {
		s = simulator.NewWithConfig(dev, w.opts.SimConfig)
		w.sims[dev.Name] = s
	}
	return s, nil
}

// WorkerStatus is the worker's /healthz body.
type WorkerStatus struct {
	Status      string `json:"status"`
	Batches     int64  `json:"batches"`
	Schedules   int64  `json:"schedules"`
	Busy        int64  `json:"busy"`
	Parallelism int    `json:"parallelism"`
}

// Status snapshots the worker's counters.
func (w *Worker) Status() WorkerStatus {
	return WorkerStatus{
		Status:      "ok",
		Batches:     w.batches.Load(),
		Schedules:   w.schedules.Load(),
		Busy:        w.busy.Load(),
		Parallelism: w.opts.Pool.Workers(),
	}
}

// Handler returns the worker's HTTP surface:
//
//	POST /measure  execute one batch (wire format: header line + record lines)
//	GET  /healthz  liveness + counters
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /measure", w.handleMeasure)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(w.Status()) // response write failure is the client's problem
	})
	if reg := w.opts.Metrics; reg != nil {
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WriteText(rw) // scrape write failure is the scraper's problem
		})
	}
	return mux
}

// maxMeasureBody bounds a /measure request body. The largest batch the
// code sends is one tuning round of BatchSize schedules, and the daemon
// caps BatchSize at a job's trial budget (-max-trials, default 2000). The
// worst case over every built-in workload task is a 681-byte header line
// plus 270 bytes per record line, so that batch is about 0.55 MB; 8 MiB
// leaves 15x headroom (about 31,000 schedules).
const maxMeasureBody = 8 << 20

// bodyError answers a failed request-body read: 413 with the limit when
// the body outgrew maxMeasureBody, 400 naming what was being read
// otherwise.
func bodyError(rw http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		workerError(rw, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	workerError(rw, http.StatusBadRequest, "%s: %v", what, err)
}

func (w *Worker) handleMeasure(rw http.ResponseWriter, r *http.Request) {
	w.busy.Add(1)
	defer w.busy.Add(-1)

	br := bufio.NewReader(http.MaxBytesReader(rw, r.Body, maxMeasureBody))
	head, err := br.ReadBytes('\n')
	var tooBig *http.MaxBytesError
	if err != nil && (len(head) == 0 || errors.As(err, &tooBig)) {
		bodyError(rw, "reading request header", err)
		return
	}
	var hdr wireHeader
	if err := json.Unmarshal(head, &hdr); err != nil {
		workerError(rw, http.StatusBadRequest, "decoding request header: %v", err)
		return
	}
	if hdr.Task == nil {
		workerError(rw, http.StatusBadRequest, "request header carries no task")
		return
	}
	if err := hdr.Task.Validate(); err != nil {
		workerError(rw, http.StatusBadRequest, "invalid task: %v", err)
		return
	}
	sim, err := w.sim(hdr.Device)
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	recs, err := ReadRecords(br, []*ir.Task{hdr.Task})
	if err != nil {
		bodyError(rw, "decoding batch", err)
		return
	}
	if len(recs) == 0 {
		workerError(rw, http.StatusBadRequest, "empty batch")
		return
	}

	// Evaluate true latencies on the worker pool; one round memo shares
	// lowerings across the batch. Cancellation (the session aborting the
	// round) is observed between schedules.
	ctx := r.Context()
	memo := schedule.NewMemo()
	execStart := time.Now()
	var canceled atomic.Bool
	w.opts.Pool.ForEach(len(recs), func(i int) {
		if canceled.Load() {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		lat, err := sim.LatencyLowered(memo.Lower(hdr.Task, recs[i].Sched))
		if err != nil {
			recs[i].Latency = math.Inf(1)
			return
		}
		recs[i].Latency = lat
	})
	if ctx.Err() != nil {
		return // client gone; nothing useful to write
	}
	w.batches.Add(1)
	w.schedules.Add(int64(len(recs)))
	w.measureSeconds.Observe(time.Since(execStart).Seconds())

	rw.Header().Set("Content-Type", "application/x-ndjson")
	if err := WriteRecords(rw, recs); err != nil {
		// Headers are out; all we can do is drop the connection so the
		// fleet sees a short read instead of a silently truncated batch.
		if hj, ok := rw.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				_ = conn.Close() // dropping the connection IS the error signal here
			}
		}
	}
}

func workerError(rw http.ResponseWriter, code int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) // best-effort error body
}

// encodeRequest serialises a Request into the wire form the worker reads.
// Latencies are not known yet, so every line carries the -1 sentinel.
func encodeRequest(req Request) ([]byte, error) {
	var buf bytes.Buffer
	hdr, err := json.Marshal(wireHeader{Device: req.Device, Task: req.Task})
	if err != nil {
		return nil, err
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	recs := make([]costmodel.Record, len(req.Batch))
	for i, s := range req.Batch {
		recs[i] = costmodel.Record{Task: req.Task, Sched: s, Latency: math.Inf(1)}
	}
	if err := WriteRecords(&buf, recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
