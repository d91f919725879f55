package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/measure"
	"pruner/internal/nn"
	"pruner/internal/obs"
	"pruner/internal/parallel"
	"pruner/internal/schedule"
	"pruner/internal/search"
)

// span is one timed call at a layer boundary. Spans stay in memory and
// are written out when the run ends.
type span struct {
	Layer   string `json:"layer"`
	Round   int64  `json:"round"`
	Session string `json:"session"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog collects spans from every goroutine of a run. Times are
// nanoseconds since the log was created.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(layer, session string, round int64, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{layer, round, session, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds()})
	l.mu.Unlock()
}

func (l *spanLog) save(path string) error {
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTotals accumulates one traced session's per-layer work. Fields
// written from the background measurement goroutine are atomics.
type layerTotals struct {
	nextBatchNS    atomic.Int64
	nextBatchCalls atomic.Int64
	predictNS      atomic.Int64
	predictInBatch atomic.Int64 // Predict time nested inside NextBatch
	predictCands   atomic.Int64
	fitNS          atomic.Int64
	fitRecords     atomic.Int64
	fitAllocBytes  atomic.Uint64
	measureNS      atomic.Int64
	measureScheds  atomic.Int64
	measureErrors  atomic.Int64
	inNextBatch    atomic.Bool
	round          atomic.Int64
	sessionID      string
	log            *spanLog
}

func (t *layerTotals) span(layer string, start, end time.Time) {
	t.log.add(layer, t.sessionID, t.round.Load(), start, end)
}

// tracedPolicy times every NextBatch call and forwards SpecBudgeter, so
// the engine sees the same draft budget as with the bare policy.
type tracedPolicy struct {
	inner search.Policy
	t     *layerTotals
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) NextBatch(ctx *search.Context, n int) []*schedule.Schedule {
	p.t.inNextBatch.Store(true)
	start := time.Now()
	out := p.inner.NextBatch(ctx, n)
	end := time.Now()
	p.t.inNextBatch.Store(false)
	p.t.nextBatchNS.Add(end.Sub(start).Nanoseconds())
	p.t.nextBatchCalls.Add(1)
	p.t.span("search.next_batch", start, end)
	return out
}

func (p tracedPolicy) SpecBudget() int {
	if sb, ok := p.inner.(search.SpecBudgeter); ok {
		return sb.SpecBudget()
	}
	return 0
}

// tracedModel times every Predict and Fit call and forwards the optional
// PoolUser, MemoUser and ObsUser hooks, so the wrapped model computes
// exactly what the bare one does.
type tracedModel struct {
	inner costmodel.Model
	t     *layerTotals
}

func (m tracedModel) Name() string           { return m.inner.Name() }
func (m tracedModel) Params() []*nn.Tensor   { return m.inner.Params() }
func (m tracedModel) Costs() costmodel.Costs { return m.inner.Costs() }

func (m tracedModel) Predict(task *ir.Task, schs []*schedule.Schedule) []float64 {
	start := time.Now()
	out := m.inner.Predict(task, schs)
	end := time.Now()
	d := end.Sub(start).Nanoseconds()
	m.t.predictNS.Add(d)
	if m.t.inNextBatch.Load() {
		m.t.predictInBatch.Add(d)
	}
	m.t.predictCands.Add(int64(len(schs)))
	m.t.span("costmodel.predict", start, end)
	return out
}

func (m tracedModel) Fit(recs []costmodel.Record, opt costmodel.FitOptions) costmodel.FitReport {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep := m.inner.Fit(recs, opt)
	end := time.Now()
	runtime.ReadMemStats(&after)
	m.t.fitNS.Add(end.Sub(start).Nanoseconds())
	m.t.fitRecords.Add(int64(len(recs)))
	m.t.fitAllocBytes.Add(after.TotalAlloc - before.TotalAlloc)
	m.t.span("costmodel.fit", start, end)
	return rep
}

func (m tracedModel) SetPool(p *parallel.Pool) {
	if pu, ok := m.inner.(costmodel.PoolUser); ok {
		pu.SetPool(p)
	}
}

func (m tracedModel) SetMemo(memo *schedule.Memo) {
	if mu, ok := m.inner.(costmodel.MemoUser); ok {
		mu.SetMemo(memo)
	}
}

func (m tracedModel) SetObserver(o *obs.Observer) {
	if ou, ok := m.inner.(costmodel.ObsUser); ok {
		ou.SetObserver(o)
	}
}

// tracedMeasurer times every Measure call. The engine runs it on a
// background goroutine, hence the atomics in layerTotals.
type tracedMeasurer struct {
	inner measure.Measurer
	t     *layerTotals
}

func (m tracedMeasurer) Info() measure.Info { return m.inner.Info() }

func (m tracedMeasurer) Measure(ctx context.Context, req measure.Request) ([]measure.Result, error) {
	start := time.Now()
	out, err := m.inner.Measure(ctx, req)
	end := time.Now()
	m.t.measureNS.Add(end.Sub(start).Nanoseconds())
	m.t.measureScheds.Add(int64(len(req.Batch)))
	if err != nil {
		m.t.measureErrors.Add(1)
	}
	m.t.span("measure.measure", start, end)
	return out, err
}
