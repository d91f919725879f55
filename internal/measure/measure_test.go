package measure

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
	"pruner/internal/simulator"
)

func testBatch(t *testing.T, n int) (*ir.Task, []*schedule.Schedule) {
	t.Helper()
	task := ir.NewMatMul(256, 256, 128, ir.FP32, 1)
	gen := schedule.NewGenerator(task)
	gen.MaxThreads = device.T4.MaxThreads
	gen.MaxSharedWords = device.T4.SharedPerBlock
	rng := rand.New(rand.NewSource(11))
	schs := make([]*schedule.Schedule, n)
	for i := range schs {
		schs[i] = gen.Random(rng)
	}
	return task, schs
}

// TestCodecExactRoundTrip pins the wire/store format's fidelity: finite
// latencies survive a write/read cycle bitwise (via latency_bits), and
// every non-finite or negative latency maps to the +Inf failed-build
// sentinel.
func TestCodecExactRoundTrip(t *testing.T) {
	task, schs := testBatch(t, 6)
	lats := []float64{
		1.2345678901234567e-3, // full float64 precision
		math.Nextafter(1e-6, 2e-6),
		7.777777777777777e-2,
		math.Inf(1), // failed build
		math.NaN(),  // poisoned measurement -> sentinel
		-1.5e-3,     // negative -> sentinel
	}
	recs := make([]costmodel.Record, len(lats))
	for i, lat := range lats {
		recs[i] = costmodel.Record{Task: task, Sched: schs[i], Latency: lat}
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf, []*ir.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d -> %d", len(recs), len(got))
	}
	for i, r := range got {
		want := lats[i]
		if math.IsNaN(want) || math.IsInf(want, 0) || want < 0 {
			if !math.IsInf(r.Latency, 1) {
				t.Fatalf("record %d: invalid latency %g decoded as %g, want +Inf", i, want, r.Latency)
			}
			continue
		}
		if math.Float64bits(r.Latency) != math.Float64bits(want) {
			t.Fatalf("record %d: latency not bitwise preserved: %x -> %x",
				i, math.Float64bits(want), math.Float64bits(r.Latency))
		}
		if r.Sched.Fingerprint() != schs[i].Fingerprint() {
			t.Fatalf("record %d: schedule changed across round trip", i)
		}
	}
}

// TestCodecLegacyLinesStillRead pins backward compatibility: record lines
// written before latency_bits existed (only latency_us) still decode.
func TestCodecLegacyLinesStillRead(t *testing.T) {
	task, schs := testBatch(t, 1)
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []costmodel.Record{{Task: task, Sched: schs[0], Latency: 2.5e-3}}); err != nil {
		t.Fatal(err)
	}
	legacy := bytes.ReplaceAll(buf.Bytes(), []byte(`,"latency_bits":"`), []byte(`,"ignored":"`))
	got, err := ReadRecords(bytes.NewReader(legacy), []*ir.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Latency != 2.5e-3 {
		t.Fatalf("legacy line decoded as %+v", got)
	}
}

// TestReadRecordsSkipsUnknownTasks pins task resolution on read: a log
// spanning several tasks reads back in order against the full task set,
// and records of tasks outside the set are skipped (a log may cover more
// networks than the current session).
func TestReadRecordsSkipsUnknownTasks(t *testing.T) {
	mm, schs := testBatch(t, 2)
	conv := ir.NewConv2D(ir.Conv2DShape{
		N: 1, H: 28, W: 28, CI: 64, CO: 64, KH: 3, KW: 3, Stride: 1, Pad: 1,
	}, ir.FP32, 0)
	recs := []costmodel.Record{
		{Task: mm, Sched: schs[0], Latency: 1e-4},
		{Task: conv, Sched: schedule.NewGenerator(conv).Random(rand.New(rand.NewSource(1))), Latency: 2e-4},
		{Task: mm, Sched: schs[1], Latency: math.Inf(1)},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	all, err := ReadRecords(bytes.NewReader(buf.Bytes()), []*ir.Task{mm, conv})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(recs) {
		t.Fatalf("read %d records against every task, want %d", len(all), len(recs))
	}
	for i, r := range all {
		if r.Task != recs[i].Task || r.Sched.Fingerprint() != recs[i].Sched.Fingerprint() {
			t.Fatalf("record %d: task or schedule changed across round trip", i)
		}
	}
	got, err := ReadRecords(bytes.NewReader(buf.Bytes()), []*ir.Task{mm})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Task != mm {
			t.Fatal("unknown task leaked through")
		}
	}
	if len(got) != 2 {
		t.Fatalf("expected 2 matmul records, got %d", len(got))
	}
}

// TestReadRecordsRejectsCorruptLines pins that a log with a malformed
// line, or a schedule that does not fit its task, fails to read instead
// of yielding a partial or wrong record set.
func TestReadRecordsRejectsCorruptLines(t *testing.T) {
	task := ir.NewMatMul(128, 128, 128, ir.FP32, 1)
	tasks := []*ir.Task{task}
	if _, err := ReadRecords(strings.NewReader("{not json"), tasks); err == nil {
		t.Fatal("corrupt line should error")
	}
	// A structurally valid line with tiles that don't match the task.
	bad := `{"task_id":"` + task.ID + `","spatial_tiles":[[1,1,1,1,1]],"reduce_tiles":[[128,1,1]],"vector_len":1}`
	if _, err := ReadRecords(strings.NewReader(bad), tasks); err == nil {
		t.Fatal("schedule/task mismatch should error")
	}
}

// TestWorkerFleetMatchesSimulator is the wire-fidelity contract: a batch
// measured through a loopback worker (HTTP round trip included) returns
// exactly the simulator's deterministic true latencies, bit for bit.
func TestWorkerFleetMatchesSimulator(t *testing.T) {
	task, schs := testBatch(t, 24)
	worker := NewWorker(WorkerOptions{})
	ws := httptest.NewServer(worker.Handler())
	defer ws.Close()

	fleet := NewFleet([]string{ws.URL}, FleetOptions{})
	if info := fleet.Info(); info.Name != "fleet" || !info.Remote || info.Concurrency != 1 {
		t.Fatalf("fleet info: %+v", info)
	}
	results, err := fleet.Measure(context.Background(), Request{
		Device: device.T4.Name, Task: task, Batch: schs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(schs) {
		t.Fatalf("got %d results for %d schedules", len(results), len(schs))
	}
	sim := simulator.New(device.T4)
	valid := 0
	for i, r := range results {
		lat, lerr := sim.Latency(task, schs[i])
		if lerr != nil {
			if r.Valid {
				t.Fatalf("schedule %d: local build fails (%v) but worker measured %g", i, lerr, r.Latency)
			}
			continue
		}
		valid++
		if !r.Valid {
			t.Fatalf("schedule %d: local build ok but worker reported failure: %v", i, r.Err)
		}
		if math.Float64bits(r.Latency) != math.Float64bits(lat) {
			t.Fatalf("schedule %d: fleet latency %x != simulator %x",
				i, math.Float64bits(r.Latency), math.Float64bits(lat))
		}
	}
	if valid == 0 {
		t.Fatal("no valid schedules in the batch; test is vacuous")
	}
	if st := worker.Status(); st.Batches != 1 || st.Schedules != int64(len(schs)) {
		t.Fatalf("worker status %+v", st)
	}
	stats := fleet.Stats()
	if len(stats) != 1 || stats[0].Batches != 1 || stats[0].Schedules != len(schs) || stats[0].Failures != 0 {
		t.Fatalf("fleet stats %+v", stats)
	}
}

// TestFleetFailover pins the retry path: a dead worker is skipped, the
// batch lands on the live one, and the failure is accounted.
func TestFleetFailover(t *testing.T) {
	task, schs := testBatch(t, 8)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"worker on fire"}`, http.StatusInternalServerError)
	}))
	defer dead.Close()
	live := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
	defer live.Close()

	fleet := NewFleet([]string{dead.URL, live.URL}, FleetOptions{})
	for i := 0; i < 2; i++ { // rotation must find the live worker from any start
		if _, err := fleet.Measure(context.Background(), Request{Device: "t4", Task: task, Batch: schs}); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	var deadFailures, liveBatches int
	for _, st := range fleet.Stats() {
		switch st.URL {
		case dead.URL:
			deadFailures = st.Failures
		case live.URL:
			liveBatches = st.Batches
		}
	}
	if liveBatches != 2 {
		t.Fatalf("live worker served %d batches, want 2", liveBatches)
	}
	if deadFailures == 0 {
		t.Fatal("dead worker's failures were not accounted")
	}
}

// TestFleetAllWorkersFail pins the terminal error: when every worker
// refuses the batch the fleet reports it instead of fabricating results.
func TestFleetAllWorkersFail(t *testing.T) {
	task, schs := testBatch(t, 4)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	fleet := NewFleet([]string{dead.URL}, FleetOptions{})
	if _, err := fleet.Measure(context.Background(), Request{Device: "t4", Task: task, Batch: schs}); err == nil {
		t.Fatal("expected an error when all workers fail")
	}
}

// TestSimAdapterCancellation pins mid-batch cancellation: a cancelled
// context aborts the adapter instead of measuring the whole batch.
func TestSimAdapterCancellation(t *testing.T) {
	task, schs := testBatch(t, 64)
	m := NewSim(simulator.New(device.T4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Measure(ctx, Request{Task: task, Batch: schs}); err != context.Canceled {
		t.Fatalf("cancelled adapter returned %v, want context.Canceled", err)
	}
	if m.Batches() != 0 {
		t.Fatal("cancelled batch was counted as executed")
	}
}

// TestSimAdapterMatchesMeasureMemoPool pins the adapter against the
// historical simulator entry point: true latencies identical, and after
// session-side ApplyNoise the full results match MeasureMemoPool bitwise
// (same noise stream, same draw order).
func TestSimAdapterMatchesMeasureMemoPool(t *testing.T) {
	task, schs := testBatch(t, 16)
	sim := simulator.New(device.T4)
	m := NewSim(sim)
	results, err := m.Measure(context.Background(), Request{Task: task, Batch: schs})
	if err != nil {
		t.Fatal(err)
	}
	ApplyNoise(results, rand.New(rand.NewSource(3)), m.Info().MeasureNoise)
	want := sim.MeasureMemoPool(task, schs, rand.New(rand.NewSource(3)), nil, nil)
	for i := range want {
		if results[i].Valid != want[i].Valid ||
			math.Float64bits(results[i].Latency) != math.Float64bits(want[i].Latency) {
			t.Fatalf("result %d diverges from MeasureMemoPool: %+v vs %+v", i, results[i], want[i])
		}
	}
}

// TestWorkerRejectsGarbage pins the worker's input validation.
// TestWorkerRejectsOversizedBody pins the /measure body bound: a batch
// or a header line larger than maxMeasureBody is refused with 413 and a
// stated reason, and the worker goes on serving normal batches.
func TestWorkerRejectsOversizedBody(t *testing.T) {
	ws := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
	defer ws.Close()
	task, schs := testBatch(t, 1)
	small, err := encodeRequest(Request{Device: "t4", Task: task, Batch: schs})
	if err != nil {
		t.Fatal(err)
	}
	line := small[bytes.IndexByte(small, '\n')+1:]
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ws.URL+"/measure", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	want := fmt.Sprintf("request body exceeds %d bytes", maxMeasureBody)
	for name, body := range map[string][]byte{
		"long batch":  append(bytes.Clone(small), bytes.Repeat(line, maxMeasureBody/len(line))...),
		"long header": append([]byte(`{"device":"`), bytes.Repeat([]byte("x"), maxMeasureBody)...),
	} {
		if code, msg := post(body); code != http.StatusRequestEntityTooLarge || msg != want {
			t.Errorf("%s: status %d %q, want 413 %q", name, code, msg, want)
		}
	}
	if code, msg := post(small); code != http.StatusOK {
		t.Fatalf("normal batch after oversized ones: status %d %q", code, msg)
	}
}

func TestWorkerRejectsGarbage(t *testing.T) {
	ws := httptest.NewServer(NewWorker(WorkerOptions{}).Handler())
	defer ws.Close()
	for name, body := range map[string]string{
		"no header":      "",
		"bad json":       "{nope\n",
		"no task":        `{"device":"t4"}` + "\n",
		"unknown device": `{"device":"h900","task":null}` + "\n",
	} {
		resp, err := http.Post(ws.URL+"/measure", "application/x-ndjson", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}
