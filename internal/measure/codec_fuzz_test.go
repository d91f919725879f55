package measure

// Fuzz targets for the record codec — the JSONL format that is both the
// store's segment format and the fleet's wire format. Two properties
// carry the determinism contract across process boundaries: a finite
// latency must survive a write/read cycle bitwise (latency_bits), and a
// reader fed arbitrary or torn bytes must fail cleanly, never panic,
// and parse to a fixed point when it does succeed.
// `make fuzz-smoke` runs each target briefly; `go test` replays the
// seed corpus as ordinary tests.

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pruner/internal/costmodel"
	"pruner/internal/device"
	"pruner/internal/ir"
	"pruner/internal/schedule"
)

// fuzzBatch mirrors testBatch without *testing.T, for use in fuzz
// setup: one task and n valid schedules, deterministically generated.
func fuzzBatch(n int) (*ir.Task, []*schedule.Schedule) {
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

// FuzzCodecRoundTrip feeds arbitrary float64 bit patterns through
// WriteRecords/ReadRecords: every finite non-negative latency must come
// back bitwise identical (the latency_bits field's whole purpose), and
// everything else must collapse to the +Inf failed-build sentinel.
func FuzzCodecRoundTrip(f *testing.F) {
	task, schs := fuzzBatch(4)
	f.Add(uint64(0), uint8(0))
	f.Add(math.Float64bits(1.2345678901234567e-3), uint8(1))
	f.Add(math.Float64bits(math.Nextafter(1e-6, 2e-6)), uint8(2))
	f.Add(math.Float64bits(math.Inf(1)), uint8(3))
	f.Add(math.Float64bits(math.NaN()), uint8(0))
	f.Add(math.Float64bits(-1.5e-3), uint8(1))
	f.Add(math.Float64bits(math.SmallestNonzeroFloat64), uint8(2))
	f.Add(math.Float64bits(math.MaxFloat64), uint8(3))
	f.Add(math.Float64bits(math.Inf(-1)), uint8(0))
	f.Fuzz(func(t *testing.T, latBits uint64, pick uint8) {
		lat := math.Float64frombits(latBits)
		rec := costmodel.Record{Task: task, Sched: schs[int(pick)%len(schs)], Latency: lat}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, []costmodel.Record{rec}); err != nil {
			t.Fatalf("WriteRecords(%x): %v", latBits, err)
		}
		got, err := ReadRecords(bytes.NewReader(buf.Bytes()), []*ir.Task{task})
		if err != nil {
			t.Fatalf("ReadRecords(%x): %v", latBits, err)
		}
		if len(got) != 1 {
			t.Fatalf("round trip of one record returned %d", len(got))
		}
		if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
			if !math.IsInf(got[0].Latency, 1) {
				t.Fatalf("invalid latency %g decoded as %g, want +Inf sentinel", lat, got[0].Latency)
			}
			return
		}
		if math.Float64bits(got[0].Latency) != latBits {
			t.Fatalf("latency not bitwise preserved: %x -> %x", latBits, math.Float64bits(got[0].Latency))
		}
		if got[0].Sched.Fingerprint() != rec.Sched.Fingerprint() {
			t.Fatalf("schedule changed across round trip")
		}
	})
}

// FuzzReadRecords throws arbitrary bytes at the reader. It must never
// panic; blank lines are skipped; and when a parse succeeds, encoding
// what was read and reading it again must be a fixed point (same
// count, bitwise-same latencies, same schedules) — the property that
// lets fleet responses be re-logged verbatim.
func FuzzReadRecords(f *testing.F) {
	task, schs := fuzzBatch(3)
	var valid bytes.Buffer
	WriteRecords(&valid, []costmodel.Record{
		{Task: task, Sched: schs[0], Latency: 1.25e-3},
		{Task: task, Sched: schs[1], Latency: math.Inf(1)},
		{Task: task, Sched: schs[2], Latency: 4.0e-5},
	})
	lines := valid.String()
	f.Add(lines)
	f.Add("")
	f.Add("\n\n\n")
	f.Add("{}\n")
	f.Add(`{"task_id":"nope"}` + "\n")
	f.Add(lines[:len(lines)/2]) // torn mid-line: must error, not panic
	f.Add(strings.ReplaceAll(lines, "latency_bits", "latency_bitz"))
	f.Add(`{"task_id":"` + task.ID + `","latency_us":1.5,"latency_bits":"zzzz"}` + "\n")
	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadRecords(strings.NewReader(data), []*ir.Task{task})
		if err != nil {
			return // rejected cleanly
		}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, got); err != nil {
			t.Fatalf("re-encoding parsed records: %v", err)
		}
		again, err := ReadRecords(bytes.NewReader(buf.Bytes()), []*ir.Task{task})
		if err != nil {
			t.Fatalf("re-reading re-encoded records: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("parse -> encode -> parse changed count: %d -> %d", len(got), len(again))
		}
		for i := range got {
			if math.Float64bits(again[i].Latency) != math.Float64bits(got[i].Latency) {
				t.Fatalf("record %d: latency drifted across re-encode: %x -> %x",
					i, math.Float64bits(got[i].Latency), math.Float64bits(again[i].Latency))
			}
			if again[i].Sched.Fingerprint() != got[i].Sched.Fingerprint() {
				t.Fatalf("record %d: schedule drifted across re-encode", i)
			}
		}
	})
}
