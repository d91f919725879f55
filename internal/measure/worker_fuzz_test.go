package measure

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pruner/internal/ir"
	"pruner/internal/parallel"
)

// FuzzWorkerMeasureRequest feeds arbitrary bodies to the worker's
// POST /measure handler — the fleet's one decoder of untrusted batches
// (header line, then record lines). It must never panic; anything it
// refuses must get a 4xx; anything it accepts must fit the body bound and
// come back as one decodable record per schedule. `make fuzz-smoke` runs
// it briefly; `go test` replays the seed corpus as ordinary tests.
func FuzzWorkerMeasureRequest(f *testing.F) {
	h := NewWorker(WorkerOptions{Pool: parallel.New(1)}).Handler()

	task, schs := fuzzBatch(3)
	valid, err := encodeRequest(Request{Device: "t4", Task: task, Batch: schs})
	if err != nil {
		f.Fatal(err)
	}
	nl := bytes.IndexByte(valid, '\n') + 1
	header, line := valid[:nl], valid[nl:bytes.IndexByte(valid[nl:], '\n')+nl+1]
	f.Add(valid)
	f.Add(header)
	f.Add(valid[:len(valid)-7])                                                               // torn last record
	f.Add(append(bytes.Clone(header), bytes.ReplaceAll(line, []byte(`[`), []byte(`[0,`))...)) // tile count off
	f.Add([]byte(strings.Replace(string(valid), `"t4"`, `"h900"`, 1)))                        // unknown device
	for _, edit := range [][2]string{
		{`"Spatial":[256`, `"Spatial":[-256`},
		{`"Spatial":[256`, `"Spatial":[4611686018427387904`},
		{`"Precision":0`, `"Precision":9`},
		{`"Kind":0`, `"Kind":-1`},
		{`"ContigReduce":0`, `"ContigReduce":5`},
		{`"SpatialIdx":[0]`, `"SpatialIdx":[2]`},
	} {
		f.Add([]byte(strings.Replace(string(valid), edit[0], edit[1], 1)))
	}
	f.Add([]byte(`{"device":"t4","task":null}` + "\n"))
	f.Add([]byte("{nope\n"))
	f.Add([]byte(""))
	f.Add(append(bytes.Clone(header), bytes.Repeat(line, maxMeasureBody/len(line)+1)...)) // oversized
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/measure", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("refused batch answered %d, want 4xx (response %q)", rec.Code, rec.Body.String())
			}
			return
		}
		if len(body) > maxMeasureBody {
			t.Fatalf("accepted a %d-byte body over the %d-byte bound", len(body), maxMeasureBody)
		}
		nl := bytes.IndexByte(body, '\n')
		var hdr wireHeader
		if nl < 0 || json.Unmarshal(body[:nl], &hdr) != nil || hdr.Task == nil {
			t.Fatalf("accepted a batch without a decodable header line: %q", body)
		}
		tasks := []*ir.Task{hdr.Task}
		sent, err := ReadRecords(bytes.NewReader(body[nl+1:]), tasks)
		if err != nil {
			t.Fatalf("accepted a batch whose records do not decode: %v", err)
		}
		got, err := ReadRecords(rec.Body, tasks)
		if err != nil {
			t.Fatalf("accepted batch answered undecodable records: %v", err)
		}
		if len(got) != len(sent) || len(got) == 0 {
			t.Fatalf("accepted %d schedules, answered %d records", len(sent), len(got))
		}
	})
}
