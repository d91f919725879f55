package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pruner"
	"pruner/internal/store"
)

// FuzzJobSpecDecode feeds arbitrary bytes to the POST /v1/jobs decode and
// resolve path — the daemon's one decoder of untrusted job specs. It must
// never panic; input it rejects must get a 4xx; input it accepts must
// come back normalised within the daemon's caps. `make fuzz-smoke` runs
// it briefly; `go test` replays the seed corpus as ordinary tests.
func FuzzJobSpecDecode(f *testing.F) {
	st, err := store.Open(f.TempDir(), store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	srv, err := New(context.Background(), Config{Store: st, Pool: pruner.NewPool(1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(context.Background()) })

	f.Add([]byte(`{"device":"a100","network":"dcgan","trials":20,"batch_size":10,"max_tasks":2}`))
	f.Add([]byte(`{"device":"a100","network":"dcgan","method":"moa-pruner"}`))
	f.Add([]byte(`{"device":"t4","network":"bert_tiny","measurer":"fleet","pipeline_depth":4,"adapt_budget":true}`))
	f.Add([]byte(`{"device":"a100","network":"dcgan","trials":-3,"batch_size":-1}`))
	f.Add([]byte(`{"device":"a100","network":"dcgan","trials":1e400}`))
	f.Add([]byte(`{"device":"h100"}`))
	f.Add([]byte(`{"device":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"network":"` + strings.Repeat("x", maxRequestBody) + `"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		spec, tasks, ok := srv.decodeSpec(rec, req)
		if !ok {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("rejected spec answered %d, want 4xx (body %q)", rec.Code, rec.Body.String())
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted spec wrote a response: %q", rec.Body.String())
		}
		cfg := srv.cfg
		if spec.Trials <= 0 || spec.Trials > cfg.MaxTrials {
			t.Fatalf("accepted trials %d outside (0, %d]", spec.Trials, cfg.MaxTrials)
		}
		if spec.BatchSize < 0 || spec.BatchSize > spec.Trials {
			t.Fatalf("accepted batch_size %d outside [0, %d]", spec.BatchSize, spec.Trials)
		}
		if spec.PipelineDepth < 0 || spec.PipelineDepth > cfg.MaxPipelineDepth {
			t.Fatalf("accepted pipeline_depth %d outside [0, %d]", spec.PipelineDepth, cfg.MaxPipelineDepth)
		}
		if spec.Method == "" || len(tasks) == 0 {
			t.Fatalf("accepted spec not normalised: method %q, %d tasks", spec.Method, len(tasks))
		}
	})
}
