package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pruner/internal/measure"
	"pruner/internal/server"
)

// The wrappers must leave a session bitwise unchanged. The budgets are
// cut to 40 trials (one round per task) so the test stays quick; method,
// network, device and task count are the workloads' own.
func TestWrappedSessionsMatchBare(t *testing.T) {
	for name, sp := range map[string]sessionSpec{"pruner-online": prunerOnline, "ansor-online": ansorOnline} {
		t.Run(name, func(t *testing.T) {
			sp.Trials = 40
			in, err := sp.build(7, 2)
			if err != nil {
				t.Fatal(err)
			}
			bare := tune(in, nil)
			in, err = sp.build(7, 2)
			if err != nil {
				t.Fatal(err)
			}
			lt := &layerTotals{log: newSpanLog()}
			traced := tune(in, lt)
			if err := checkSession(traced.res, in.tasks, sp.Trials); err != nil {
				t.Fatal(err)
			}
			if bare.fp != traced.fp {
				t.Fatalf("traced fingerprint %s, bare %s", traced.fp, bare.fp)
			}
			if lt.nextBatchCalls.Load() != 4 || lt.predictCands.Load() == 0 || lt.measureScheds.Load() != 40 {
				t.Fatalf("wrappers saw %d NextBatch calls, %d predictions, %d measured schedules",
					lt.nextBatchCalls.Load(), lt.predictCands.Load(), lt.measureScheds.Load())
			}
		})
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// brokenMeasurer refuses every batch, as a fleet whose workers are all
// down does.
type brokenMeasurer struct{}

func (brokenMeasurer) Info() measure.Info { return measure.Info{Name: "broken"} }
func (brokenMeasurer) Measure(context.Context, measure.Request) ([]measure.Result, error) {
	return nil, errors.New("every worker refused the batch")
}

func TestFailedOperationsLandInFailedFrac(t *testing.T) {
	var ops tally

	// A session whose measurements fail stops early; its output check
	// fails.
	sp := prunerOnline
	sp.Trials = 20
	in, err := sp.build(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.opt.Measurer = brokenMeasurer{}
	ops.record(checkSession(tune(in, nil).res, in.tasks, sp.Trials))

	// A daemon that refuses submissions (a full queue answers 503).
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "job queue is full (depth 16)"})
	}))
	defer refuse.Close()
	d := &daemon{base: refuse.URL, client: refuse.Client()}
	_, err = d.runTuned(server.JobSpec{Device: "a100", Network: "dcgan", Trials: 30})
	ops.record(err)
	_, err = d.hit([]byte(`{"device":"a100","network":"dcgan"}`), nil, 1)
	ops.record(err)

	// One operation that succeeded.
	ops.record(nil)

	if ops.Attempted != 4 || ops.Failed != 3 || ops.failedFrac() != 0.75 {
		t.Fatalf("attempted %d failed %d frac %v; want 4, 3, 0.75 (failures: %q)",
			ops.Attempted, ops.Failed, ops.failedFrac(), ops.Failures)
	}
	rep := &report{Workload: "pruner-online", Ops: ops, EndToEnd: []metric{{"session_s", 1, "s", ""}}}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 4 || res.Failed != 3 || len(res.Metrics) != 1 {
		t.Fatalf("result line %+v", res)
	}
}

func TestScrapeSumsAndQuantiles(t *testing.T) {
	page := `# HELP h Latency.
# TYPE h histogram
h_bucket{worker="http://127.0.0.1:1",le="0.1"} 2
h_bucket{worker="http://127.0.0.1:1",le="1"} 4
h_bucket{worker="http://127.0.0.1:1",le="+Inf"} 4
h_sum{worker="http://127.0.0.1:1"} 1.5
h_count{worker="http://127.0.0.1:1"} 4
h_bucket{worker="http://127.0.0.1:2",le="0.1"} 0
h_bucket{worker="http://127.0.0.1:2",le="1"} 4
h_bucket{worker="http://127.0.0.1:2",le="+Inf"} 4
h_sum{worker="http://127.0.0.1:2"} 2
h_count{worker="http://127.0.0.1:2"} 4
c{result="hit"} 9
c{result="miss"} 1
`
	sc, err := parseScrape(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.sum("h_sum", nil); got != 3.5 {
		t.Errorf("h_sum = %v, want 3.5", got)
	}
	if got := sc.sum("c", map[string]string{"result": "hit"}); got != 9 {
		t.Errorf("c{hit} = %v, want 9", got)
	}
	// 8 observations, 2 at or below 0.1: the median (rank 4) lies a third
	// of the way into the (0.1, 1] bucket.
	q, n := sc.quantile("h", 0.5, nil)
	if n != 8 || q < 0.39 || q > 0.41 {
		t.Errorf("p50 = %v over %v observations, want 0.4 over 8", q, n)
	}
}

func TestRejectsUnknownWorkloadWithoutResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
