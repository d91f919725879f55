package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metric is one reported number. Note gives its base (for ratios), the
// sample count (for medians and percentiles) or where it was read from.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// hostFacts are recorded with every run so figures from different
// machines are never compared blind.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// StealFrac is the share of the host's CPU time during the run that
	// the hypervisor gave to other guests, from /proc/stat: a run on a
	// busy shared host reads slow, and this says so.
	StealFrac float64 `json:"steal_frac"`
}

func currentHost() hostFacts {
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// tally counts attempted and failed operations. An operation fails when
// it errors, is refused, or its output check fails.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// maxFailureNotes bounds how many failure messages a report keeps.
const maxFailureNotes = 20

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.Attempted++
	if err == nil {
		return
	}
	t.Failed++
	if len(t.Failures) < maxFailureNotes {
		t.Failures = append(t.Failures, err.Error())
	}
}

func (t *tally) failedFrac() float64 { return ratio(float64(t.Failed), float64(t.Attempted)) }

// report is everything one run measured.
type report struct {
	Workload string    `json:"workload"`
	Why      string    `json:"why"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Traced   bool      `json:"traced"`
	Host     hostFacts `json:"host"`
	Ops      tally     `json:"ops"`
	// EndToEnd is reported with tracing off, PerLayer by the traced run.
	// Extra holds figures printed and kept in the report file but not
	// carried by the result line: those that exist on some workloads
	// only (the store hit path, the fleet, the daemon queue), tail
	// percentiles, and the deterministic quality figures, which follow
	// the seed rather than the code's speed.
	EndToEnd []metric `json:"end_to_end,omitempty"`
	PerLayer []metric `json:"per_layer,omitempty"`
	Extra    []metric `json:"extra,omitempty"`
	// StoreDirect marks that the store.* figures come from direct calls
	// to the store package after the workload, not from in-workload
	// spans.
	StoreDirect []metric `json:"store_direct,omitempty"`
	// Samples keeps the raw timings behind the end-to-end medians, so
	// run-to-run noise can be inspected rather than averaged away.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// contract returns the metrics the final result line carries.
func (r *report) contract() []metric {
	if r.Traced {
		return append(append([]metric(nil), r.PerLayer...), r.StoreDirect...)
	}
	return r.EndToEnd
}

// write prints the human-readable report followed by the one-line JSON
// result, which is always the last line of standard output.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s %s/%s steal_frac=%.4f (base: host CPU time during the run)\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GOOS, r.Host.GOARCH, r.Host.StealFrac)
	fmt.Fprintf(w, "why: %s\n", r.Why)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d failed_frac=%g (base: attempted operations)\n",
		r.Ops.Attempted, r.Ops.Failed, r.Ops.failedFrac())
	for _, f := range r.Ops.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	section("end-to-end", r.EndToEnd)
	section("per-layer (traced run)", r.PerLayer)
	section("store (direct calls on the store package, not in-workload spans)", r.StoreDirect)
	section("reported, not in the result line", r.Extra)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.contract() {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Ops.Failed == 0, r.Ops.Attempted, r.Ops.Failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// save writes the report as JSON into dir, named after the run.
func (r *report) save(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", r.Workload, r.Seed, traceFlag(r.Traced))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// cpuTicks reads the host's stolen and total CPU time so far (in clock
// ticks) from the aggregate line of /proc/stat.
func cpuTicks() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("reading CPU times: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat field %q: %w", f, err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
