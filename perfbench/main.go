// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload per invocation and prints a report
// whose last line is a JSON result:
//
//	perfbench --workload pruner-online --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 the run alternates bare and traced
// operations and the result carries the per-layer metrics: the traced
// sessions wrap the engine's search.Policy, costmodel.Model and
// measure.Measurer interfaces and time every call from outside the
// program; the daemon workload reads the daemon's and the worker's
// /metrics. See README.md for every metric and each workload's reason.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark input set with the reason it was chosen.
type workload struct {
	why string
	run func(cfg runConfig, rep *report) error
}

var workloadTable = map[string]workload{
	"pruner-online": {
		why: "LSE draft then online PaCM verify on resnet50 (top-4 tasks, a100, 200 trials): exercises the draft stage, verify and the online fit",
		run: func(cfg runConfig, rep *report) error { return runSessions(prunerOnline, cfg, rep) },
	},
	"ansor-online": {
		why: "evolutionary search verifying every explored candidate with an online TenSetMLP on the same network and budget: bypasses LSE and the analyzer, so verify inference dominates",
		run: func(cfg runConfig, rep *report) error { return runSessions(ansorOnline, cfg, rep) },
	},
	"serve-mixed": {
		why: "in-process daemon plus one loopback measurement worker and one closed-loop client: fresh, warm-started and store-answered jobs on 4 small networks; the only workload where the server, the store and the fleet wire carry the work",
		run: func(cfg runConfig, rep *report) error { return runServe(serveMixed, cfg, rep) },
	},
}

var (
	prunerOnline = sessionSpec{Method: "pruner", Network: "resnet50", Device: "a100", MaxTasks: 4, Trials: 200}
	ansorOnline  = sessionSpec{Method: "ansor", Network: "resnet50", Device: "a100", MaxTasks: 4, Trials: 200}
	serveMixed   = serveSpec{
		Device:      "a100",
		Networks:    []string{"dcgan", "bert_tiny", "mobilenet_v2", "resnet3d18"},
		MaxTasks:    2,
		FreshTrials: 30,
		WarmTrials:  60,
		Hits:        2000,
	}
)

// outDir, relative to the checkout root the benchmark runs from, holds
// the run reports, span dumps and scratch stores (and run.py's build).
var outDir = filepath.Join(".bench_build", "perfbench")

// runConfig is what every workload receives.
type runConfig struct {
	Seed        int64
	Seconds     float64
	Traced      bool
	Parallelism int
	// Dir holds the run's report and span dump; Scratch its stores,
	// removed when the run ends.
	Dir, Scratch string
}

// path names an output file of the run.
func (c runConfig) path(rep *report, kind string) string {
	return filepath.Join(c.Dir, fmt.Sprintf("%s-%s-seed%d-trace%d.json", kind, rep.Workload, rep.Seed, traceFlag(c.Traced)))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloadTable))
	for n := range workloadTable {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 40, "measuring time; whole sessions or cycles start only while they fit")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from a bare run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadTable[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := runConfig{
		Seed:        *seed,
		Seconds:     *seconds,
		Traced:      *trace == 1,
		Parallelism: runtime.NumCPU(),
		Dir:         outDir,
		Scratch:     filepath.Join(outDir, fmt.Sprintf("scratch-%d", os.Getpid())),
	}
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.Scratch)
	rep := &report{Workload: *name, Why: w.why, Seed: *seed, Seconds: *seconds, Traced: cfg.Traced, Host: currentHost()}
	steal0, total0, err := cpuTicks()
	if err == nil {
		err = w.run(cfg, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	steal1, total1, err := cpuTicks()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.Host.StealFrac = ratio(steal1-steal0, total1-total0)
	if err := rep.save(cfg.Dir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func traceFlag(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

// timeBox runs whole operations within a time budget: the first always
// starts, a later one only while the time left covers the longest seen so
// far, so a run never stops mid-operation and seldom overruns.
type timeBox struct {
	start, iterStart time.Time
	budget, longest  time.Duration
}

func newTimeBox(seconds float64) *timeBox {
	return &timeBox{start: time.Now(), budget: time.Duration(seconds * float64(time.Second))}
}

func (b *timeBox) next() bool {
	now := time.Now()
	if !b.iterStart.IsZero() && now.Sub(b.start)+b.longest > b.budget {
		return false
	}
	b.iterStart = now
	return true
}

func (b *timeBox) done() {
	if d := time.Since(b.iterStart); d > b.longest {
		b.longest = d
	}
}
