// Command pruner-serve is the tuning daemon: a persistent HTTP service
// that tunes on demand, streams round-by-round progress over SSE, and
// persists every measurement so repeat requests for an already-tuned
// (device, network) are answered from the store without searching.
//
// Usage:
//
//	pruner-serve -addr :8149 -store pruner-store -parallelism 8 -workers 2
//
// Then (see API.md for the full reference):
//
//	curl -s localhost:8149/v1/jobs -d '{"device":"a100","network":"resnet50","trials":200}'
//	curl -N localhost:8149/v1/jobs/j-000001/events
//	curl -s 'localhost:8149/v1/best?device=a100&network=resnet50'
//
// Remote measurement workers (pruner-measure -serve http://localhost:8149)
// register at /v1/measurers; jobs with "measurer":"auto" (the default)
// have their batches measured by the fleet whenever a live worker
// exists, with results byte-identical to in-process measurement.
//
// Observability: GET /metrics serves the daemon's registry in the
// Prometheus text format, GET /v1/trace dumps recent pipeline spans,
// -pprof mounts net/http/pprof under /debug/pprof/, and -log-format
// json switches the structured log stream to JSON.
//
// SIGINT/SIGTERM shut down gracefully: in-flight jobs stop at the next
// round boundary, their partial measurements are persisted, and the
// process exits once the workers drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pruner"
	"pruner/internal/server"
	"pruner/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8149", "listen address")
		storeDir  = flag.String("store", "pruner-store", "record store directory")
		par       = flag.Int("parallelism", 0, "total tuning worker budget shared by all jobs (0 = all CPUs)")
		workers   = flag.Int("workers", 2, "jobs tuned concurrently (all drawing on -parallelism)")
		queue     = flag.Int("queue", 16, "queued-job backlog bound; a full queue rejects with 503")
		trials    = flag.Int("trials", 200, "default measurement budget for jobs that set none")
		maxTrials = flag.Int("max-trials", 0, "reject jobs requesting more trials (0 = 10x -trials)")
		fsync     = flag.Bool("fsync", false, "fsync the store after every append")
		segBytes  = flag.Int64("max-segment-bytes", 0, "store segment rotation threshold (0 = 4MiB)")
		modelIn   = flag.String("model-in", "", "pretrained cost-model weights (pruner-tune -model-out); enables the matching pretrained-weight methods")
		measTTL   = flag.Duration("measurer-ttl", 0, "expire fleet workers whose last heartbeat is older than this (0 = 2m, negative = never)")
		traceCap  = flag.Int("trace-cap", 0, "span ring-buffer capacity served at /v1/trace (0 = 4096)")
		logFormat = flag.String("log-format", "text", "log output format: text|json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug|info|warn|error (debug logs every committed round)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU/heap/goroutine profiles)")
	)
	flag.Parse()
	logger := newLogger(*logFormat, *logLevel)

	// The observer is the daemon's one wall-clock boundary: jobs, the
	// store and the fleet all report into its registry, and /metrics,
	// /v1/trace and /v1/healthz read it back.
	ob := pruner.NewObserver(*traceCap)

	var pretrained *pruner.Pretrained
	if *modelIn != "" {
		f, err := os.Open(*modelIn)
		fatalIf(err)
		pretrained, err = pruner.LoadModel(f)
		f.Close()
		fatalIf(err)
		logger.Info("loaded pretrained weights", "kind", pretrained.Kind, "path", *modelIn)
	}

	st, err := store.Open(*storeDir, store.Options{Sync: *fsync, MaxSegmentBytes: *segBytes, Metrics: ob.Reg()})
	fatalIf(err)
	stats := st.Stats()
	logger.Info("store opened", "dir", *storeDir, "records", stats.Records,
		"devices", stats.Devices, "dropped_tail_lines", stats.Dropped)

	srv, err := server.New(context.Background(), server.Config{
		Store:         st,
		Pool:          pruner.NewPool(*par),
		Workers:       *workers,
		QueueDepth:    *queue,
		DefaultTrials: *trials,
		MaxTrials:     *maxTrials,
		Pretrained:    pretrained,
		MeasurerTTL:   *measTTL,
		Obs:           ob,
		Log:           logger,
	})
	fatalIf(err)

	handler := srv.Handler()
	if *pprofOn {
		handler = withPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	// The header timeout bounds how long a client may dribble request
	// headers before the connection is dropped (slowloris); body sizes are
	// bounded per handler. The idle timeout reaps abandoned keep-alive
	// connections; it outlasts Go clients' default 90 s idle-connection
	// timeout, so the client always closes first and never reuses a
	// connection the server is tearing down.
	httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second}
	errCh := make(chan error, 1)
	//pruner:allow rawgo — the HTTP serve loop blocks until shutdown; main stays on the signal select
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("shutting down")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatalIf(err)
		}
	}

	// Cancel tuning sessions first (they stop at the next round and
	// persist what they measured; SSE streams end when the daemon context
	// dies), then drain HTTP connections and close the store.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("workers did not drain", "error", err)
	}
	httpSrv.Shutdown(shutdownCtx)
	fatalIf(st.Close())
	logger.Info("bye")
}

// newLogger builds the daemon's slog logger on stderr. Unknown formats
// and levels fall back to text/info rather than refusing to start.
func newLogger(format, level string) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

// withPprof mounts the net/http/pprof handlers next to the API (the
// package's DefaultServeMux side effects are not served; the routes are
// opt-in via -pprof only).
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pruner-serve:", err)
		os.Exit(1)
	}
}
