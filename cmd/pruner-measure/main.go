// Command pruner-measure is a measurement worker daemon: the remote half
// of the tuning fleet. It executes measurement batches POSTed by tuning
// sessions (pruner-serve jobs or pruner-tune -measurers) and, when told
// where the daemon lives, registers itself with pruner-serve and
// heartbeats so the daemon's jobs discover it automatically.
//
// Usage:
//
//	pruner-measure -listen :8151 -serve http://localhost:8149
//
// Endpoints:
//
//	POST /measure  execute one batch (record-codec wire format; see API.md)
//	GET  /healthz  liveness + batch counters
//	GET  /metrics  Prometheus text exposition of the worker's counters
//
// -pprof mounts net/http/pprof under /debug/pprof/ and -log-format json
// switches the log stream to JSON.
//
// Workers return true (noise-free) latencies; the session applies
// measurement noise from its own seeded stream, so fleet-measured
// sessions are bitwise identical to simulator-backed ones.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pruner"
)

// logger is the worker's structured log stream (configured in main).
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	var (
		listen    = flag.String("listen", ":8151", "listen address")
		serve     = flag.String("serve", "", "pruner-serve base URL to register with (e.g. http://localhost:8149); empty skips registration")
		advertise = flag.String("advertise", "", "base URL the daemon should dispatch to (default: http://<local-host>:<listen-port>)")
		par       = flag.Int("parallelism", 0, "measurement fan-out worker budget (0 = all CPUs)")
		heartbeat = flag.Duration("heartbeat", 15*time.Second, "re-registration interval; keep it under the daemon's -measurer-ttl")
		logFormat = flag.String("log-format", "text", "log output format: text|json")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (CPU/heap/goroutine profiles)")
	)
	flag.Parse()
	if *logFormat == "json" {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	// The worker's counters live on a wall-clock observer so GET /metrics
	// reports the same numbers /healthz does.
	ob := pruner.NewObserver(0)
	worker := pruner.NewObservedMeasureWorker(*par, ob)
	ln, err := net.Listen("tcp", *listen)
	fatalIf(err)
	handler := worker.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	// The header timeout bounds how long a client may dribble request
	// headers before the connection is dropped (slowloris); the /measure
	// body size is bounded by the worker itself. The idle timeout reaps
	// abandoned keep-alive connections; it outlasts the daemon's default
	// 90 s client idle-connection timeout, so the daemon always closes
	// first and never posts a batch on a connection being torn down.
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second}
	errCh := make(chan error, 1)
	//pruner:allow rawgo — the HTTP serve loop blocks until shutdown; main stays on the signal select
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String())

	self := *advertise
	if self == "" {
		self = "http://" + advertiseHost(ln.Addr().String())
	}
	self = strings.TrimSuffix(self, "/")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *serve != "" {
		base := strings.TrimSuffix(*serve, "/")
		register(base, self) // first registration failure is only a warning: the daemon may start later
		//pruner:allow rawgo — heartbeat loop re-registering with the daemon every interval for the process lifetime; canceled with the signal ctx
		go func() {
			t := time.NewTicker(*heartbeat)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					register(base, self)
				}
			}
		}()
		defer deregister(base, self)
	}

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
	case err := <-errCh:
		fatalIf(err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	st := worker.Status()
	logger.Info("bye", "batches", st.Batches, "schedules", st.Schedules)
}

// advertiseHost rewrites a wildcard listen address into something a local
// daemon can dial (multi-host fleets should pass -advertise explicitly).
func advertiseHost(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

func register(serveBase, self string) {
	body, _ := json.Marshal(map[string]string{"url": self})
	resp, err := http.Post(serveBase+"/v1/measurers", "application/json", bytes.NewReader(body))
	if err != nil {
		logger.Warn("registration failed", "daemon", serveBase, "measurer", self, "error", err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		logger.Warn("registration refused", "daemon", serveBase, "measurer", self, "status", resp.StatusCode)
	}
}

func deregister(serveBase, self string) {
	req, err := http.NewRequest(http.MethodDelete, serveBase+"/v1/measurers?url="+url.QueryEscape(self), nil)
	if err != nil {
		return
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pruner-measure:", err)
		os.Exit(1)
	}
}
