// Command eventorderd is the resident analysis server: an HTTP/JSON
// service over the exact event-ordering engine, with a bounded worker
// pool, a content-addressed result cache, per-request deadlines, and
// graceful shutdown.
//
// Usage:
//
//	eventorderd [-addr :8080] [-workers N] [-queue N] [-cache-bytes N]
//	            [-timeout 30s] [-max-timeout 5m] [-budget N]
//	            [-shed-depth N] [-shed-timeout 200ms] [-partial-grace 2s]
//	            [-state-dir /var/lib/eventorderd] [-drain-checkpoint 1s]
//	            [-pprof-addr 127.0.0.1:6060]
//	eventorderd -selfcheck
//
// Endpoints:
//
//	POST /v1/analyze   relation queries: single pair or full matrices
//	POST /v1/races     exact + vector-clock + program-order race detection
//	POST /v1/witness   demonstrating schedule for a relation verdict
//	GET  /v1/jobs/{id} poll an async submission
//	GET  /healthz      liveness and queue depth
//	GET  /metrics      JSON metrics registry
//
// -pprof-addr serves net/http/pprof profiles (CPU, heap, goroutine, ...)
// on a SEPARATE listener, off by default: profiling endpoints expose
// internals and eat CPU, so they never share the public service address.
//
// Admission control: a matrix request the tiered planner fully decides is
// answered on its own goroutine, since it needs no search, so it never
// queues behind NP-hard work and never answers 429. Everything else goes
// to the -workers pool through a -queue deep queue. When the queue
// reaches -shed-depth, anytime requests get their deadline clamped to
// -shed-timeout and answer quickly with a partial result and a resumable
// checkpoint instead of deepening the backlog. A full queue answers 429
// with Retry-After.
//
// Durability: -state-dir makes acknowledged async work survive crashes.
// Every async 202 is preceded by a fsynced write-ahead journal record, job
// results and drain checkpoints are persisted to a content-addressed blob
// store under the same directory, and on restart the journal is replayed:
// finished jobs come back pollable with their original results, and jobs
// that were running when the process died are re-enqueued (from their
// latest checkpoint when one was persisted). On SIGTERM, in-flight anytime
// jobs get -drain-checkpoint to reach a checkpoint that the next boot
// resumes from. Without -state-dir the server is purely in-memory, as
// before.
//
// -selfcheck starts the server on a loopback port, exercises the analyze,
// cache, deadline, tracing, admission, metrics, and durability paths
// end-to-end — including a short burst of the soak harness and an async
// job surviving a shutdown/boot cycle — and exits 0 on success (used by
// CI as a smoke test).
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

	"eventorder/internal/service"
)

// pprofMux builds an explicit profiling mux (the service's own handler
// never touches http.DefaultServeMux, so the pprof side-effect
// registrations there are not exposed by accident — profiles are only
// served on the dedicated listener).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "analysis workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "job queue depth (submissions beyond it get 429)")
	cacheBytes := flag.Int64("cache-bytes", 32<<20, "result cache budget in bytes")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
	budget := flag.Int64("budget", 0, "default search node budget per query (0 = unlimited)")
	maxBudget := flag.Int64("max-budget", 0, "cap on client-requested node budgets (0 = uncapped)")
	shedDepth := flag.Int("shed-depth", 0, "queue occupancy that triggers load shedding (0 = 3/4 of -queue)")
	shedTimeout := flag.Duration("shed-timeout", 0, "deadline clamp applied to anytime requests while shedding (0 = 200ms)")
	partialGrace := flag.Duration("partial-grace", 0, "grace past a request's deadline to surface an anytime partial instead of 504 (0 = 2s)")
	stateDir := flag.String("state-dir", "", "directory for the write-ahead job journal and blob store (empty = no durability; in-memory only)")
	drainCheckpoint := flag.Duration("drain-checkpoint", 0, "shutdown grace for in-flight anytime jobs to persist a resumable checkpoint (0 = 1s; needs -state-dir)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	selfcheck := flag.Bool("selfcheck", false, "run an end-to-end smoke test against a loopback instance and exit")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheBytes:      *cacheBytes,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxNodes:        *budget,
		MaxBudget:       *maxBudget,
		ShedDepth:       *shedDepth,
		ShedTimeout:     *shedTimeout,
		PartialGrace:    *partialGrace,
		StateDir:        *stateDir,
		DrainCheckpoint: *drainCheckpoint,
		Logger:          logger,
	}

	if *selfcheck {
		if err := runSelfcheck(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "eventorderd: selfcheck FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("eventorderd: selfcheck ok")
		return
	}

	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux()); err != nil {
				logger.Error("pprof serve failed", "err", err)
			}
		}()
	}

	srv, err := service.New(cfg)
	if err != nil {
		logger.Error("boot failed", "err", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Drain the analysis workers first (in-flight jobs finish, new
		// submissions get 503), then close HTTP connections.
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("worker drain timed out; jobs force-canceled", "err", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("http shutdown", "err", err)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}
}
