// Command fdrserve is the checking-as-a-service daemon: a long-lived
// HTTP/JSON server that accepts CSPm models plus assertions and runs
// them through the refinement checker on a worker pool, hardened for
// weeks-long operation under untrusted, bursty traffic.
//
// Usage:
//
//	fdrserve [-addr :8080] [-check-workers N] [-queue N] [-max-states N]
//	         [-max-duration 30s] [-max-body 1048576]
//
// Endpoints:
//
//	POST /v1/check    {"cspm": "...", "budget": {...}} -> per-assertion verdicts
//	POST /v1/jobs     submit the same request as a detached job -> {"id", "state"}
//	GET  /v1/jobs/ID  poll a job; state "done" carries the check response
//	GET  /healthz     liveness (200 while the process is up)
//	GET  /readyz      readiness (503 once draining)
//	GET  /metrics     observability snapshot (text form)
//
// Overload is rejected with 429 + Retry-After instead of queue
// collapse; a SIGTERM/SIGINT drains in-flight checks, rejects new
// work, flushes the observability sinks and exits 0.
//
// The daemon keeps no model store: each request's assertions share one
// exploration cache that is dropped with the request, so resident
// memory is bounded by -check-workers times the per-request -max-states
// and -max-mem budgets.
//
// With -data-dir set, jobs are durable: records persist with atomic
// writes, explorations checkpoint per BFS level, and a daemon killed
// outright (SIGKILL, OOM) re-enqueues its unfinished jobs at the next
// boot and resumes them from their checkpoints — the eventual verdicts
// are byte-identical to an uninterrupted run. -max-mem turns runaway
// checks into structured budget:memory verdicts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fdrserve:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a shutdown signal arrives and
// the drain completes. ready, when non-nil, receives the bound address
// once the listener is up (the test hook).
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("fdrserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	checkWorkers := fs.Int("check-workers", 0, "concurrent checks (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "admission queue length past the worker slots")
	maxStates := fs.Int("max-states", 0, "per-request state cap per exploration (0 = lts default)")
	maxDuration := fs.Duration("max-duration", 30*time.Second, "per-request wall-clock cap")
	maxBody := fs.Int64("max-body", 1<<20, "request body cap in bytes")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight checks on shutdown")
	dataDir := fs.String("data-dir", "", "durable state directory: job records and checkpoints (empty = jobs are memory-only)")
	maxMem := fs.Int64("max-mem", 0, "per-exploration hard memory watermark in bytes; past it the check degrades to a budget:memory verdict (0 = unbounded)")
	checkpointLevels := fs.Int("checkpoint-levels", 0, "exploration snapshot cadence in BFS levels for durable jobs (0 = every level)")
	chaos := fs.Bool("chaos", false, "honour X-Chaos-Panic fault-injection headers (testing only)")
	var obsFlags obs.Flags
	obsFlags.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	// The daemon always runs with metrics enabled — /metrics is part of
	// the API — so Build's nil-observer disabled path is only taken when
	// no flags ask for extra sinks; then a plain enabled observer is
	// used.
	observer, finishObs, err := obsFlags.Build(os.Stderr)
	if err != nil {
		return err
	}
	if observer == nil {
		observer = obs.New()
		finishObs = func() error { return nil }
	}

	srv := serve.New(serve.Config{
		Workers:      *checkWorkers,
		MaxQueue:     *queue,
		MaxBodyBytes: *maxBody,
		MaxStates:    *maxStates,
		MaxDuration:  *maxDuration,
		Obs:          observer,
		EnableChaos:  *chaos,

		DataDir:               *dataDir,
		MaxMemBytes:           *maxMem,
		CheckpointEveryLevels: *checkpointLevels,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Slow-loris defence: a client must deliver its headers and body
		// promptly or lose the connection; checks themselves are bounded
		// by the per-request budget, so the write timeout covers the
		// response on top of it.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *maxDuration + 30*time.Second,
	}
	fmt.Fprintf(stdout, "fdrserve: listening on %s (workers=%d queue=%d max-duration=%v)\n",
		ln.Addr(), srv.Workers(), *queue, *maxDuration)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() {
		defer func() {
			// The accept loop must never take the process down.
			if r := recover(); r != nil {
				serveErr <- fmt.Errorf("http serve panicked: %v", r)
			}
		}()
		serveErr <- httpSrv.Serve(ln)
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "fdrserve: %v received, draining\n", sig)
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}

	// Graceful shutdown: flip readiness, reject new checks, wait for
	// in-flight work, then close the listener and flush the obs sinks.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if err := finishObs(); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(stdout, "fdrserve: drained, exiting")
	return nil
}
