// Command allocd runs the allocator as a long-lived service: an
// HTTP/JSON job API over a bounded worker pool, with admission control,
// automatic retry of panic-killed solves, a spec-hash result cache, a
// crash-safe job journal, and graceful drain on SIGTERM.
//
// Usage:
//
//	allocd [-addr :8080] [-data-dir dir] [-pool n] [-queue n]
//	       [-job-timeout 60s] [-job-conflict-budget n] [-solve-workers n]
//	       [-retries n] [-drain-grace 10s]
//
// The job API:
//
//	POST   /jobs              submit a spec (the workgen JSON format);
//	                          202 with a job snapshot, 200 on a cache
//	                          hit, 429 + Retry-After when the queue is
//	                          full, 503 while draining
//	GET    /jobs              snapshots of all tracked jobs
//	GET    /jobs/{id}         one snapshot (anytime window while running)
//	GET    /jobs/{id}/stream  NDJSON snapshots until the job is terminal
//	POST   /jobs/{id}/cancel  cancel (also DELETE /jobs/{id})
//
// The same listener serves the full ops surface (/metrics, /healthz,
// /progress, /debug/pprof, ...); /healthz flips to 503 "degraded" when
// journal or cache writes start failing, so a load balancer can rotate
// the instance out while it keeps solving.
//
// Shutdown: the first SIGINT/SIGTERM stops admission and drains — jobs
// get -drain-grace to finish, and halfway through it their solve
// contexts are cancelled so they degrade to their anytime incumbents. A
// second signal force-exits. After a crash (or an overrun drain) the
// journal under -data-dir replays the unfinished jobs on next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"satalloc/internal/cli"
	"satalloc/internal/flightrec"
	"satalloc/internal/metrics"
	"satalloc/internal/metrics/ophttp"
	"satalloc/internal/obs"
	"satalloc/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "host:port to serve the job API and ops routes on (\":0\" picks a free port)")
	dataDir := flag.String("data-dir", filepath.Join(os.TempDir(), "satalloc-allocd"),
		"directory for the job journal and panic repro bundles")
	pool := flag.Int("pool", cli.DefaultWorkers(), "solver worker pool size")
	queue := flag.Int("queue", 256, "admission queue capacity (full queue: 429 + Retry-After)")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "wall-clock budget per solve attempt (0: unlimited)")
	conflictBudget := flag.Int64("job-conflict-budget", 0, "SAT conflict budget per SOLVE call of each job (0: unlimited)")
	solveWorkers := flag.Int("solve-workers", 1, "CDCL portfolio size inside each job (1: sequential; the pool is the parallelism)")
	retries := flag.Int("retries", 2, "retries per job after a contained solver panic")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "graceful-drain budget on SIGTERM before jobs are left to the journal")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "allocd: unexpected arguments; the spec arrives via POST /jobs")
		return 2
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	// The full instrument set is always on for a daemon: its whole point
	// is to be scraped.
	registry := metrics.New()
	solver := metrics.NewSolverMetrics(registry)
	recorder := flightrec.New(flightrec.DefaultCapacity)

	srv, err := serve.New(serve.Options{
		Pool:           *pool,
		QueueCap:       *queue,
		JobTimeout:     *jobTimeout,
		ConflictBudget: *conflictBudget,
		SolveWorkers:   *solveWorkers,
		MaxAttempts:    *retries + 1,
		DataDir:        *dataDir,
		Metrics:        serve.NewMetrics(registry),
		Observer:       &obs.Observer{Metrics: solver, Recorder: recorder},
		Logf:           logf,
	})
	if err != nil {
		logf("allocd: %v", err)
		return 1
	}

	mux := http.NewServeMux()
	srv.Register(mux)
	ophttp.NewHandlers(ophttp.Options{
		Registry:  registry,
		Solver:    solver,
		Recorder:  recorder,
		Component: "allocd",
		Health:    srv.Health,
	}).Register(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("allocd: listen %s: %v", *addr, err)
		return 1
	}
	logf("allocd: listening on http://%s (data dir %s, pool %d)", ln.Addr(), *dataDir, *pool)

	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, cancel := cli.ShutdownContext(context.Background())
	defer cancel()
	select {
	case err := <-serveErr:
		logf("allocd: serve: %v", err)
		srv.Close()
		return 1
	case <-ctx.Done():
	}

	logf("allocd: draining (grace %v; second signal force-exits)", *drainGrace)
	drainErr := srv.Drain(*drainGrace)
	httpSrv.Close()
	if drainErr != nil {
		logf("allocd: %v", drainErr)
		return 1
	}
	logf("allocd: drained cleanly")
	return 0
}
