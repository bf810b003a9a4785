// Command nocserver serves the NoC simulator as a service
// (internal/server, reference in docs/SERVER.md): POST a scenario
// document to /v1/runs and poll its status, result, and live progress
// stream over HTTP. Identical submissions are deduplicated behind a
// content-addressed cache — the repo's byte-identical-replay
// convention means a scenario plus its seed determines the result
// bytes exactly, so a cache hit returns the stored result, identical
// to what `noctraffic -scenario FILE -wall=false -json` prints.
//
// Quick start:
//
//	nocserver -addr :8080 &
//	curl -d @testdata/ring-sweep.scenario.json localhost:8080/v1/runs
//	curl localhost:8080/v1/runs/{id}/result
//	curl localhost:8080/v1/runs/{id}/progress        # live JSONL
//	curl localhost:8080/metrics                      # Prometheus
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, queued
// runs are reported cancelled, running runs complete (up to
// -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gonoc/internal/server"
)

var (
	addr            = flag.String("addr", ":8080", "listen address (host:port; :0 binds an ephemeral port)")
	workers         = flag.Int("workers", 0, "run worker-pool size (default: GOMAXPROCS)")
	queueDepth      = flag.Int("queue", 64, "bounded run queue depth; a full queue rejects submissions with 429")
	cacheEntries    = flag.Int("cache", 256, "retained runs (the content-addressed result cache); oldest finished runs are evicted first")
	runTimeout      = flag.Duration("run-timeout", 5*time.Minute, "per-run wall-clock cap (0 = unlimited); a run past the cap is reported failed")
	maxBody         = flag.Int64("max-body", 1<<20, "largest accepted scenario document, bytes")
	campaignWorkers = flag.Int("campaign-workers", 0, "cap on one campaign run's internal worker pool (0 = let the scenario decide)")
	drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running runs to complete")
)

func main() {
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("nocserver: ")

	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		RunTimeout:      *runTimeout,
		MaxBodyBytes:    *maxBody,
		CampaignWorkers: *campaignWorkers,
	})
	httpSrv := &http.Server{Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s (submit: POST /v1/runs; docs/SERVER.md)", ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Printf("%s: draining (running runs complete, queued runs cancel; cap %s)", got, *drainTimeout)
	case err := <-errCh:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the run pool first so results land while the HTTP server is
	// still up for pollers, then stop accepting connections.
	code := 0
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v (abandoning still-running runs)", err)
		code = 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
		code = 1
	}
	os.Exit(code)
}
