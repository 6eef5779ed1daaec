// Command hiserve runs the multi-tenant design-as-a-service daemon:
// every POST /v1/design is a personalized Human Intranet design problem
// (body geometry scale, channel deviations, battery state, reliability
// floor) solved by Algorithm 1 over one shared evaluation engine, so
// similar users share warm simulation results.
//
// Usage:
//
//	hiserve -addr :8080
//	hiserve -addr :8080 -workers 8 -shards 64 -cachefile /var/lib/hiserve.bin
//	curl -d '{"body_scale": 1.1, "pdr_min": 0.95}' localhost:8080/v1/design
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hiopt/cmd/internal/cli"
	"hiopt/internal/serve"
)

// serveCacheSig is the cache-file context signature of the daemon. The
// single-tenant CLIs sign their files with the run's (duration, runs,
// seed); the daemon serves every fidelity from one file, with the
// per-request fidelity folded into each tenant's key salt instead — so
// the file itself carries a fixed service signature.
const serveCacheSig = 0x68697365727665 // "hiserve"

var (
	addr      = flag.String("addr", ":8080", "listen address")
	workers   = flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	capacity  = flag.Int("capacity", 0, "admission capacity in nominal-request units (0 = 2 x workers)")
	maxQueue  = flag.Int("maxqueue", 0, "admission wait-queue bound; beyond it requests get 429 (0 = 8 x capacity)")
	robustWt  = flag.Int("robustweight", 0, "admission weight of a gamma-robust request (0 = 4)")
	engFlags  = cli.AddEngine(flag.CommandLine, "persistent result cache: load completed simulations at startup and spill fresh ones, so a restarted daemon answers repeat tenants warm")
	drainWait = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window")
)

func main() {
	flag.Parse()
	eng, err := engFlags.Open(os.Stdout, *workers, serveCacheSig)
	if err != nil {
		cli.Fatal("hiserve", err)
	}

	s, err := serve.New(serve.Config{
		Engine:       eng.Engine,
		Capacity:     *capacity,
		MaxQueue:     *maxQueue,
		RobustWeight: *robustWt,
	})
	if err != nil {
		cli.Fatal("hiserve", err)
	}

	srv := &http.Server{Addr: *addr, Handler: s}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Printf("hiserve: listening on %s (%d workers, %d shards)\n", *addr, eng.Workers(), eng.Shards())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		cli.Fatal("hiserve", err)
	case sig := <-sigc:
		fmt.Printf("hiserve: %s, draining (up to %s)\n", sig, *drainWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "hiserve: shutdown:", err)
	}
	if err := eng.Close(); err != nil {
		cli.Fatal("hiserve", err)
	}
}
