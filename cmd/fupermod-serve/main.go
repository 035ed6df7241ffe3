// Command fupermod-serve runs the multi-tenant partition service: a
// long-lived HTTP+JSON server answering measure → model → partition
// requests with per-tenant model caches, single-flight sweep deduplication
// and partition-request batching, all executing on one bounded worker
// pool. It is the serving end of the FuPerMod tool chain — where
// fupermod-bench/-model/-partition run the workflow once, the service
// answers it continuously for many clients.
//
// With -store-dir the service keeps an on-disk model store: every sweep is
// spilled there and reloaded on restart, so a bounced server answers from
// warm models with zero re-sweeps. With -quota-slots a weighted fair
// admission quota bounds each tenant's concurrently in-flight sweeps
// (excess requests get 429 + Retry-After); per-tenant weights are set with
// repeatable -quota-weight tenant=w flags. With -transfer (off by default,
// requires -store-dir) a cold key is warm-started from the store's
// nearest-fingerprint donor curve via a small active-sampling probe loop
// instead of a full sweep; when no stored curve matches, the server falls
// back to the full sweep and serves byte-identical answers to a
// transfer-off server. The probe loop runs with the service defaults (4
// initial probes, a quarter of the grid, 2% tolerance); fupermod-bench
// -transfer exposes those knobs for experiments.
//
// A process is one serving core. To scale out, run N fupermod-serve
// processes on one -store-dir behind cmd/fupermod-route, which spreads
// tenants over them with a consistent-hash ring; the shared store lets
// each process reuse the others' sweeps.
//
// Usage:
//
//	fupermod-serve -addr :8080 -workers 8 -cache-size 128 \
//	    -store-dir /var/lib/fupermod/store \
//	    -quota-slots 2 -quota-weight team-a=1 -quota-weight team-b=3
//
//	curl -s localhost:8080/v1/partition -d '{
//	  "tenant": "team-a",
//	  "devices": [{"preset": "fast", "seed": 1}, {"preset": "slow", "seed": 2}],
//	  "grid": {"lo": 16, "hi": 5000, "n": 20},
//	  "algorithm": "geometric",
//	  "d": 20000
//	}'
//
//	curl -s localhost:8080/v1/matpart -d '{
//	  "tenant": "team-a",
//	  "areas": [10, 4, 2.5, 1],
//	  "grid": 32
//	}'
//
// The server drains in-flight requests and exits cleanly on SIGINT/SIGTERM.
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
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fupermod/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "fupermod-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fupermod-serve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr            = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers         = fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for sweeps, fits and solves")
		cacheSize       = fs.Int("cache-size", service.DefaultCacheSize, "fitted models kept per tenant (LRU)")
		batchWindow     = fs.Duration("batch-window", service.DefaultBatchWindow, "window for batching identical partition requests")
		shutdownTimeout = fs.Duration("shutdown-timeout", 10*time.Second, "grace period for draining in-flight requests on SIGINT")
		storeDir        = fs.String("store-dir", "", "directory of the on-disk model store (empty disables persistence)")
		quotaSlots      = fs.Int("quota-slots", 0, "in-flight sweep slots per quota weight unit (0 disables admission control)")
		transfer        = fs.Bool("transfer", false, "warm-start cold sweeps from the store's nearest-fingerprint donor curves (requires -store-dir)")
	)
	quotaWeights := map[string]int{}
	fs.Func("quota-weight", "per-tenant quota weight as tenant=w (repeatable)", func(v string) error {
		tenant, ws, ok := strings.Cut(v, "=")
		if !ok || tenant == "" {
			return fmt.Errorf("want tenant=weight, got %q", v)
		}
		w, err := strconv.Atoi(ws)
		if err != nil {
			return err
		}
		if w < 1 {
			return fmt.Errorf("weight for %q must be at least 1, got %d", tenant, w)
		}
		quotaWeights[tenant] = w
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	// Reject silently-wrong configurations instead of letting the service
	// paper over them with defaults: a non-positive cache or worker count
	// is a typo, not a request for DefaultCacheSize/GOMAXPROCS.
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	}
	if *cacheSize <= 0 {
		return fmt.Errorf("-cache-size must be positive, got %d", *cacheSize)
	}
	if *batchWindow <= 0 {
		return fmt.Errorf("-batch-window must be positive, got %s", *batchWindow)
	}
	if *quotaSlots < 0 {
		return fmt.Errorf("-quota-slots must be non-negative, got %d", *quotaSlots)
	}
	if len(quotaWeights) > 0 && *quotaSlots == 0 {
		return fmt.Errorf("-quota-weight requires -quota-slots")
	}
	if *transfer && *storeDir == "" {
		return fmt.Errorf("-transfer requires -store-dir (the store is the donor pool)")
	}

	svc, err := service.New(service.Config{
		Workers:      *workers,
		CacheSize:    *cacheSize,
		BatchWindow:  *batchWindow,
		StoreDir:     *storeDir,
		QuotaSlots:   *quotaSlots,
		QuotaWeights: quotaWeights,
		Transfer:     *transfer,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(stdout, "fupermod-serve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve never returns nil; surface whatever tore the listener down.
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "fupermod-serve: draining (up to %s)\n", *shutdownTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// The grace period expired with requests still in flight.
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "fupermod-serve: stopped")
	return nil
}
