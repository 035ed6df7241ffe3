// Command fupermod-route is a stateless routing tier in front of a fleet
// of fupermod-serve processes, and the way the service scales out: each
// process is one serving core, and N of them on one -store-dir behind the
// router share their measurements through the store. The router spreads
// tenants across backends with a consistent-hash ring (package ring), so a
// tenant's requests always land on the one backend that holds its models —
// the property that keeps per-tenant caches, quotas and batches exact
// across a fleet.
//
// Backends are health-checked (GET /healthz) on a fixed interval and, in
// addition, marked dead the moment a forward fails to connect; a dead
// backend's tenants fail over to their clockwise ring successors and
// return — to exactly their original backend — when it passes a health
// check again. When every backend shares one -store-dir, a failover or a
// rejoin costs zero re-sweeps: the store is the fleet's coherence point.
//
// The router's own endpoints: GET /healthz answers for the router itself,
// GET /stats fans out to every live backend and merges the snapshots into
// one fleet view. Everything else is forwarded to the tenant's backend.
//
// Usage:
//
//	fupermod-route -addr :8090 \
//	    -backend http://10.0.0.1:8080 -backend http://10.0.0.2:8080 \
//	    -health-interval 2s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fupermod/internal/service"
	"fupermod/internal/service/ring"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "fupermod-route:", err)
		os.Exit(1)
	}
}

// router holds the ring of backend base URLs and the clients used to talk
// to them.
type router struct {
	ring     *ring.Ring
	backends []string
	forward  *http.Client // no timeout: sweeps legitimately take a while
	health   *http.Client // short timeout: liveness must be cheap to ask
}

func newRouter(backends []string) *router {
	rt := &router{
		ring:     ring.New(0),
		backends: backends,
		forward:  &http.Client{},
		health:   &http.Client{Timeout: 2 * time.Second},
	}
	for _, b := range backends {
		rt.ring.Add(b)
	}
	return rt
}

// checkHealth probes every backend once and flips its ring liveness to the
// probe's outcome. A backend that comes back passes its next probe and —
// because dead members keep their ring positions — reclaims exactly the
// tenants it served before it went away.
func (rt *router) checkHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b+"/healthz", nil)
			if err != nil {
				rt.ring.SetLive(b, false)
				return
			}
			resp, err := rt.health.Do(req)
			if err != nil {
				rt.ring.SetLive(b, false)
				return
			}
			resp.Body.Close()
			rt.ring.SetLive(b, resp.StatusCode == http.StatusOK)
		}(b)
	}
	wg.Wait()
}

// writeError mirrors the service's error envelope so clients see one
// format whether the router or a backend answers.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// handleForward routes one tenant-scoped request: peek the tenant from the
// JSON body, walk the ring from its position until a live backend answers,
// and relay that backend's response verbatim. A connect failure marks the
// backend dead on the spot (the health loop will revive it later), so one
// crashed process costs at most one extra hop, not an interval of errors.
func (rt *router) handleForward(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return
	}
	// The tenant is the routing key. A body that does not parse still
	// routes (to the default tenant's backend) — the backend owns the
	// error message, so every malformed request gets the service's answer,
	// not a router-invented one.
	var peek struct {
		Tenant string `json:"tenant"`
	}
	json.Unmarshal(body, &peek)
	tenant := service.TenantOf(peek.Tenant)

	for attempt := 0; attempt < len(rt.backends); attempt++ {
		backend, ok := rt.ring.Lookup(tenant)
		if !ok {
			break
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, backend+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.forward.Do(req)
		if err != nil {
			if r.Context().Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// The client went away mid-forward. That is evidence about
				// the client, not the backend: marking the backend dead
				// here poisons a live process for every tenant it serves,
				// and a storm of cancellations would walk the whole ring
				// dead. Answer the doomed request and leave the ring alone.
				writeError(w, http.StatusServiceUnavailable, "request cancelled")
				return
			}
			// Unreachable: fail the backend over and re-walk the ring.
			rt.ring.SetLive(backend, false)
			continue
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "no live backend")
}

// handleStats fans /stats out to every live backend and merges the
// snapshots into one fleet view.
func (rt *router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var snaps []service.Snapshot
	for _, b := range rt.backends {
		if !rt.ring.Alive(b) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b+"/stats", nil)
		if err != nil {
			continue
		}
		resp, err := rt.health.Do(req)
		if err != nil {
			rt.ring.SetLive(b, false)
			continue
		}
		var snap service.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			continue
		}
		snaps = append(snaps, snap)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(service.MergeSnapshots(snaps))
}

func (rt *router) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "backends": len(rt.backends), "live": rt.ring.LiveCount()})
	})
	mux.HandleFunc("/stats", rt.handleStats)
	mux.HandleFunc("/", rt.handleForward)
	return mux
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fupermod-route", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr            = fs.String("addr", "127.0.0.1:8090", "listen address")
		healthInterval  = fs.Duration("health-interval", 2*time.Second, "backend health-check period")
		shutdownTimeout = fs.Duration("shutdown-timeout", 10*time.Second, "grace period for draining in-flight requests on SIGINT")
	)
	var backends []string
	fs.Func("backend", "backend base URL, e.g. http://10.0.0.1:8080 (repeatable)", func(v string) error {
		u, err := url.Parse(v)
		if err != nil {
			return err
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("backend %q: want http(s)://host[:port]", v)
		}
		backends = append(backends, u.Scheme+"://"+u.Host)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if len(backends) == 0 {
		return fmt.Errorf("at least one -backend is required")
	}
	seen := make(map[string]bool, len(backends))
	for _, b := range backends {
		if seen[b] {
			return fmt.Errorf("duplicate backend %s", b)
		}
		seen[b] = true
	}
	if *healthInterval <= 0 {
		return fmt.Errorf("-health-interval must be positive, got %s", *healthInterval)
	}

	rt := newRouter(backends)
	rt.checkHealth(ctx)

	healthCtx, stopHealth := context.WithCancel(ctx)
	defer stopHealth()
	go func() {
		t := time.NewTicker(*healthInterval)
		defer t.Stop()
		for {
			select {
			case <-healthCtx.Done():
				return
			case <-t.C:
				rt.checkHealth(healthCtx)
			}
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           rt.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Fprintf(stdout, "fupermod-route: listening on %s (%d backends)\n", ln.Addr(), len(backends))

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "fupermod-route: draining (up to %s)\n", *shutdownTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "fupermod-route: stopped")
	return nil
}
