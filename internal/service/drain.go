package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// ServeAndDrain runs srv on ln until ctx ends, then drains it: it stops
// accepting, closes every connection that has not yet delivered a byte of
// a request, and waits up to grace for the requests in flight, reporting
// the drain on out under name. It returns nil once the drain is clean.
// fupermod-serve and fupermod-route both serve through it.
func ServeAndDrain(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration, out io.Writer, name string) error {
	// Shutdown closes a connection that never sent a byte only once it is
	// 5 s old, so a client that dialled ahead would hold the drain that
	// long. fresh holds such connections, for the drain to close at once.
	var (
		mu       sync.Mutex
		draining bool
		fresh    = make(map[net.Conn]bool)
	)
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(fresh, c)
		case draining:
			c.Close()
		default:
			fresh[c] = true
		}
	}
	srv.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		draining = true
		for c := range fresh {
			c.Close()
		}
	})

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve never returns nil; surface whatever tore the listener down.
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "%s: draining (up to %s)\n", name, grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// The grace period expired with requests still in flight.
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintf(out, "%s: stopped\n", name)
	return nil
}
