package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"fupermod/internal/service"
)

// syncBuffer lets the test read router output while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRouteFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-addr"},                       // missing value
		{},                              // no backend at all
		{"-backend", "http://h:1", "p"}, // unexpected positional
		{"-backend", "not a url"},       // no scheme
		{"-backend", "ftp://h:1"},       // wrong scheme
		{"-backend", "http://"},         // empty host
		{"-backend", "http://h:1", "-backend", "http://h:1"},      // duplicate
		{"-backend", "http://h:1", "-health-interval", "0s"},      // non-positive
		{"-backend", "http://h:1", "-health-interval", "-1s"},     // negative
		{"-backend", "http://h:1", "-health-interval", "soonish"}, // bad duration
	}
	for _, args := range cases {
		var out syncBuffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// newBackend boots one real service instance (one fupermod-serve worth of
// serving) on an ephemeral port.
func newBackend(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

func postJSON(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func getStats(t *testing.T, base string) service.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startRoute boots the router entrypoint against the given backends and
// returns its base URL.
func startRoute(t *testing.T, backends ...string) string {
	t.Helper()
	return startRouteInterval(t, "50ms", backends...)
}

// startRouteInterval is startRoute with an explicit health-check period —
// a long one makes "the health loop has not intervened" a test invariant.
func startRouteInterval(t *testing.T, interval string, backends ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	args := []string{"-addr", "127.0.0.1:0", "-health-interval", interval}
	for _, b := range backends {
		args = append(args, "-backend", b)
	}
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &out) }()
	t.Cleanup(func() {
		// Connections a request storm dialled but never used would hold
		// the router's drain for its ReadHeaderTimeout; drop them first.
		http.DefaultClient.CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("router exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("router did not exit after context cancellation")
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("router did not report a listen address; output: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouteSpreadsAndStaysByteIdentical is the cross-process differential:
// a fleet of two real backends on one store directory behind the router
// serves a mixed-tenant corpus byte-identically to one reference server
// handling everything. Then one backend dies in the middle of a request
// storm, and the failover contract holds:
//
//   - zero wrong bytes: every answer, during the storm and after it, is
//     the reference bytes or a 503 (an in-flight casualty of the kill);
//   - after the storm every tenant gets the reference bytes;
//   - failover costs zero re-sweeps: the survivor serves the dead
//     backend's tenants from the shared store, so its sweeps do not move.
func TestRouteSpreadsAndStaysByteIdentical(t *testing.T) {
	grid := service.Grid{Lo: 16, Hi: 2000, N: 8}
	corpus := make([]service.PartitionRequest, 16)
	for i := range corpus {
		corpus[i] = service.PartitionRequest{
			Tenant:  fmt.Sprintf("fleet-%d", i),
			Devices: []service.DeviceSpec{{Preset: "fast", Seed: int64(i + 1)}, {Preset: "slow", Seed: int64(i + 50)}},
			Grid:    grid,
			D:       4000 + 10*i,
		}
	}

	ref := newBackend(t, service.Config{Workers: 2})
	want := make([][]byte, len(corpus))
	for i, req := range corpus {
		status, body := postJSON(t, ref.URL+"/v1/partition", req)
		if status != 200 {
			t.Fatalf("reference %s: status %d: %s", req.Tenant, status, body)
		}
		want[i] = body
	}

	dir := t.TempDir()
	b1 := newBackend(t, service.Config{Workers: 2, StoreDir: dir})
	b2 := newBackend(t, service.Config{Workers: 2, StoreDir: dir})
	route := startRoute(t, b1.URL, b2.URL)

	resp, err := http.Get(route + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
		Live   int    `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Live != 2 {
		t.Fatalf("router healthz: %+v, want ok with 2 live", hz)
	}

	for i, req := range corpus {
		status, body := postJSON(t, route+"/v1/partition", req)
		if status != 200 {
			t.Fatalf("routed %s: status %d: %s", req.Tenant, status, body)
		}
		if !bytes.Equal(body, want[i]) {
			t.Errorf("routed %s differs from the reference server", req.Tenant)
		}
	}

	// Both backends took a share of the corpus (the ring spreads tenants),
	// and the merged fleet view adds up.
	s1, s2 := getStats(t, b1.URL), getStats(t, b2.URL)
	if s1.Sweeps == 0 || s2.Sweeps == 0 {
		t.Errorf("corpus was not spread: backend sweeps %d and %d", s1.Sweeps, s2.Sweeps)
	}
	merged := getStats(t, route)
	if merged.Sweeps != s1.Sweeps+s2.Sweeps {
		t.Errorf("merged sweeps %d != %d + %d", merged.Sweeps, s1.Sweeps, s2.Sweeps)
	}
	if merged.Workers != s1.Workers+s2.Workers {
		t.Errorf("merged workers %d != %d + %d", merged.Workers, s1.Workers, s2.Workers)
	}

	// Kill one backend once a fifth of a storm is provably in flight: its
	// tenants re-walk the ring to the survivor, and the rest of the storm
	// races the failover.
	const stormN = 50
	began := make(chan struct{}, stormN)
	type result struct {
		idx    int
		status int
		body   []byte
	}
	results := make(chan result, stormN)
	var wg sync.WaitGroup
	for i := 0; i < stormN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			began <- struct{}{}
			idx := i % len(corpus)
			status, body := postJSON(t, route+"/v1/partition", corpus[idx])
			results <- result{idx, status, body}
		}(i)
	}
	for i := 0; i < stormN/5; i++ {
		<-began
	}
	b1.Close()
	wg.Wait()
	close(results)
	casualties := 0
	for r := range results {
		switch {
		case r.status == http.StatusServiceUnavailable:
			casualties++
		case r.status != 200:
			t.Errorf("storm %s: status %d (want 200 or 503): %s", corpus[r.idx].Tenant, r.status, r.body)
		case !bytes.Equal(r.body, want[r.idx]):
			t.Errorf("storm %s differs from the reference server", corpus[r.idx].Tenant)
		}
	}
	t.Logf("storm: %d/%d requests were in-flight casualties (503)", casualties, stormN)
	for i, req := range corpus {
		status, body := postJSON(t, route+"/v1/partition", req)
		if status != 200 {
			t.Fatalf("post-failover %s: status %d: %s", req.Tenant, status, body)
		}
		if !bytes.Equal(body, want[i]) {
			t.Errorf("post-failover %s differs from the reference server", req.Tenant)
		}
	}
	if after := getStats(t, b2.URL); after.Sweeps != s2.Sweeps {
		t.Errorf("failover re-swept: survivor sweeps %d → %d (want unchanged)", s2.Sweeps, after.Sweeps)
	}

	// The router noticed: /healthz reports one live backend.
	resp, err = http.Get(route + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Live != 1 {
		t.Errorf("router healthz after failover: %d live, want 1", hz.Live)
	}
}

// TestRouteClientCancelDoesNotPoisonBackend is the regression test for the
// cancellation-poisoning bug: a client disconnecting mid-forward used to
// mark the (perfectly live) backend dead, sending every later request of
// its tenants to 503 until a health probe happened to revive it. The
// health interval here is an hour, so the only way the follow-up request
// can succeed is if the cancellation never touched the ring.
func TestRouteClientCancelDoesNotPoisonBackend(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseStub := func() { releaseOnce.Do(func() { close(release) }) }
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		entered <- struct{}{}
		// Block until the test releases the stub: the cancelled forward
		// must observe its cancellation, never a response that raced it.
		<-release
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	}))
	// However the test exits, unblock the stub first so Close can drain.
	t.Cleanup(func() { releaseStub(); stub.Close() })
	route := startRouteInterval(t, "1h", stub.URL)

	// A request whose client walks away while the backend is mid-answer.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, route+"/v1/measure", bytes.NewReader([]byte(`{"tenant":"x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered // the forward provably reached the backend
	cancel()  // ... and the client is gone
	if err := <-errc; err == nil {
		t.Fatal("cancelled request reported success")
	}

	// Watch the ring: if the cancellation poisons the backend, /healthz
	// drops to 0 live within milliseconds (and, with the health loop an
	// hour away, stays there). Holding at 1 for the whole window is the
	// fixed behaviour.
	liveCount := func() int {
		resp, err := http.Get(route + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz struct {
			Live int `json:"live"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz.Live
	}
	for until := time.Now().Add(time.Second); time.Now().Before(until); {
		if n := liveCount(); n != 1 {
			t.Fatalf("client cancellation poisoned the ring: %d live backends, want 1", n)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the tenant's next request sails through the released stub.
	releaseStub()
	status, body := postJSON(t, route+"/v1/measure", map[string]string{"tenant": "x"})
	if status != 200 {
		t.Fatalf("follow-up after a client cancellation: status %d: %s", status, body)
	}
}

// TestRouteBackendsDieMidStorm kills the whole fleet in the middle of a
// request storm: every in-flight and subsequent response must be either a
// success or a 503 carrying the service's error envelope — the ring
// re-walk always terminates, never hangs, and never invents a new format.
func TestRouteBackendsDieMidStorm(t *testing.T) {
	b1 := newBackend(t, service.Config{Workers: 2})
	b2 := newBackend(t, service.Config{Workers: 2})
	route := startRoute(t, b1.URL, b2.URL)

	const storm = 32
	type outcome struct {
		status int
		body   []byte
	}
	outcomes := make(chan outcome, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, route+"/v1/measure", service.MeasureRequest{
				Tenant: fmt.Sprintf("storm-%d", i),
				Device: service.DeviceSpec{Preset: "fast", Seed: int64(i + 1)},
				Grid:   service.Grid{Lo: 16, Hi: 2000, N: 8},
			})
			outcomes <- outcome{status, body}
		}(i)
		if i == storm/2 {
			// Mid-storm, the whole fleet goes down.
			b1.Close()
			b2.Close()
		}
	}
	wg.Wait()
	close(outcomes)
	saw503 := false
	for o := range outcomes {
		switch o.status {
		case 200:
		case http.StatusServiceUnavailable:
			saw503 = true
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(o.body, &e); err != nil || e.Error == "" {
				t.Fatalf("503 without the service error envelope: %s", o.body)
			}
		default:
			t.Errorf("storm response: status %d: %s", o.status, o.body)
		}
	}

	// The fleet is gone for good: the post-storm request must get the
	// terminating 503 envelope, not a hang.
	status, body := postJSON(t, route+"/v1/measure", service.MeasureRequest{
		Device: service.DeviceSpec{Preset: "fast", Seed: 99},
		Grid:   service.Grid{Lo: 16, Hi: 2000, N: 8},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-storm status %d (want 503): %s", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("post-storm 503 without the service error envelope: %s", body)
	}
	_ = saw503 // the storm may finish before the kill lands; the post-storm check is the invariant
}

// TestRouteAllBackendsDead: with every backend gone the router answers 503
// with the service's error envelope, never a hang or a panic.
func TestRouteAllBackendsDead(t *testing.T) {
	b := newBackend(t, service.Config{Workers: 1})
	route := startRoute(t, b.URL)
	b.Close()
	status, body := postJSON(t, route+"/v1/measure", service.MeasureRequest{
		Device: service.DeviceSpec{Preset: "fast", Seed: 1},
		Grid:   service.Grid{Lo: 16, Hi: 2000, N: 8},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (want 503): %s", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("want the service error envelope, got %s", body)
	}
}
