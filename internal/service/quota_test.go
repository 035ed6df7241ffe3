package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"fupermod/internal/pool"
)

// postRaw posts JSON and returns the raw response (for header assertions).
func postRaw(url string, req any) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return http.Post(url, "application/json", bytes.NewReader(body))
}

// waitStats polls /stats until pred holds (or the deadline expires).
func waitStats(t *testing.T, base string, pred func(Snapshot) bool, what string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := getStats(t, base)
		if pred(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, snap)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuotaFairnessUnderStorm is the fairness property: with weights
// {a:1, b:1} over a 1-slot quota, a 50-request storm from tenant A is
// rejected — never queued — while A's slot is occupied, and tenant B's
// single request proceeds unhindered: B is delayed by nothing but its own
// sweep, B collects zero rejections, and every rejection is A's.
//
// The test is deterministic: the worker pool is plugged by a blocker task,
// so A's first fill provably holds A's quota slot (in the pool queue) for
// the entire storm.
func TestQuotaFairnessUnderStorm(t *testing.T) {
	svc, ts := newTestServer(t, Config{
		Workers:      2,
		QuotaSlots:   1,
		QuotaWeights: map[string]int{"a": 1, "b": 1},
	})

	// Plug both pool workers so fills queue behind us.
	unblock := make(chan struct{})
	blocked := make(chan struct{}, 2)
	blockerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			blockerDone <- pool.Do(context.Background(), svc.pool, func(context.Context) error {
				blocked <- struct{}{}
				<-unblock
				return nil
			})
		}()
	}
	<-blocked
	<-blocked

	measureReq := func(tenant string, seed int64) MeasureRequest {
		return MeasureRequest{Tenant: tenant, Device: DeviceSpec{Preset: "fast", Seed: seed}, Grid: testGrid}
	}

	// A's first request: acquires A's only slot, then waits for the pool.
	aDone := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/measure", measureReq("a", 1))
		aDone <- status
	}()
	waitStats(t, ts.URL, func(s Snapshot) bool { return s.CacheMisses == 1 }, "tenant A's fill to hold its slot")

	// The storm: 50 distinct A requests. Every one must be rejected now —
	// A's slot is provably occupied — and none may queue.
	for i := int64(2); i < 52; i++ {
		status, body := postJSON(t, ts.URL+"/v1/measure", measureReq("a", i))
		if status != 429 {
			t.Fatalf("storm request seed=%d: status %d, want 429: %s", i, status, body)
		}
	}

	// B's single request: admitted (B's slot is free) and blocked only by
	// the plugged pool — i.e. by at most the sweep ahead of it.
	bStart := time.Now()
	bDone := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/measure", measureReq("b", 99))
		bDone <- status
	}()
	waitStats(t, ts.URL, func(s Snapshot) bool { return s.CacheMisses == 2 }, "tenant B's fill to be admitted")

	close(unblock)
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
	if status := <-aDone; status != 200 {
		t.Errorf("tenant A's admitted request: status %d", status)
	}
	if status := <-bDone; status != 200 {
		t.Errorf("tenant B's request: status %d", status)
	}
	bLatency := time.Since(bStart)

	// Bound B's post-unblock delay by the cost of (at most) two sweeps —
	// its own plus the one A fill ahead of it. Virtual sweeps take
	// milliseconds; a generous ceiling keeps the bound meaningful without
	// CI flakiness.
	if bLatency > 5*time.Second {
		t.Errorf("tenant B waited %s behind tenant A's storm", bLatency)
	}

	snap := getStats(t, ts.URL)
	if snap.QuotaRejections != 50 {
		t.Errorf("quota_rejections = %d, want 50", snap.QuotaRejections)
	}
	if got := snap.QuotaRejectionsByTenant["a"]; got != 50 {
		t.Errorf("tenant A rejections = %d, want 50", got)
	}
	if got, ok := snap.QuotaRejectionsByTenant["b"]; ok {
		t.Errorf("tenant B collected %d rejections, want none", got)
	}
	if snap.Sweeps != 2 {
		t.Errorf("sweeps = %d, want 2 (A's and B's admitted fills only)", snap.Sweeps)
	}
}

// TestQuotaRejectionCarriesRetryAfter: the 429 is actionable — it names
// the quota in the body and carries a Retry-After estimate.
func TestQuotaRejectionCarriesRetryAfter(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QuotaSlots: 1})

	unblock := make(chan struct{})
	blocked := make(chan struct{}, 1)
	go pool.Do(context.Background(), svc.pool, func(context.Context) error {
		blocked <- struct{}{}
		<-unblock
		return nil
	})
	<-blocked
	defer close(unblock)

	go func() {
		resp, err := postRaw(ts.URL+"/v1/measure", MeasureRequest{Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: testGrid})
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitStats(t, ts.URL, func(s Snapshot) bool { return s.CacheMisses == 1 }, "first fill to hold the slot")

	resp, err := postRaw(ts.URL+"/v1/measure", MeasureRequest{Device: DeviceSpec{Preset: "fast", Seed: 2}, Grid: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive estimate", ra)
	}
}

// TestRetryAfterUsesCompletedSweeps is the regression test for the biased
// Retry-After estimate: the mean sweep duration must divide by *completed*
// sweeps, not started ones. Under pressure — many sweeps in flight, few
// finished — dividing by the started count blends the in-flight sweeps'
// zero recorded nanoseconds into the mean and collapses the estimate to
// the 1s floor exactly when honest backpressure matters most.
func TestRetryAfterUsesCompletedSweeps(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1})

	// A cold server — or one whose every sweep is still in flight — has no
	// observed time scale; the floor is all it can honestly promise.
	if got := svc.retryAfterSecs(); got != 1 {
		t.Errorf("cold server: retry after %ds, want the 1s floor", got)
	}
	svc.stats.Sweeps.Store(3)
	if got := svc.retryAfterSecs(); got != 1 {
		t.Errorf("all sweeps in flight: retry after %ds, want the 1s floor", got)
	}

	// One sweep completed in 2.6s while three more are still running: the
	// only observed duration is 2.6s, so the estimate is ceil(2.6) = 3s.
	// The pre-fix arithmetic divided 2.6s by the 4 started sweeps and
	// promised 1s — a quarter of the real time scale.
	svc.stats.Sweeps.Store(4)
	svc.stats.sweepsDone.Store(1)
	svc.stats.sweepNanos.Store(int64(2600 * time.Millisecond))
	if got := svc.retryAfterSecs(); got != 3 {
		t.Errorf("1 completed 2.6s sweep, 3 in flight: retry after %ds, want 3s", got)
	}

	// Once everything completes the two counts agree and the estimate is
	// the plain mean again.
	svc.stats.sweepsDone.Store(4)
	svc.stats.sweepNanos.Store(int64(4 * 1200 * time.Millisecond))
	if got := svc.retryAfterSecs(); got != 2 {
		t.Errorf("4 completed 1.2s sweeps: retry after %ds, want 2s", got)
	}
}

// TestQuotaWeights: the controller's arithmetic — slots × weight per
// tenant, default weight 1, release frees exactly one admission.
func TestQuotaWeights(t *testing.T) {
	q := newQuotas(1, map[string]int{"heavy": 3})
	for i := 0; i < 3; i++ {
		if !q.acquire("heavy") {
			t.Fatalf("heavy admission %d rejected under weight 3", i)
		}
	}
	if q.acquire("heavy") {
		t.Error("heavy admitted beyond slots×weight")
	}
	if !q.acquire("light") {
		t.Error("light's first admission rejected")
	}
	if q.acquire("light") {
		t.Error("light admitted beyond default weight 1")
	}
	q.release("heavy")
	if !q.acquire("heavy") {
		t.Error("release did not free an admission")
	}
	// Disabled controller admits everything.
	var off *quotas
	for i := 0; i < 100; i++ {
		if !off.acquire("anyone") {
			t.Fatal("nil quotas must admit")
		}
	}
	off.release("anyone")
}

// TestQuotaDisabledByDefault: a zero config meters nothing — 50 concurrent
// distinct misses all succeed.
func TestQuotaDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		go func(seed int64) {
			status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{
				Device: DeviceSpec{Preset: "fast", Seed: seed}, Grid: testGrid,
			})
			if status != 200 {
				errs <- fmt.Errorf("seed %d: status %d: %s", seed, status, body)
				return
			}
			errs <- nil
		}(int64(i + 1))
	}
	for i := 0; i < 50; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if snap := getStats(t, ts.URL); snap.QuotaRejections != 0 {
		t.Errorf("quota_rejections = %d with no quota configured", snap.QuotaRejections)
	}
}
