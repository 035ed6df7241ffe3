package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fupermod/internal/model"
	"fupermod/internal/pool"
)

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// answer is one HTTP response: its status and body.
type answer struct {
	status int
	body   []byte
}

// postFrom posts req to url and sends the answer on out. It runs on its
// own goroutine, so it reports a transport failure with t.Error and sends
// a zero answer.
func postFrom(t *testing.T, url string, req any, out chan<- answer) {
	resp, err := postRaw(url, req)
	if err != nil {
		t.Error(err)
		out <- answer{}
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	out <- answer{resp.StatusCode, body}
}

// modified returns a deep copy of req, made through its JSON form, with f
// applied.
func modified[R any](req R, f func(*R)) R {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	var c R
	if err := json.Unmarshal(b, &c); err != nil {
		panic(err)
	}
	f(&c)
	return c
}

// TestReplayOpsBatchOnNormalisedRequest: the replay ops — dynpart,
// balance, rebalance, matpart — batch on their normalised request. Two
// requests that differ only in spelling (the empty tenant against
// "default", an omitted default against the explicit one, a bare machine
// ref against its pinned form) share one batch; changing any one field
// that shapes the answer gives a batch of its own.
func TestReplayOpsBatchOnNormalisedRequest(t *testing.T) {
	type pair struct {
		name  string
		a, b  any
		share bool
	}
	dyn := DynpartRequest{Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}}, D: 3000}
	dynWith := func(f func(*DynpartRequest)) DynpartRequest { return modified(dyn, f) }
	onMachine := func(ref string) DynpartRequest {
		return dynWith(func(r *DynpartRequest) { r.Tenant, r.Devices[0].Preset = "team", ref })
	}
	bal := BalanceRequest{N: 3, D: 600, Iterations: [][]float64{{1, 2, 3}, {1.5, 1.5, 2}}}
	balWith := func(f func(*BalanceRequest)) BalanceRequest { return modified(bal, f) }
	reb := rebalanceReq("")
	rebWith := func(f func(*RebalanceRequest)) RebalanceRequest { return modified(reb, f) }
	mat := matpartReq("")
	matWith := func(f func(*MatpartRequest)) MatpartRequest { return modified(mat, f) }

	ops := []struct {
		path  string
		runs  func(Snapshot) int64
		pairs []pair
	}{
		{"/v1/dynpart", func(s Snapshot) int64 { return s.DynpartRuns }, []pair{
			{"tenant", dyn, dynWith(func(r *DynpartRequest) { r.Tenant = "default" }), true},
			{"model", dyn, dynWith(func(r *DynpartRequest) { r.Model = model.KindPiecewise }), true},
			{"algorithm", dyn, dynWith(func(r *DynpartRequest) { r.Algorithm = "geometric" }), true},
			{"eps", dyn, dynWith(func(r *DynpartRequest) { r.Eps = DefaultDynEps }), true},
			{"machine ref", onMachine("machine:0"), onMachine("machine:" + machineFingerprint(testMachineText) + "/0"), true},
			{"other tenant", dyn, dynWith(func(r *DynpartRequest) { r.Tenant = "other" }), false},
			{"preset", dyn, dynWith(func(r *DynpartRequest) { r.Devices[1].Preset = "gpu" }), false},
			{"seed", dyn, dynWith(func(r *DynpartRequest) { r.Devices[0].Seed = 9 }), false},
			{"noise", dyn, dynWith(func(r *DynpartRequest) { r.Devices[1].Noise = 0.05 }), false},
			{"d", dyn, dynWith(func(r *DynpartRequest) { r.D = 3001 }), false},
			{"other model", dyn, dynWith(func(r *DynpartRequest) { r.Model = model.KindConstant }), false},
			{"other algorithm", dyn, dynWith(func(r *DynpartRequest) { r.Algorithm = "even" }), false},
			{"other eps", dyn, dynWith(func(r *DynpartRequest) { r.Eps = 0.1 }), false},
			{"max iters", dyn, dynWith(func(r *DynpartRequest) { r.MaxIters = 3 }), false},
		}},
		{"/v1/balance", func(s Snapshot) int64 { return s.BalanceRuns }, []pair{
			{"tenant", bal, balWith(func(r *BalanceRequest) { r.Tenant = "default" }), true},
			{"model", bal, balWith(func(r *BalanceRequest) { r.Model = model.KindPiecewise }), true},
			{"algorithm", bal, balWith(func(r *BalanceRequest) { r.Algorithm = "geometric" }), true},
			{"other tenant", bal, balWith(func(r *BalanceRequest) { r.Tenant = "other" }), false},
			{"d", bal, balWith(func(r *BalanceRequest) { r.D = 601 }), false},
			{"iterations", bal, balWith(func(r *BalanceRequest) { r.Iterations[1][2] = 2.5 }), false},
			{"min gain", bal, balWith(func(r *BalanceRequest) { r.MinGain = 0.1 }), false},
			{"other model", bal, balWith(func(r *BalanceRequest) { r.Model = model.KindConstant }), false},
			{"other algorithm", bal, balWith(func(r *BalanceRequest) { r.Algorithm = "even" }), false},
		}},
		{"/v1/rebalance", func(s Snapshot) int64 { return s.RebalanceRuns }, []pair{
			{"tenant", reb, rebWith(func(r *RebalanceRequest) { r.Tenant = "default" }), true},
			{"model", reb, rebWith(func(r *RebalanceRequest) { r.Model = model.KindAdaptive }), true},
			{"algorithm", reb, rebWith(func(r *RebalanceRequest) { r.Algorithm = "geometric" }), true},
			{"comm op", reb, rebWith(func(r *RebalanceRequest) { r.Comm.Op = "p2p" }), true},
			{"other tenant", reb, rebWith(func(r *RebalanceRequest) { r.Tenant = "other" }), false},
			{"units", reb, rebWith(func(r *RebalanceRequest) { r.Units = []int{1100, 900, 1000} }), false},
			{"iterations", reb, rebWith(func(r *RebalanceRequest) { r.Iterations[2][2] = 3.5 }), false},
			{"rounds", reb, rebWith(func(r *RebalanceRequest) { r.Rounds = 51 }), false},
			{"unit bytes", reb, rebWith(func(r *RebalanceRequest) { r.UnitBytes = 65 }), false},
			{"other model", reb, rebWith(func(r *RebalanceRequest) { r.Model = model.KindConstant }), false},
			{"other algorithm", reb, rebWith(func(r *RebalanceRequest) { r.Algorithm = "even" }), false},
			{"comm bytes", reb, rebWith(func(r *RebalanceRequest) { r.Comm.BytesPerUnit = 8 }), false},
			{"comm net", reb, rebWith(func(r *RebalanceRequest) { r.Comm.Net = "shared" }), false},
			{"comm model", reb, rebWith(func(r *RebalanceRequest) { r.Comm.Model = "loggp" }), false},
		}},
		{"/v1/matpart", func(s Snapshot) int64 { return s.MatpartRuns }, []pair{
			{"tenant", mat, matWith(func(r *MatpartRequest) { r.Tenant = "default" }), true},
			{"other tenant", mat, matWith(func(r *MatpartRequest) { r.Tenant = "other" }), false},
			{"areas", mat, matWith(func(r *MatpartRequest) { r.Areas[1] = 5 }), false},
			{"grid", mat, matWith(func(r *MatpartRequest) { r.Grid = 16 }), false},
		}},
	}
	for _, o := range ops {
		t.Run(strings.TrimPrefix(o.path, "/v1/"), func(t *testing.T) {
			t.Parallel()
			svc, ts := newTestServer(t, Config{BatchWindow: 250 * time.Millisecond})
			uploadMachine(t, ts.URL, "team", testMachineText)
			for _, p := range o.pairs {
				before := getStats(t, ts.URL)
				answers := make(chan answer, 2)
				go postFrom(t, ts.URL+o.path, p.a, answers)
				waitUntil(t, p.name+": the first request's batch", func() bool {
					svc.batchMu.Lock()
					defer svc.batchMu.Unlock()
					return len(svc.batches) > 0
				})
				go postFrom(t, ts.URL+o.path, p.b, answers)
				a, b := <-answers, <-answers
				if a.status != http.StatusOK || b.status != http.StatusOK {
					t.Fatalf("%s: status %d and %d: %s %s", p.name, a.status, b.status, a.body, b.body)
				}
				after := getStats(t, ts.URL)
				joined, runs := after.BatchJoined-before.BatchJoined, o.runs(after)-o.runs(before)
				if p.share && (joined != 1 || runs != 1 || !bytes.Equal(a.body, b.body)) {
					t.Errorf("%s: %d joined, %d runs, equal bytes %v; want one shared batch", p.name, joined, runs, bytes.Equal(a.body, b.body))
				}
				if !p.share && (joined != 0 || runs != 2) {
					t.Errorf("%s: %d joined, %d runs; want two batches", p.name, joined, runs)
				}
			}
		})
	}
}

// TestDynpartQuotaMetersLeaderOnly: a dynpart run sweeps, so it is metered
// like a cache fill — but only the batch leader holds a quota slot, and it
// takes the slot before its pool slot. With the leader's run parked behind
// a plugged pool, identical requests join its batch without a 429, while
// a different run from the same tenant is rejected at once with a
// Retry-After.
func TestDynpartQuotaMetersLeaderOnly(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QuotaSlots: 1, BatchWindow: 500 * time.Millisecond})
	const tenant, followers = "metered", 3
	held := func() int {
		svc.quota.mu.Lock()
		defer svc.quota.mu.Unlock()
		return svc.quota.inflight[tenant]
	}
	// Plug the only worker, so the leader waits for the pool while it
	// holds its quota slot.
	unblock, plugged := make(chan struct{}), make(chan struct{})
	plug := make(chan error, 1)
	go func() {
		plug <- pool.Do(context.Background(), svc.pool, func(context.Context) error {
			close(plugged)
			<-unblock
			return nil
		})
	}()
	<-plugged
	var once sync.Once
	unplug := func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(unplug)

	req := DynpartRequest{Tenant: tenant, Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}}, D: 3000}
	answers := make(chan answer, followers+1)
	go postFrom(t, ts.URL+"/v1/dynpart", req, answers) // the leader
	waitUntil(t, "the leader's batch", func() bool {
		svc.batchMu.Lock()
		defer svc.batchMu.Unlock()
		return len(svc.batches) == 1
	})
	for i := 0; i < followers; i++ {
		go postFrom(t, ts.URL+"/v1/dynpart", req, answers)
	}
	waitStats(t, ts.URL, func(s Snapshot) bool { return s.BatchJoined == followers }, "the followers to join")
	waitUntil(t, "the leader to take its quota slot", func() bool { return held() == 1 })

	other := req
	other.D = 4000
	resp, err := postRaw(ts.URL+"/v1/dynpart", other)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("another run while the tenant's slot is held: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive estimate", ra)
	}
	if n := held(); n != 1 {
		t.Errorf("the tenant holds %d quota slots for one leader and %d followers, want 1", n, followers)
	}

	unplug()
	if err := <-plug; err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for len(bodies) < followers+1 {
		select {
		case a := <-answers:
			if a.status != http.StatusOK {
				t.Errorf("batch member: status %d: %s", a.status, a.body)
			}
			bodies = append(bodies, a.body)
		case <-time.After(10 * time.Second):
			t.Fatalf("%d batch members still waiting", followers+1-len(bodies))
		}
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("batch member %d got different bytes", i+1)
		}
	}
	snap := getStats(t, ts.URL)
	if snap.DynpartRuns != 1 || snap.QuotaRejections != 1 {
		t.Errorf("dynpart_runs=%d quota_rejections=%d, want 1 and 1: one run for the batch, none for the rejected request",
			snap.DynpartRuns, snap.QuotaRejections)
	}
	if n := held(); n != 0 {
		t.Errorf("the tenant still holds %d quota slots after its run", n)
	}
}
