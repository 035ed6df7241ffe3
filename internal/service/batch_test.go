package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"fupermod/internal/model"
)

// TestBatchedPanicWakesFollowers: a batch leader whose run panics must
// still publish the batch. Every follower that joined it returns the
// recovered panic as an error instead of blocking until the server shuts
// down.
func TestBatchedPanicWakesFollowers(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	const key, followers = "test|panicking-run", 4
	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, followers+1)
	go func() {
		errs <- batchedRecovering(svc, key, func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()

	// Followers join while the leader is inside its run.
	<-started
	for i := 0; i < followers; i++ {
		go func() {
			errs <- batchedRecovering(svc, key, func() (any, error) {
				return nil, errors.New("a follower ran instead of joining")
			})
		}()
	}
	waitUntil(t, "the followers to join", func() bool { return svc.stats.BatchJoined.Load() == followers })
	close(release)

	deadline := time.After(5 * time.Second)
	for i := 0; i < followers+1; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Errorf("caller %d: err = %v, want the recovered panic", i, err)
			}
		case <-deadline:
			t.Fatalf("%d of %d callers still blocked on a batch whose run panicked",
				followers+1-i, followers+1)
		}
	}
	if joined := svc.stats.BatchJoined.Load(); joined != followers {
		t.Errorf("%d callers joined the batch, want %d", joined, followers)
	}
}

// batchedRecovering calls s.batched and turns a panic that escapes it into
// an error, so an uncontained leader panic fails the test instead of
// crashing the test binary.
func batchedRecovering(s *Server, key string, run func() (any, error)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("escaped panic: %v", r)
		}
	}()
	_, err = s.batched(key, run)
	return err
}

// TestBatchKeyTenantUnambiguous: a tenant holding "|" and a model key
// cannot pass for another tenant with one more device. Each pair of
// requests below wrote the same key when the tenant went in unescaped.
func TestBatchKeyTenantUnambiguous(t *testing.T) {
	k1 := ModelKey{Device: "fast", Seed: 1, Lo: 16, Hi: 2000, N: 8, Model: model.KindPiecewise}
	k2 := ModelKey{Device: "slow", Seed: 2, Lo: 16, Hi: 2000, N: 8, Model: model.KindPiecewise}
	type req struct {
		tenant string
		keys   []ModelKey
	}
	for _, c := range []struct {
		name string
		a, b req
	}{
		{"one device folded into the tenant", req{"t|" + k1.String(), []ModelKey{k2}}, req{"t", []ModelKey{k1, k2}}},
		{"two devices folded into the tenant", req{"t|" + k1.String() + "|" + k2.String(), nil}, req{"t", []ModelKey{k1, k2}}},
		{"a tenant ending in a separator", req{"t|", []ModelKey{k1}}, req{"t", nil}},
		{"an empty tenant", req{"", []ModelKey{k1}}, req{k1.String(), nil}},
	} {
		a := BatchKey("part", c.a.tenant, c.a.keys, "geometric", 100, "")
		b := BatchKey("part", c.b.tenant, c.b.keys, "geometric", 100, "")
		if a == b {
			t.Errorf("%s: tenants %q and %q share the batch key %q", c.name, c.a.tenant, c.b.tenant, a)
		}
	}
}

// TestBatchKeyAllocationBudget: a batch key over 8 model keys is built in
// one buffer, with no formatting per key.
func TestBatchKeyAllocationBudget(t *testing.T) {
	keys := make([]ModelKey, 8)
	for i := range keys {
		keys[i] = ModelKey{Device: "netlib-blas", Seed: int64(i + 1), Noise: 0.02, Lo: 16, Hi: 60000, N: 40, Model: model.KindPiecewise}
	}
	allocs := testing.AllocsPerRun(100, func() { _ = BatchKey("part", "tenant-a", keys, "geometric", 100000, "") })
	if allocs > 2 {
		t.Errorf("BatchKey over 8 keys allocates %v times, budget 2", allocs)
	}
}

// TestCrossTenantPartitionsKeepTheirBatches: tenant "t|<key of device 1>"
// asking for device 2 and tenant "t" asking for devices 1 and 2 are in
// flight together, behind a plugged pool with both caches warm. Each gets
// its own answer, and neither joins the other's batch.
func TestCrossTenantPartitionsKeepTheirBatches(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	grid := testGrid
	dev1, dev2 := DeviceSpec{Preset: "fast", Seed: 1}, DeviceSpec{Preset: "slow", Seed: 2}
	k1, err := keyOf(dev1, grid, "")
	if err != nil {
		t.Fatal(err)
	}
	one := PartitionRequest{Tenant: "t|" + k1.String(), Devices: []DeviceSpec{dev2}, Grid: grid, D: 5000}
	two := PartitionRequest{Tenant: "t", Devices: []DeviceSpec{dev1, dev2}, Grid: grid, D: 5000}
	want := map[string][]byte{}
	for _, req := range []PartitionRequest{one, two} {
		status, body := postJSON(t, ts.URL+"/v1/partition", req)
		if status != http.StatusOK {
			t.Fatalf("tenant %q: warm-up status %d: %s", req.Tenant, status, body)
		}
		want[req.Tenant] = body
	}
	before := getStats(t, ts.URL)
	unplug := plugPool(t, svc)
	answers := map[string]chan answer{one.Tenant: make(chan answer, 1), two.Tenant: make(chan answer, 1)}
	go postFrom(t, ts.URL+"/v1/partition", one, answers[one.Tenant])
	go postFrom(t, ts.URL+"/v1/partition", two, answers[two.Tenant])
	waitBatched(t, 2)
	unplug()
	for _, req := range []PartitionRequest{one, two} {
		got := <-answers[req.Tenant]
		if got.status != http.StatusOK {
			t.Fatalf("tenant %q: status %d: %s", req.Tenant, got.status, got.body)
		}
		var resp PartitionResponse
		if err := json.Unmarshal(got.body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Parts) != len(req.Devices) || !bytes.Equal(got.body, want[req.Tenant]) {
			t.Errorf("tenant %q asked for %d devices and got another answer: %s", req.Tenant, len(req.Devices), got.body)
		}
	}
	if joined := getStats(t, ts.URL).BatchJoined - before.BatchJoined; joined != 0 {
		t.Errorf("batch_joined rose by %d, want 0", joined)
	}
}
