package service

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fupermod/internal/model"
	"fupermod/internal/platform"
)

// TestFillPanicReleasesKey: a cache fill that panics answers its caller
// with a clean error, leaves no entry behind — the next request for the
// key fills afresh — and gives the tenant's quota slot back.
func TestFillPanicReleasesKey(t *testing.T) {
	svc, err := New(Config{QuotaSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	const tenant = "panicky"
	sh, err := svc.shardFor(tenant)
	if err != nil {
		t.Fatal(err)
	}
	// An uploaded machine whose only device is nil: its ref resolves, and
	// measuring it panics.
	machine := &tenantMachines{current: "nil", byFP: map[string][]platform.Device{"nil": {nil}}}
	sh.machineMu.Lock()
	sh.machines[tenant] = machine
	sh.machineMu.Unlock()
	mkey := func(device string) ModelKey {
		return ModelKey{Device: device, Seed: 1, Lo: testGrid.Lo, Hi: testGrid.Hi, N: testGrid.N, Model: model.KindPiecewise}
	}
	// lookup runs one cache lookup with a bounded wait; a panic that
	// escapes it comes back as an error.
	lookup := func(key ModelKey) (int, error) {
		type result struct {
			points int
			err    error
		}
		done := make(chan result, 1)
		go func() {
			var r result
			defer func() {
				if p := recover(); p != nil {
					r.err = fmt.Errorf("escaped panic: %v", p)
				}
				done <- r
			}()
			_, pts, err := svc.getModel(tenant, key)
			r.points, r.err = len(pts), err
		}()
		select {
		case r := <-done:
			return r.points, r.err
		case <-time.After(5 * time.Second):
			t.Fatalf("lookup of %v still blocked after 5 s", key)
			return 0, nil
		}
	}

	broken := mkey("machine:nil/0")
	for i := 1; i <= 2; i++ {
		if n, err := lookup(broken); err == nil || strings.HasPrefix(err.Error(), "escaped") {
			t.Errorf("lookup %d of a key whose fill panics: %d points, err %v; want the panic as a clean error", i, n, err)
		}
	}
	if misses := sh.stats.counters().CacheMisses; misses != 2 {
		t.Errorf("two lookups of the key ran %d fills, want 2: a failed fill must not stay cached", misses)
	}
	// One quota slot: a slot the panics leaked would make this a 429.
	if n, err := lookup(mkey("fast")); err != nil || n == 0 {
		t.Errorf("lookup of another key: %d points, err %v; want the tenant's quota slot back", n, err)
	}
	// Mend the device: the same key now fills.
	dev, err := platform.Preset("fast")
	if err != nil {
		t.Fatal(err)
	}
	sh.machineMu.Lock()
	machine.byFP["nil"] = []platform.Device{dev}
	sh.machineMu.Unlock()
	if n, err := lookup(broken); err != nil || n == 0 {
		t.Errorf("lookup of the mended key: %d points, err %v", n, err)
	}
}
