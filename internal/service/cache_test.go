package service

import (
	"fmt"
	"math"
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
	// An uploaded machine whose only device is nil: its ref resolves, and
	// measuring it panics.
	machine := &tenantMachines{current: "nil", byFP: map[string][]platform.Device{"nil": {nil}}}
	svc.machineMu.Lock()
	svc.machines[tenant] = machine
	svc.machineMu.Unlock()
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
			m, err := svc.getModel(tenant, key)
			if r.err = err; err == nil {
				r.points = len(m.Points())
			}
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
	if misses := svc.stats.counters().CacheMisses; misses != 2 {
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
	svc.machineMu.Lock()
	machine.byFP["nil"] = []platform.Device{dev}
	svc.machineMu.Unlock()
	if n, err := lookup(broken); err != nil || n == 0 {
		t.Errorf("lookup of the mended key: %d points, err %v", n, err)
	}
}

// modelKeyRef is ModelKey.String's fmt form, the reference its bytes are
// pinned to.
func modelKeyRef(k ModelKey) string {
	return fmt.Sprintf("%s/seed=%d/noise=%g/grid=%d:%d:%d/%s",
		k.Device, k.Seed, k.Noise, k.Lo, k.Hi, k.N, k.Model)
}

// TestModelKeyStringMatchesRef pins ModelKey.String's bytes to its fmt
// form over edge keys: noise levels that print in exponent form or round,
// extreme seeds and grids, machine devices, and names fmt passes through
// unescaped.
func TestModelKeyStringMatchesRef(t *testing.T) {
	base := ModelKey{Device: "fast", Seed: 7, Noise: 0.02, Lo: 16, Hi: 5000, N: 20, Model: model.KindPiecewise}
	tests := []struct {
		name string
		edit func(*ModelKey)
	}{
		{"plain", func(*ModelKey) {}},
		{"noise 0", func(k *ModelKey) { k.Noise = 0 }},
		{"noise 0.1", func(k *ModelKey) { k.Noise = 0.1 }},
		{"noise 1e-7", func(k *ModelKey) { k.Noise = 1e-7 }},
		{"noise 5e-324", func(k *ModelKey) { k.Noise = 5e-324 }},
		{"noise 1e21", func(k *ModelKey) { k.Noise = 1e21 }},
		{"noise -0", func(k *ModelKey) { k.Noise = math.Copysign(0, -1) }},
		{"negative seed", func(k *ModelKey) { k.Seed = -3 }},
		{"minimum seed", func(k *ModelKey) { k.Seed = math.MinInt64 }},
		{"maximum seed", func(k *ModelKey) { k.Seed = math.MaxInt64 }},
		{"maximum grid", func(k *ModelKey) { k.Lo, k.Hi, k.N = 1, math.MaxInt, math.MaxInt }},
		{"machine device", func(k *ModelKey) { k.Device = "machine:3f2a9c01d4e5b6a7/12" }},
		{"unescaped names", func(k *ModelKey) { k.Device, k.Model = "machine:é/0?x=#|%", "fpm akima" }},
		{"long fields", func(k *ModelKey) { k.Device = strings.Repeat("d/", 100) }},
	}
	for _, tc := range tests {
		k := base
		tc.edit(&k)
		if got, want := k.String(), modelKeyRef(k); got != want {
			t.Errorf("%s: String = %q, want %q", tc.name, got, want)
		}
	}
}
