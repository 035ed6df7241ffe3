package service

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fupermod/internal/model"
)

// fuzzKey maps one opcode byte to a small key space: collisions between
// operations are the point — the fuzzer interleaves fills, evictions,
// spills and truncations over the same few keys.
func fuzzKey(b byte) ModelKey {
	devices := []string{"fast", "slow"}
	kinds := []string{model.KindPiecewise, model.KindConstant}
	return ModelKey{
		Device: devices[int(b>>1)%len(devices)],
		Seed:   int64(b >> 4 & 3),
		Noise:  0,
		Lo:     16, Hi: 500, N: 4,
		Model: kinds[int(b)%len(kinds)],
	}
}

// FuzzCacheStore drives random interleavings of getModel, cache eviction
// pressure, store-file truncation and store reload over a tiny key space,
// under the race detector in CI. Invariants:
//
//   - no operation panics, whatever the interleaving;
//   - concurrent getModel calls for one key agree exactly (single-flight,
//     and deterministic fills even after eviction or a store round trip);
//   - a torn store file is never served: it surfaces as a clean re-sweep
//     whose points equal the original sweep's, byte for byte.
func FuzzCacheStore(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x10, 0x41, 0x10})       // fill, truncate, refill
	f.Add([]byte{0x00, 0x21, 0x42, 0x63}) // distinct keys: eviction pressure
	f.Add([]byte{0x03, 0x03, 0x13, 0x13}) // repeated keys: single-flight
	f.Add([]byte{0x10, 0x44, 0x10, 0x44, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 24 {
			data = data[:24]
		}
		dir := t.TempDir()
		svc, err := New(Config{Workers: 2, CacheSize: 2, BatchWindow: -1, StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()

		// canonical holds the agreed sweep per key, fixed by whichever
		// fill completes first; every later fill must reproduce it.
		var canonMu sync.Mutex
		canonical := map[ModelKey][]PointPayload{}
		check := func(key ModelKey) {
			m, err := svc.getModel("fuzz", key)
			if err != nil {
				t.Errorf("getModel(%v): %v", key, err)
				return
			}
			got := pointPayloads(m.Points())
			canonMu.Lock()
			defer canonMu.Unlock()
			want, ok := canonical[key]
			if !ok {
				canonical[key] = got
				return
			}
			if len(got) != len(want) {
				t.Errorf("key %v: %d points, want %d", key, len(got), len(want))
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("key %v point %d: %+v != %+v", key, i, got[i], want[i])
				}
			}
		}

		var wg sync.WaitGroup
		for _, op := range data {
			switch op & 0x03 {
			case 0, 1: // concurrent fills of the same key (single-flight)
				key := fuzzKey(op)
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						check(key)
					}()
				}
			case 2: // truncate one store file mid-flight (torn write)
				files, _ := filepath.Glob(filepath.Join(dir, "*.points"))
				if len(files) > 0 {
					path := files[int(op>>2)%len(files)]
					if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
						cut := int(op>>2) % len(data)
						// Ignore write errors: racing a concurrent heal is
						// part of the interleavings under test.
						_ = os.WriteFile(path, data[:cut], 0o644)
					}
				}
			case 3: // reload: an independent server over the same store
				wg.Wait() // writers quiesce so the reload sees settled files
				svc2, err := New(Config{Workers: 1, CacheSize: 2, BatchWindow: -1, StoreDir: dir})
				if err != nil {
					t.Fatalf("reload: %v", err)
				}
				m, err := svc2.getModel("fuzz", fuzzKey(op))
				var n int
				if err == nil {
					n = len(m.Points())
				}
				if err != nil || n == 0 {
					t.Errorf("reloaded getModel: %d points, err %v", n, err)
				}
				svc2.Close()
			}
		}
		wg.Wait()

		// Every stored entry is either intact or detected-corrupt — Load
		// must never hand back partial data (count mismatch would fail the
		// trailer check and land in corrupt).
		entries, _, err := svc.store.Load()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if len(e.Points) == 0 {
				t.Errorf("store served an empty entry for %v", e.Key)
			}
		}
	})
}
