package verify

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/kernels"
	"fupermod/internal/platform"
	"fupermod/internal/service/modelstore"
)

// auditPrec keeps audit-test sweeps cheap.
var auditPrec = core.Precision{MinReps: 1, MaxReps: 1, Confidence: 0.95, RelErr: 0.05, MaxSeconds: 300}

// putSweep measures one preset device exactly like the serving stack does
// and spills the sweep under the canonical key.
func putSweep(t *testing.T, store *modelstore.Store, preset string, seed int64) modelstore.Key {
	t.Helper()
	dev, err := platform.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	meter := platform.NewMeter(dev, platform.Quiet, seed)
	k, err := kernels.NewVirtual(dev.Name(), meter, kernels.GEMMBlockFlops)
	if err != nil {
		t.Fatal(err)
	}
	key := modelstore.Key{
		Tenant: "audit", Device: preset, Seed: seed,
		Lo: 16, Hi: 500, N: 4,
		Prec: modelstore.EncodePrecision(auditPrec),
	}
	pts, err := core.Sweep(k, core.LogSizes(key.Lo, key.Hi, key.N), auditPrec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, dev.Name(), pts); err != nil {
		t.Fatal(err)
	}
	return key
}

func TestAuditStoreClean(t *testing.T) {
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	putSweep(t, store, "fast", 1)
	putSweep(t, store, "slow", 2)

	audit, err := AuditStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() || audit.Entries != 2 || audit.Verified != 2 || audit.Skipped != 0 {
		t.Errorf("clean store audit: %+v", audit)
	}
	var sb strings.Builder
	if _, err := audit.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "store intact") {
		t.Errorf("report missing intact note:\n%s", sb.String())
	}
}

// TestAuditStoreDetectsDivergence: a stored sweep that does not replay
// (here: hand-edited timings) is a violation — the audit is a real replay,
// not a format check.
func TestAuditStoreDetectsDivergence(t *testing.T) {
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := putSweep(t, store, "fast", 1)
	ent, ok, err := store.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	ent.Points[0].Time *= 2
	if err := store.Put(key, ent.Kernel, ent.Points); err != nil {
		t.Fatal(err)
	}

	audit, err := AuditStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if audit.OK() || len(audit.Violations) == 0 || audit.Verified != 0 {
		t.Errorf("doctored entry not flagged: %+v", audit)
	}
	if audit.Violations[0].Check != "store-replay" {
		t.Errorf("violation check = %q", audit.Violations[0].Check)
	}
}

func TestAuditStoreReportsCorruptAndSkipsMachines(t *testing.T) {
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := putSweep(t, store, "fast", 1)

	// A machine-device entry cannot be replayed without the upload: skipped.
	machineKey := good
	machineKey.Device = "machine:abcdef123456/0"
	ent, _, err := store.Get(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(machineKey, ent.Kernel, ent.Points); err != nil {
		t.Fatal(err)
	}

	// Tear the last entry the store appended, as a crash mid-append would.
	path := store.Path(good)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := putSweep(t, store, "slow", 2)
	if store.Path(torn) != path {
		t.Fatalf("one handle's entries should share one file: %s, %s", path, store.Path(torn))
	}
	full, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, (fi.Size()+full.Size())/2); err != nil {
		t.Fatal(err)
	}

	audit, err := AuditStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if audit.OK() {
		t.Error("audit passed over a torn entry")
	}
	if len(audit.Corrupt) != 1 || audit.Entries != 2 || audit.Verified != 1 || audit.Skipped != 1 {
		t.Errorf("audit = %+v", audit)
	}
	// Stray non-store files in the directory are reported, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "notes.points"), []byte("scratch\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if audit, err = AuditStore(dir); err != nil {
		t.Fatal(err)
	}
	if len(audit.Corrupt) != 2 {
		t.Errorf("stray file not reported corrupt: %+v", audit.Corrupt)
	}
}

// TestAuditStoreReadsDirLiterally: a store directory whose path holds glob
// metacharacters is audited like any other, not matched as a pattern.
func TestAuditStoreReadsDirLiterally(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store[1]")
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	putSweep(t, store, "fast", 1)
	audit, err := AuditStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() || audit.Entries != 1 || audit.Verified != 1 {
		t.Errorf("audit of %s = %+v, want its one entry verified", dir, audit)
	}
}

// TestAuditStoreCreatesNothing: auditing a missing directory, or a path
// that is not a directory, is an error, and leaves the filesystem as it
// was.
func TestAuditStoreCreatesNothing(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "store")
	if audit, err := AuditStore(missing); err == nil {
		t.Fatalf("audit of a missing directory = %+v, want an error", audit)
	}
	if _, err := os.Stat(filepath.Dir(filepath.Dir(missing))); !os.IsNotExist(err) {
		t.Fatalf("the audit created directories toward %s (stat err %v)", missing, err)
	}
	file := filepath.Join(t.TempDir(), "store.points")
	if err := os.WriteFile(file, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if audit, err := AuditStore(file); err == nil {
		t.Fatalf("audit of a regular file = %+v, want an error", audit)
	}
}

// TestAuditStoreRejectsNaNConfidence: the key codec accepts a NaN
// confidence, so a store file can carry one into the replay, which must
// refuse it with a clean error instead of replaying a sweep whose
// stopping test compares against NaN.
func TestAuditStoreRejectsNaNConfidence(t *testing.T) {
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := putSweep(t, store, "fast", 1)
	ent, _, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	key.Prec = "1:1:NaN:0.05:300:0"
	if err := store.Put(key, ent.Kernel, ent.Points); err != nil {
		t.Fatalf("storing a NaN-confidence key: %v", err)
	}
	audit, err := AuditStore(dir)
	if err == nil || !strings.Contains(err.Error(), "confidence NaN") {
		t.Errorf("AuditStore over a NaN-confidence entry = %+v, %v; want a confidence error", audit, err)
	}
}
