package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/model"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/verify"
)

func TestRunHelp(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-h"}, &sb); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("want flag.ErrHelp, got %v", err)
	}
	if !strings.Contains(sb.String(), "-kernel") {
		t.Errorf("usage should list -kernel:\n%s", sb.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &sb); err == nil || errors.Is(err, flag.ErrHelp) {
		t.Errorf("unknown flag should error, got %v", err)
	}
	if err := run([]string{"-kernel", "warp-drive"}, &sb); err == nil {
		t.Error("unknown kernel family should error")
	}
	if err := run([]string{"-device", "no-such-preset"}, &sb); err == nil {
		t.Error("unknown device preset should error")
	}
	if err := run([]string{"-lo", "100", "-hi", "10", "-noise", "0"}, &sb); err == nil {
		t.Error("inverted size grid should error")
	}
	// Transfer options: non-positive values and inconsistent combinations
	// are usage errors, validated whichever mode runs.
	for _, args := range [][]string{
		{"-transfer"}, // no store to draw donors from
		{"-transfer-probes", "0"},
		{"-transfer-probes", "-2"},
		{"-transfer-budget", "-1"},
		{"-transfer-tol", "0"},
		{"-transfer-tol", "-0.1"},
		{"-transfer", "-store-dir", t.TempDir(), "-machine", "nope.machine"},
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded, want usage error", args)
		}
	}
}

func TestRunHelpDevices(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-help-devices"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "netlib-blas") {
		t.Errorf("preset listing should include netlib-blas:\n%s", sb.String())
	}
}

func TestRunHappyPathStdout(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-kernel", "virtual", "-device", "netlib-blas",
		"-lo", "16", "-hi", "64", "-n", "3", "-noise", "0",
		"-min-reps", "1", "-max-reps", "1"}, &buf)
	if err != nil {
		t.Fatalf("happy path failed: %v", err)
	}
	pf, err := model.ReadPoints(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("output is not a valid points file: %v\n%s", err, buf.String())
	}
	if len(pf.Points) != 3 {
		t.Errorf("measured %d points, want 3", len(pf.Points))
	}
}

func TestRunHappyPathFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dev.points")
	var sb strings.Builder
	err := run([]string{"-kernel", "virtual", "-device", "netlib-blas",
		"-lo", "16", "-hi", "128", "-n", "4", "-noise", "0",
		"-min-reps", "1", "-max-reps", "1", "-o", out}, &sb)
	if err != nil {
		t.Fatalf("happy path failed: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pf, err := model.ReadPoints(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Points) != 4 || pf.Device != "netlib-blas" {
		t.Errorf("points file: %d points, device %q", len(pf.Points), pf.Device)
	}
}

// TestRunStoreRoundTrip: with -store-dir, the first run spills its sweep
// into the serve-compatible model store and later runs serve from it. The
// reuse is proven by doctoring the stored entry — the second run must emit
// the doctored numbers, so they can only have come from the store.
func TestRunStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := func() []string {
		return []string{"-kernel", "virtual", "-device", "netlib-blas",
			"-lo", "16", "-hi", "64", "-n", "3", "-noise", "0",
			"-min-reps", "1", "-max-reps", "1", "-store-dir", dir}
	}
	var first bytes.Buffer
	if err := run(args(), &first); err != nil {
		t.Fatal(err)
	}

	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := modelstore.Key{
		Tenant: "default", Device: "netlib-blas",
		Seed: 1, Noise: 0, Lo: 16, Hi: 64, N: 3,
		Prec: modelstore.EncodePrecision(core.Precision{
			MinReps: 1, MaxReps: 1, Confidence: 0.95, RelErr: 0.03, MaxSeconds: 300,
		}),
	}
	ent, ok, err := store.Get(key)
	if err != nil || !ok {
		t.Fatalf("first run did not spill under the expected key: ok=%v err=%v", ok, err)
	}
	ent.Points[0].Time = 123.5
	if err := store.Put(key, ent.Kernel, ent.Points); err != nil {
		t.Fatal(err)
	}

	var second bytes.Buffer
	if err := run(args(), &second); err != nil {
		t.Fatal(err)
	}
	pf, err := model.ReadPoints(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if pf.Points[0].Time != 123.5 {
		t.Errorf("second run re-measured (t=%g) instead of serving the stored sweep", pf.Points[0].Time)
	}

	// A different seed is a different key: it must measure, not reuse.
	var other bytes.Buffer
	if err := run(append(args(), "-seed", "2"), &other); err != nil {
		t.Fatal(err)
	}
	if opf, err := model.ReadPoints(bytes.NewReader(other.Bytes())); err != nil {
		t.Fatal(err)
	} else if opf.Points[0].Time == 123.5 {
		t.Error("seed 2 served seed 1's stored sweep")
	}
}

// TestRunStoreHealsCorruptEntry: a torn store file is re-measured, not
// served, and the fresh spill heals it.
func TestRunStoreHealsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-kernel", "virtual", "-device", "netlib-blas",
		"-lo", "16", "-hi", "64", "-n", "3", "-noise", "0",
		"-min-reps", "1", "-max-reps", "1", "-store-dir", dir}
	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.points"))
	if err != nil || len(files) != 1 {
		t.Fatalf("store files: %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if second.String() != first.String() {
		t.Errorf("re-measure after torn entry diverged:\n%s\nvs\n%s", second.String(), first.String())
	}
	healed, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, data) {
		t.Error("fresh spill did not heal the torn entry")
	}
}

// TestRunTransferWarmStart: a full-sweep run seeds the store; a second run
// under a different key with -transfer must warm-start from it, spill the
// synthesized points with provenance, and still emit a full-grid points
// file.
func TestRunTransferWarmStart(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-kernel", "virtual", "-device", "fast",
		"-lo", "16", "-hi", "60000", "-n", "40", "-noise", "0",
		"-min-reps", "1", "-max-reps", "1", "-store-dir", dir}
	var donor bytes.Buffer
	if err := run(base, &donor); err != nil {
		t.Fatal(err)
	}

	var warm bytes.Buffer
	if err := run(append(append([]string{}, base...), "-seed", "2", "-transfer"), &warm); err != nil {
		t.Fatal(err)
	}
	pf, err := model.ReadPoints(bytes.NewReader(warm.Bytes()))
	if err != nil {
		t.Fatalf("transferred output is not a valid points file: %v", err)
	}
	if len(pf.Points) != 40 {
		t.Errorf("transferred run emitted %d points, want the full 40-size grid", len(pf.Points))
	}

	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := modelstore.Key{
		Tenant: "default", Device: "fast",
		Seed: 2, Noise: 0, Lo: 16, Hi: 60000, N: 40,
		Prec: modelstore.EncodePrecision(core.Precision{
			MinReps: 1, MaxReps: 1, Confidence: 0.95, RelErr: 0.03, MaxSeconds: 300,
		}),
	}
	ent, ok, err := store.Get(key)
	if err != nil || !ok {
		t.Fatalf("warm run did not spill: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(ent.Transfer, "donor=") || !strings.Contains(ent.Transfer, "probes=") {
		t.Errorf("spilled entry provenance %q should name the donor and probe count", ent.Transfer)
	}
	measured := 0
	for _, p := range ent.Points {
		if p.Reps > 0 {
			measured++
		}
	}
	if measured == 0 || measured > 10 {
		t.Errorf("transfer benchmarked %d sizes, want 1..10 (a quarter of the grid)", measured)
	}
}

// TestRunTransferEmptyStoreFallsBack: with nothing to warm-start from, a
// -transfer run must produce byte-identical output to a plain run — the
// fallback sweep runs on a pristine kernel.
func TestRunTransferEmptyStoreFallsBack(t *testing.T) {
	base := []string{"-kernel", "virtual", "-device", "fast",
		"-lo", "16", "-hi", "60000", "-n", "40", "-noise", "0.05",
		"-min-reps", "1", "-max-reps", "1"}
	var plain bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	var fell bytes.Buffer
	if err := run(append(append([]string{}, base...), "-store-dir", t.TempDir(), "-transfer"), &fell); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fell.Bytes(), plain.Bytes()) {
		t.Errorf("empty-store fallback diverged from a plain run:\n%s\nvs\n%s", fell.String(), plain.String())
	}
}

func TestRunStoreRejectsRealKernels(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-kernel", "gemm", "-store-dir", t.TempDir(),
		"-lo", "4", "-hi", "8", "-n", "2", "-min-reps", "1", "-max-reps", "1"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "virtual") {
		t.Errorf("-store-dir with a real kernel: err = %v, want virtual-only error", err)
	}
}

// TestRunWorkersDeterministic pins the -workers flag: a sweep must produce
// byte-identical points files at any worker count — noiseless sweeps
// because every measurement is exact, noisy ones because they are swept
// serially whatever -workers says.
func TestRunWorkersDeterministic(t *testing.T) {
	for _, noise := range []string{"0", "0.05"} {
		sweep := func(workers string) string {
			var buf bytes.Buffer
			err := run([]string{"-kernel", "virtual", "-device", "fast",
				"-lo", "16", "-hi", "60000", "-n", "40", "-noise", noise,
				"-min-reps", "1", "-max-reps", "1", "-workers", workers}, &buf)
			if err != nil {
				t.Fatalf("noise=%s workers=%s: %v", noise, workers, err)
			}
			return buf.String()
		}
		serial := sweep("1")
		for _, w := range []string{"2", "4", "8", "0"} {
			if got := sweep(w); got != serial {
				t.Errorf("noise=%s workers=%s output differs from serial:\n%s\nvs\n%s", noise, w, got, serial)
			}
		}
	}
}

// TestRunNoisyStoreEntryPassesAudit: a noisy sweep spilled by a parallel
// -workers run must replay exactly under the store audit, which re-measures
// every entry serially.
func TestRunNoisyStoreEntryPassesAudit(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-kernel", "virtual", "-device", "fast",
		"-lo", "16", "-hi", "60000", "-n", "40", "-noise", "0.05",
		"-min-reps", "1", "-max-reps", "1", "-workers", "4", "-store-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	audit, err := verify.AuditStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if audit.Verified != 1 || len(audit.Violations) != 0 {
		t.Fatalf("audit: %d verified, %d violations", audit.Verified, len(audit.Violations))
	}
}
