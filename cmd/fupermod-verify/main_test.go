package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunHelp(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-h"}, &sb)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("want flag.ErrHelp, got %v", err)
	}
	if !strings.Contains(sb.String(), "-seed") {
		t.Errorf("usage should list -seed:\n%s", sb.String())
	}
}

func TestRunFlagError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-no-such-flag"}, &sb); err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("unknown flag should error, got %v", err)
	}
	if err := run([]string{"stray-arg"}, &sb); err == nil {
		t.Fatal("stray positional argument should error")
	}
}

func TestRunSeedOne(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-seed", "1", "-rounds", "2"}, &sb); err != nil {
		t.Fatalf("seed-1 suite should pass: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"partitioner verification suite (seed 1)", "invariants", "oracle", "diff-dynamic", "all"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunQuickSkipsDynamic(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-seed", "2", "-rounds", "1", "-quick"}, &sb); err != nil {
		t.Fatalf("quick suite should pass: %v\n%s", err, sb.String())
	}
	if strings.Contains(sb.String(), "diff-dynamic") {
		t.Errorf("-quick should skip the dynamic section:\n%s", sb.String())
	}
}

// TestRunStoreAudit: -store-dir switches the command into store-audit
// mode — an empty store passes trivially, a store holding a corrupt file
// fails the run with a violation summary.
func TestRunStoreAudit(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-store-dir", dir}, &sb); err != nil {
		t.Fatalf("empty store should audit clean: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "model store audit") {
		t.Errorf("missing audit table:\n%s", sb.String())
	}

	if err := os.WriteFile(filepath.Join(dir, "torn.points"), []byte("# store: x\n1 2"), 0o644); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	err := run([]string{"-store-dir", dir}, &sb)
	if err == nil || !errors.Is(err, errViolations) {
		t.Fatalf("corrupt store should fail the audit, got %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "corrupt") {
		t.Errorf("report missing the corrupt file:\n%s", sb.String())
	}
}

// TestRunStoreAuditMissingDir: auditing a directory that does not exist
// fails the run and creates nothing.
func TestRunStoreAuditMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "no", "such", "dir")
	var sb strings.Builder
	err := run([]string{"-store-dir", dir}, &sb)
	if err == nil || errors.Is(err, errViolations) {
		t.Fatalf("audit of a missing store: err = %v, want a store error\n%s", err, sb.String())
	}
	if strings.Contains(sb.String(), "store intact") {
		t.Errorf("a missing store was reported intact:\n%s", sb.String())
	}
	if _, err := os.Stat(filepath.Dir(filepath.Dir(dir))); !os.IsNotExist(err) {
		t.Fatalf("the audit created directories toward %s (stat err %v)", dir, err)
	}
}

// TestRunWorkersDeterministic pins the -workers flag: the verification
// report must be byte-identical at any worker count.
func TestRunWorkersDeterministic(t *testing.T) {
	report := func(workers string) string {
		var sb strings.Builder
		if err := run([]string{"-seed", "3", "-rounds", "1", "-quick", "-workers", workers}, &sb); err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, sb.String())
		}
		return sb.String()
	}
	serial := report("1")
	for _, w := range []string{"2", "8", "0"} {
		if got := report(w); got != serial {
			t.Errorf("workers=%s report differs from serial:\n%s\nvs\n%s", w, got, serial)
		}
	}
}
