// Command fupermod-verify runs the partitioner verification suite: seeded
// generators produce synthetic heterogeneous platforms in every speed-
// function shape that matters (smooth, noisy, non-monotonic, plateaued,
// GPU-cliff), and the suite asserts the invariants the partitioning
// algorithms promise — Σ dᵢ = D exactly, non-negative parts, predicted-
// makespan optimality against a brute-force oracle for small D, and
// cross-algorithm/differential agreement where theory requires it.
//
// The command prints a per-section report and exits non-zero if any
// invariant is violated, so it can gate CI.
//
// With -store-dir, the command instead audits an on-disk model store (the
// directory fupermod-serve and fupermod-bench spill sweeps into): every
// file is integrity-checked and every preset-device entry is replayed —
// virtual sweeps are deterministic, so stored and replayed points must
// match exactly. Corrupt or divergent entries fail the audit.
//
// Usage:
//
//	fupermod-verify -seed 1
//	fupermod-verify -seed 42 -rounds 8 -oracle-max-d 30
//	fupermod-verify -store-dir /var/lib/fupermod/store
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fupermod/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "fupermod-verify:", err)
		os.Exit(1)
	}
}

// errViolations distinguishes a failed verification from a usage error.
var errViolations = errors.New("verification failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fupermod-verify", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		seed     = fs.Int64("seed", 1, "seed of the platform generators (equal seeds run equal suites)")
		rounds   = fs.Int("rounds", 4, "random platforms per suite section")
		oracleD  = fs.Int("oracle-max-d", 24, "largest problem size of the brute-force optimality checks")
		relTol   = fs.Float64("oracle-tol", 0.05, "relative makespan slack against the oracle (integer rounding)")
		quick    = fs.Bool("quick", false, "skip the dynamic differential section (the slowest one)")
		workers  = fs.Int("workers", 0, "concurrent checks (0 = GOMAXPROCS); the report is identical for every worker count")
		storeDir = fs.String("store-dir", "", "audit this model store directory instead of running the suite")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *storeDir != "" {
		audit, err := verify.AuditStore(*storeDir)
		if err != nil {
			return err
		}
		if _, err := audit.WriteTo(stdout); err != nil {
			return err
		}
		if !audit.OK() {
			return fmt.Errorf("%w: %d corrupt entries, %d divergent entries",
				errViolations, len(audit.Corrupt), len(audit.Violations))
		}
		return nil
	}
	report, err := verify.Run(verify.Options{
		Seed:         *seed,
		Rounds:       *rounds,
		OracleD:      *oracleD,
		OracleRelTol: *relTol,
		SkipDynamic:  *quick,
		Workers:      *workers,
	})
	if err != nil {
		return err
	}
	if _, err := report.WriteTo(stdout); err != nil {
		return err
	}
	if !report.OK() {
		return fmt.Errorf("%w: %d of %d checks", errViolations, len(report.Violations), report.Checks())
	}
	return nil
}
