package partition_test

import (
	"math/rand"
	"testing"

	"fupermod/internal/partition"
	"fupermod/internal/verify"
)

// TestWithOverheadMatchesCommInclusiveOracle checks the overhead wrapper
// against a communication-inclusive ground truth: partitioning the
// wrapped models must land within rounding slack of the DP oracle run on
// the *total* per-iteration time (compute plus α + β·d traffic). The
// oracle sees exactly the functions the partitioner balances, so any
// wrapper bug — dropped overhead, sign error, broken delegation — shows
// up as a makespan gap.
func TestWithOverheadMatchesCommInclusiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(3)
		procs := verify.NewGen(int64(100+trial)).Platform(n, verify.MonotoneShapes()...)
		models := verify.ExactModels(procs)
		overheads := make([]func(d float64) float64, n)
		for i := range overheads {
			// Heterogeneous linear communication costs α + β·d: some ranks
			// pay an order of magnitude more per unit than others, as on a
			// hierarchical network with remote and local ranks.
			alpha := rng.Float64() * 0.5
			beta := rng.Float64() * 0.02
			overheads[i] = func(d float64) float64 { return alpha + beta*d }
		}
		wrapped, err := partition.WithOverhead(models, overheads)
		if err != nil {
			t.Fatal(err)
		}
		D := 200 + rng.Intn(1800)
		dist, err := partition.Geometric().Partition(wrapped, D)
		if err != nil {
			t.Fatalf("trial %d D=%d: %v", trial, D, err)
		}
		vs, err := verify.CheckOptimal("geometric+overhead", wrapped, D, dist, 0.05)
		if err != nil {
			t.Fatalf("trial %d D=%d: oracle: %v", trial, D, err)
		}
		for _, v := range vs {
			t.Errorf("trial %d: %s: %s", trial, v.Check, v.Detail)
		}
	}
}

// TestWithOverheadBeatsComputeOnlyPartition demonstrates why the wrapper
// exists: when overheads are strongly heterogeneous, balancing compute
// only and then paying communication produces a worse total makespan than
// balancing the communication-inclusive models. The comparison uses the
// same total-time yardstick for both distributions, so it is a pure
// differential on the partitioning decision.
func TestWithOverheadBeatsComputeOnlyPartition(t *testing.T) {
	procs := verify.NewGen(7).Platform(4, verify.ShapeConstant)
	models := verify.ExactModels(procs)
	overheads := make([]func(d float64) float64, len(models))
	for i := range overheads {
		// Rank 0 is the remote rank: it pays a steep per-unit traffic cost
		// that compute-only balancing cannot see.
		beta := 0.0001
		if i == 0 {
			beta = 0.05
		}
		overheads[i] = func(d float64) float64 { return beta * d }
	}
	wrapped, err := partition.WithOverhead(models, overheads)
	if err != nil {
		t.Fatal(err)
	}
	const D = 5000
	aware, err := partition.Geometric().Partition(wrapped, D)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := partition.Geometric().Partition(models, D)
	if err != nil {
		t.Fatal(err)
	}
	awareTotal, err := verify.Makespan(wrapped, aware.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	blindTotal, err := verify.Makespan(wrapped, blind.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if !(awareTotal < blindTotal) {
		t.Fatalf("overhead-aware partition %v (total makespan %g) does not beat compute-only %v (%g)",
			aware.Sizes(), awareTotal, blind.Sizes(), blindTotal)
	}
}
