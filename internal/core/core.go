// Package core defines the FuPerMod programming interface: computation
// kernels and their measurement (the paper's fupermod_kernel,
// fupermod_benchmark, fupermod_point and fupermod_precision), computation
// performance models (fupermod_model), and data distributions
// (fupermod_dist) produced by the partitioning algorithms.
//
// The C original expresses these as structs of function pointers; here they
// are small interfaces. The workflow is unchanged from the paper §4:
//
//  1. the application programmer wraps the serial core computation of the
//     application as a Kernel and defines its computation unit;
//  2. Benchmark measures the kernel at chosen sizes with statistically
//     controlled repetition, producing Points;
//  3. a Model (package model) interpolates the points into continuous time
//     and speed functions;
//  4. a Partitioner (package partition) turns a set of models and a total
//     problem size D into a Dist assigning d_i units to each process.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Point is the result of measuring a kernel at one problem size; it mirrors
// fupermod_point.
type Point struct {
	// D is the problem size in computation units.
	D int
	// Time is the mean measured execution time in seconds.
	Time float64
	// Reps is the number of repetitions the measurement actually took.
	Reps int
	// CI is the half-width of the confidence interval of Time (0 when a
	// single repetition was made).
	CI float64
}

// Speed returns the measured speed in units per second, D/Time.
func (p Point) Speed() float64 {
	if p.Time <= 0 {
		return 0
	}
	return float64(p.D) / p.Time
}

// Validate reports whether the point is usable for modelling. A zero time
// is valid: Benchmark rejects only negative run times, so a kernel that
// completes below the clock resolution (or an infinitely fast virtual
// device) legitimately produces Time == 0 — models floor such points at a
// tiny positive time when fitting. A NaN or infinite time is not: no
// partitioner can balance it, and it gives no shape fingerprint.
func (p Point) Validate() error {
	if p.D <= 0 {
		return fmt.Errorf("core: point has non-positive size %d", p.D)
	}
	if math.IsNaN(p.Time) || math.IsInf(p.Time, 0) {
		return fmt.Errorf("core: point at d=%d has non-finite time %g", p.D, p.Time)
	}
	if p.Time < 0 {
		return fmt.Errorf("core: point at d=%d has negative time %g", p.D, p.Time)
	}
	return nil
}

// Kernel is a serial computation kernel representative of one iteration of
// the application's computationally intensive loop, together with its
// resource management; it mirrors fupermod_kernel. Implementations define
// the computation unit (paper §4.1: e.g. one b×b block update for matrix
// multiplication) and must reproduce the memory access pattern of the
// application so that measured speeds transfer to the real run.
type Kernel interface {
	// Name identifies the kernel in model files and traces.
	Name() string
	// Complexity returns the number of arithmetic operations performed
	// when executing d computation units; it converts modelled speeds
	// from units/s to FLOPS (paper: the complexity callback).
	Complexity(d int) float64
	// Setup allocates the execution context for a problem of d units
	// (the paper's initialize). The returned Instance can be Run many
	// times; Close releases the context (the paper's finalize).
	Setup(d int) (Instance, error)
}

// Instance is a ready-to-run kernel execution context.
type Instance interface {
	// Run executes the kernel once and returns the elapsed time in
	// seconds. For kernels on real hardware this is wall-clock time; for
	// kernels on the simulated platform it is virtual time.
	Run() (float64, error)
	// Close releases the context.
	Close() error
}

// Precision controls the statistical stopping rule of Benchmark; it mirrors
// fupermod_precision. The zero value is not valid; use DefaultPrecision or
// fill every field.
type Precision struct {
	// MinReps is the minimum number of repetitions (≥ 1).
	MinReps int
	// MaxReps caps the number of repetitions.
	MaxReps int
	// Confidence is the confidence level of the interval, e.g. 0.95.
	Confidence float64
	// RelErr is the target relative half-width CI/mean; measurement stops
	// once it is reached (after MinReps repetitions).
	RelErr float64
	// MaxSeconds bounds the total measured time spent on one point, so a
	// single slow size cannot consume the whole benchmarking budget.
	// Zero means no bound.
	MaxSeconds float64
	// Warmup runs the kernel this many times before measuring, discarding
	// the results — caches fill, frequencies settle. Zero disables it
	// (virtual kernels need none).
	Warmup int
}

// DefaultPrecision matches the defaults FuPerMod ships: 95% confidence,
// 2.5% relative error, between 5 and 30 repetitions.
var DefaultPrecision = Precision{
	MinReps:    5,
	MaxReps:    30,
	Confidence: 0.95,
	RelErr:     0.025,
	MaxSeconds: 60,
}

// Validate reports configuration errors.
func (p Precision) Validate() error {
	switch {
	case p.MinReps < 1:
		return errors.New("core: precision needs MinReps >= 1")
	case p.MaxReps < p.MinReps:
		return fmt.Errorf("core: precision MaxReps %d < MinReps %d", p.MaxReps, p.MinReps)
	case !(p.Confidence > 0 && p.Confidence < 1):
		return fmt.Errorf("core: confidence %g outside (0,1)", p.Confidence)
	case !(p.RelErr > 0):
		return fmt.Errorf("core: relative error target %g must be positive", p.RelErr)
	case !(p.MaxSeconds >= 0):
		return fmt.Errorf("core: time budget %g must be non-negative", p.MaxSeconds)
	case p.Warmup < 0:
		return fmt.Errorf("core: negative warmup count %d", p.Warmup)
	}
	return nil
}
