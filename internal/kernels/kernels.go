// Package kernels provides computation kernels for the FuPerMod benchmark
// layer (core.Kernel implementations):
//
//   - GEMM — the real matrix-multiplication kernel of the paper's §4.1
//     use case: one computation unit is the update of a b×b block of C
//     with parts of a pivot column and pivot row, and a problem of d units
//     allocates the same buffers and performs the same memory copies as
//     one iteration of the parallel application.
//   - Jacobi — the real per-row relaxation kernel of the paper's dynamic
//     load-balancing use case: one unit is one matrix row update.
//   - Virtual — a kernel whose execution time comes from a synthetic
//     platform device (with seeded measurement noise) instead of real
//     computation. The figure and experiment harness uses virtual kernels
//     so the paper's heterogeneous hardware can be reproduced
//     deterministically.
package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/linalg"
	"fupermod/internal/platform"
)

// GEMM is the matrix-multiplication computation kernel with blocking
// factor B. For a problem size of d computation units it arranges a
// near-square m×n block grid (m = ⌊√d⌋, n = ⌈d/m⌉, as in the paper) and
// one Run performs Ci += A(b)·B(b): a copy of the pivot column and row
// into working buffers — replicating the local overhead of the MPI
// communication — followed by one blocked GEMM call.
type GEMM struct {
	// B is the blocking factor b (paper Fig. 1); the computation unit is
	// one b×b block update.
	B int
}

// NewGEMM returns the GEMM kernel with blocking factor b.
func NewGEMM(b int) (*GEMM, error) {
	if b <= 0 {
		return nil, fmt.Errorf("kernels: blocking factor must be positive, got %d", b)
	}
	return &GEMM{B: b}, nil
}

// Name implements core.Kernel.
func (g *GEMM) Name() string { return fmt.Sprintf("gemm-b%d", g.B) }

// grid returns the near-square block grid for d units.
func (g *GEMM) grid(d int) (m, n int) {
	if d <= 0 {
		return 0, 0
	}
	m = int(math.Sqrt(float64(d)))
	if m < 1 {
		m = 1
	}
	n = (d + m - 1) / m
	return m, n
}

// Complexity implements core.Kernel: 2·(m·b)·(n·b)·b arithmetic operations
// per run (paper §4.1).
func (g *GEMM) Complexity(d int) float64 {
	m, n := g.grid(d)
	b := float64(g.B)
	return 2 * float64(m) * b * float64(n) * b * b
}

// Setup implements core.Kernel: it allocates the submatrices Ai, Bi, Ci of
// (m·b)×(n·b) elements and the working buffers A(b) of (m·b)×b and B(b) of
// b×(n·b), reproducing the application's memory requirements.
func (g *GEMM) Setup(d int) (core.Instance, error) {
	if d <= 0 {
		return nil, fmt.Errorf("kernels: gemm needs positive size, got %d", d)
	}
	m, n := g.grid(d)
	rows, cols := m*g.B, n*g.B
	rng := rand.New(rand.NewSource(int64(d)))
	alloc := func(r, c int) (*linalg.Matrix, error) {
		mt, err := linalg.NewMatrix(r, c)
		if err != nil {
			return nil, err
		}
		mt.FillRandom(rng)
		return mt, nil
	}
	ai, err := alloc(rows, cols)
	if err != nil {
		return nil, err
	}
	bi, err := alloc(rows, cols)
	if err != nil {
		return nil, err
	}
	ci, err := alloc(rows, cols)
	if err != nil {
		return nil, err
	}
	ab, err := linalg.NewMatrix(rows, g.B)
	if err != nil {
		return nil, err
	}
	bb, err := linalg.NewMatrix(g.B, cols)
	if err != nil {
		return nil, err
	}
	return &gemmInstance{k: g, ai: ai, bi: bi, ci: ci, ab: ab, bb: bb}, nil
}

type gemmInstance struct {
	k          *GEMM
	ai, bi, ci *linalg.Matrix
	ab, bb     *linalg.Matrix
}

// Run implements core.Instance: copy the pivot column of Ai and pivot row
// of Bi into the working buffers (the application would receive them from
// the broadcast), then one GEMM update of Ci.
func (i *gemmInstance) Run() (float64, error) {
	start := time.Now()
	b := i.k.B
	// Pivot column of Ai → A(b): columns [0, b) of Ai.
	for r := 0; r < i.ai.Rows; r++ {
		copy(i.ab.Data[r*b:(r+1)*b], i.ai.Data[r*i.ai.Cols:r*i.ai.Cols+b])
	}
	// Pivot row of Bi → B(b): rows [0, b) of Bi.
	copy(i.bb.Data, i.bi.Data[:b*i.bi.Cols])
	if err := linalg.Gemm(i.ab, i.bb, i.ci); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// Close implements core.Instance.
func (i *gemmInstance) Close() error {
	i.ai, i.bi, i.ci, i.ab, i.bb = nil, nil, nil, nil, nil
	return nil
}

// Jacobi is the per-row relaxation kernel: one computation unit is the
// update of one row of a system with N unknowns; a problem of d units
// sweeps d rows.
type Jacobi struct {
	// N is the number of unknowns of the full system.
	N int
}

// NewJacobi returns the Jacobi kernel for a system of n unknowns.
func NewJacobi(n int) (*Jacobi, error) {
	if n <= 0 {
		return nil, fmt.Errorf("kernels: jacobi needs positive system size, got %d", n)
	}
	return &Jacobi{N: n}, nil
}

// Name implements core.Kernel.
func (j *Jacobi) Name() string { return fmt.Sprintf("jacobi-n%d", j.N) }

// Complexity implements core.Kernel: ≈ 2·N operations per row.
func (j *Jacobi) Complexity(d int) float64 { return 2 * float64(d) * float64(j.N) }

// Setup implements core.Kernel. Problems larger than the system are
// rejected: a process cannot hold more than all N rows.
func (j *Jacobi) Setup(d int) (core.Instance, error) {
	if d <= 0 || d > j.N {
		return nil, fmt.Errorf("kernels: jacobi size %d outside [1,%d]", d, j.N)
	}
	rng := rand.New(rand.NewSource(int64(d)))
	sys, err := linalg.NewJacobiSystem(j.N, 1.0, rng)
	if err != nil {
		return nil, err
	}
	return &jacobiInstance{sys: sys, d: d,
		xOld: make([]float64, j.N), xNew: make([]float64, j.N)}, nil
}

type jacobiInstance struct {
	sys        *linalg.JacobiSystem
	d          int
	xOld, xNew []float64
}

// Run implements core.Instance: one relaxation of rows [0, d).
func (i *jacobiInstance) Run() (float64, error) {
	start := time.Now()
	if _, err := linalg.JacobiSweepRows(i.sys, 0, i.d, i.xOld, i.xNew); err != nil {
		return 0, err
	}
	i.xOld, i.xNew = i.xNew, i.xOld
	return time.Since(start).Seconds(), nil
}

// Close implements core.Instance.
func (i *jacobiInstance) Close() error {
	i.sys, i.xOld, i.xNew = nil, nil, nil
	return nil
}

// Virtual is a kernel backed by a synthetic platform device: Run consumes
// no CPU but reports the device's (noisy) virtual execution time. It is
// how the experiment harness runs the paper's GPU-accelerated and
// multicore platforms deterministically.
type Virtual struct {
	// KernelName is reported by Name; conventionally the name of the real
	// kernel whose speed function the device mimics.
	KernelName string
	// Meter produces the timing observations.
	Meter *platform.Meter
	// FlopsPerUnit converts units to arithmetic operations in
	// Complexity.
	FlopsPerUnit float64
}

// NewVirtual wraps a metered device as a kernel.
func NewVirtual(name string, meter *platform.Meter, flopsPerUnit float64) (*Virtual, error) {
	if meter == nil {
		return nil, fmt.Errorf("kernels: virtual kernel %q needs a meter", name)
	}
	if flopsPerUnit <= 0 {
		return nil, fmt.Errorf("kernels: virtual kernel %q needs positive flops/unit", name)
	}
	return &Virtual{KernelName: name, Meter: meter, FlopsPerUnit: flopsPerUnit}, nil
}

// Name implements core.Kernel.
func (v *Virtual) Name() string { return v.KernelName }

// Complexity implements core.Kernel.
func (v *Virtual) Complexity(d int) float64 { return float64(d) * v.FlopsPerUnit }

// Setup implements core.Kernel.
func (v *Virtual) Setup(d int) (core.Instance, error) {
	if d <= 0 {
		return nil, fmt.Errorf("kernels: virtual kernel %q needs positive size, got %d", v.KernelName, d)
	}
	return &virtualInstance{v: v, d: d}, nil
}

type virtualInstance struct {
	v *Virtual
	d int
}

// Run implements core.Instance.
func (i *virtualInstance) Run() (float64, error) {
	return i.v.Meter.Measure(float64(i.d)), nil
}

// Close implements core.Instance.
func (i *virtualInstance) Close() error { return nil }

// GEMMBlockFlops is the arithmetic cost of one computation unit of the
// b=128 GEMM kernel, one 128×128 block update: 2·128³ flops. Virtual
// kernels of the CLIs, the partition service and the store audit all
// charge it, so their sweeps of one device are the same measurement.
const GEMMBlockFlops = 2 * 128 * 128 * 128

// VirtualSet wraps each device of a platform in a Virtual kernel with a
// shared noise configuration, seeding each meter from baseSeed plus the
// device index so runs are reproducible.
func VirtualSet(devs []platform.Device, noise platform.NoiseConfig, flopsPerUnit float64, baseSeed int64) ([]core.Kernel, error) {
	out := make([]core.Kernel, len(devs))
	for i, dev := range devs {
		meter := platform.NewMeter(dev, noise, baseSeed+int64(i))
		k, err := NewVirtual(dev.Name(), meter, flopsPerUnit)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}
