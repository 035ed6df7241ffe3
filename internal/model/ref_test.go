package model

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"fupermod/internal/core"
)

// WritePointsRef is the reference implementation of WritePoints — the
// plain bufio + fmt form, the specification the pooled writer is
// equivalence-tested against.
func WritePointsRef(w io.Writer, pf PointFile) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# fupermod points v1")
	fmt.Fprintf(bw, "# kernel: %s\n", pf.Kernel)
	fmt.Fprintf(bw, "# device: %s\n", pf.Device)
	fmt.Fprintln(bw, "# columns: d time reps ci")
	for _, p := range pf.Points {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("model: refusing to write invalid point: %w", err)
		}
		fmt.Fprintf(bw, "%d %s %d %s\n", p.D,
			strconv.FormatFloat(p.Time, 'g', -1, 64), p.Reps,
			strconv.FormatFloat(p.CI, 'g', -1, 64))
	}
	return bw.Flush()
}

// refPointFile builds a point file with awkward float values (shortest
// 'g' representations of different lengths) and names needing no escaping.
func refPointFile(n int) PointFile {
	pf := PointFile{Kernel: "gemm-b128", Device: "netlib blas #1"}
	rng := rand.New(rand.NewSource(3))
	d := 16
	for i := 0; i < n; i++ {
		pf.Points = append(pf.Points, core.Point{
			D:    d,
			Time: rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4)),
			Reps: 1 + rng.Intn(30),
			CI:   rng.Float64() * 1e-3,
		})
		d += 1 + rng.Intn(500)
	}
	return pf
}

// TestWritePointsMatchesRef pins the pooled append-formatting writer to
// WritePointsRef byte for byte — including empty files, empty metadata and
// repeated calls (pool reuse must not leak a previous file's bytes).
func TestWritePointsMatchesRef(t *testing.T) {
	files := []PointFile{
		{},
		{Kernel: "k", Device: "d"},
		refPointFile(1),
		refPointFile(200),
		refPointFile(3), // smaller after bigger: exercises pool reuse
	}
	for i, pf := range files {
		var got, want bytes.Buffer
		if err := WritePoints(&got, pf); err != nil {
			t.Fatalf("file %d: WritePoints: %v", i, err)
		}
		if err := WritePointsRef(&want, pf); err != nil {
			t.Fatalf("file %d: WritePointsRef: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("file %d: outputs differ\ngot:\n%s\nwant:\n%s", i, got.Bytes(), want.Bytes())
		}
		// And the fast path still round-trips through the reader.
		back, err := ReadPoints(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("file %d: ReadPoints: %v", i, err)
		}
		if len(back.Points) != len(pf.Points) {
			t.Errorf("file %d: round trip lost points: %d != %d", i, len(back.Points), len(pf.Points))
		}
	}
}

// TestWritePointsInvalidMatchesRef: both writers refuse invalid points
// with the same message.
func TestWritePointsInvalidMatchesRef(t *testing.T) {
	bad := PointFile{Kernel: "k", Device: "d", Points: []core.Point{{D: -1, Time: 1, Reps: 1}}}
	gerr := WritePoints(&bytes.Buffer{}, bad)
	werr := WritePointsRef(&bytes.Buffer{}, bad)
	if gerr == nil || werr == nil {
		t.Fatalf("invalid point must error: %v vs %v", gerr, werr)
	}
	if gerr.Error() != werr.Error() {
		t.Errorf("error text diverged: %q vs %q", gerr, werr)
	}
	if !strings.Contains(gerr.Error(), "invalid point") {
		t.Errorf("unexpected error: %v", gerr)
	}
}
