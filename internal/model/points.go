package model

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"fupermod/internal/core"
)

// PointFile is the on-disk representation of a benchmark result set: the
// measurements of one kernel on one device. The FuPerMod tool chain writes
// one such file per process (fupermod-bench) and reads them back to build
// models for static partitioning (fupermod-partition), decoupling the
// expensive benchmarking from the many runs of the optimised application
// (paper §4.3).
type PointFile struct {
	// Kernel names the benchmarked computation kernel.
	Kernel string
	// Device names the device the kernel ran on.
	Device string
	// Points holds the measurements.
	Points []core.Point
}

// pointsBuffers pools the serialisation scratch of WritePoints: spilling a
// sweep to the model store and streaming points files over the service are
// per-request operations, and append-formatting into a pooled byte slice
// keeps them allocation-free at steady state.
var pointsBuffers = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// WritePoints serialises the point file in a line-oriented text format:
// comment headers followed by "d time reps ci" records. Floats are written
// with the shortest representation that parses back to the identical
// float64, so a write–read round trip reproduces the measurements exactly —
// the property the partition service's disk store relies on to rebuild
// byte-identical models after a restart.
//
// Records are append-formatted into one pooled buffer and written with a
// single w.Write, instead of a fresh bufio.Writer and one fmt.Fprintf per
// point. The plain form is WritePointsRef in this package's tests, and
// TestWritePointsMatchesRef pins the two byte for byte.
func WritePoints(w io.Writer, pf PointFile) error {
	bp := pointsBuffers.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, "# fupermod points v1\n# kernel: "...)
	b = append(b, pf.Kernel...)
	b = append(b, "\n# device: "...)
	b = append(b, pf.Device...)
	b = append(b, "\n# columns: d time reps ci\n"...)
	for _, p := range pf.Points {
		if err := p.Validate(); err != nil {
			*bp = b
			pointsBuffers.Put(bp)
			return fmt.Errorf("model: refusing to write invalid point: %w", err)
		}
		b = strconv.AppendInt(b, int64(p.D), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, p.Time, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(p.Reps), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, p.CI, 'g', -1, 64)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	*bp = b
	pointsBuffers.Put(bp)
	return err
}

// ReadPoints parses a point file written by WritePoints. Unknown comment
// lines are ignored, so files remain forward compatible with extra
// metadata.
func ReadPoints(r io.Reader) (PointFile, error) {
	var pf PointFile
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			m := strings.TrimSpace(strings.TrimPrefix(text, "#"))
			switch {
			case strings.HasPrefix(m, "kernel:"):
				pf.Kernel = strings.TrimSpace(strings.TrimPrefix(m, "kernel:"))
			case strings.HasPrefix(m, "device:"):
				pf.Device = strings.TrimSpace(strings.TrimPrefix(m, "device:"))
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return pf, fmt.Errorf("model: line %d: want 4 fields \"d time reps ci\", got %d", line, len(fields))
		}
		d, err := strconv.Atoi(fields[0])
		if err != nil {
			return pf, fmt.Errorf("model: line %d: bad size: %w", line, err)
		}
		t, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return pf, fmt.Errorf("model: line %d: bad time: %w", line, err)
		}
		reps, err := strconv.Atoi(fields[2])
		if err != nil {
			return pf, fmt.Errorf("model: line %d: bad reps: %w", line, err)
		}
		ci, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return pf, fmt.Errorf("model: line %d: bad ci: %w", line, err)
		}
		p := core.Point{D: d, Time: t, Reps: reps, CI: ci}
		if err := p.Validate(); err != nil {
			return pf, fmt.Errorf("model: line %d: %w", line, err)
		}
		pf.Points = append(pf.Points, p)
	}
	if err := sc.Err(); err != nil {
		return pf, fmt.Errorf("model: reading points: %w", err)
	}
	return pf, nil
}

// BuildFrom constructs a model of the given kind and feeds it every point
// of the file.
func (pf PointFile) BuildFrom(kind string) (core.Model, error) {
	m, err := New(kind)
	if err != nil {
		return nil, err
	}
	if err := core.UpdateAll(m, pf.Points); err != nil {
		return nil, err
	}
	return m, nil
}
