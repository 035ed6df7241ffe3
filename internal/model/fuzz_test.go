package model

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"fupermod/internal/core"
)

// FuzzReadPoints checks the points-file parser never panics and that
// accepted files round-trip through WritePoints.
func FuzzReadPoints(f *testing.F) {
	f.Add("# fupermod points v1\n# kernel: gemm\n# device: d\n1 0.5 3 0.01\n")
	f.Add("10 1 1 0\n20 2 1 0\n")
	f.Add("")
	f.Add("x y z w\n")
	f.Add("1 0.5 3\n")
	f.Add("9999999999999999999 1 1 0\n")
	f.Add("1 1e309 1 0\n")
	f.Fuzz(func(t *testing.T, text string) {
		pf, err := ReadPoints(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, p := range pf.Points {
			if p.Validate() != nil {
				t.Fatalf("accepted invalid point %+v from %q", p, text)
			}
		}
		var buf bytes.Buffer
		if err := WritePoints(&buf, pf); err != nil {
			t.Fatalf("accepted file failed to serialise: %v (input %q)", err, text)
		}
		back, err := ReadPoints(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v\nserialised %q", err, buf.String())
		}
		if len(back.Points) != len(pf.Points) {
			t.Fatalf("round trip changed point count %d → %d", len(pf.Points), len(back.Points))
		}
	})
}

// FuzzModelUpdates checks that arbitrary (valid) point sequences never
// break a model's invariants: Time stays positive and finite over the
// measured range for every model kind. It also checks core.UpdateAll
// against a plain Update loop for every kind (diffFit), on the sequence
// and on a copy with a repeated size and an invalid point inserted: the
// same error, and bit-identical state.
func FuzzModelUpdates(f *testing.F) {
	f.Add(int64(1), uint8(5))
	f.Add(int64(42), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		n := 1 + int(nRaw)%32
		// Pseudo-random but valid points derived from the seed.
		x := seed
		next := func(mod int64) int64 {
			x = x*6364136223846793005 + 1442695040888963407
			v := x % mod
			if v < 0 {
				v = -v
			}
			return v
		}
		for _, kind := range Kinds() {
			m, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			maxD := 1
			pts := make([]core.Point, 0, n)
			for i := 0; i < n; i++ {
				d := int(next(100000)) + 1
				tm := float64(next(1000000)+1) / 1e4
				pts = append(pts, core.Point{D: d, Time: tm, Reps: 1})
				if err := m.Update(pts[i]); err != nil {
					t.Fatalf("%s: valid point rejected: %v", kind, err)
				}
				if d > maxD {
					maxD = d
				}
			}
			for _, probe := range []float64{1, float64(maxD) / 2, float64(maxD), float64(maxD) * 2} {
				tt, err := m.Time(probe)
				if err != nil {
					t.Fatalf("%s: Time(%g): %v", kind, probe, err)
				}
				if !(tt >= 0) || tt != tt {
					t.Fatalf("%s: Time(%g) = %g", kind, probe, tt)
				}
			}
			if d := diffFit(kind, nil, pts); d != "" {
				t.Fatal(d)
			}
			repeat := pts[next(int64(n))]
			repeat.Time *= 1.5
			repeat.Reps = int(next(4))
			invalid := []core.Point{{D: 0, Time: 1}, {D: 7, Time: math.NaN()}, {D: 7, Time: -1}, {D: 7, Time: math.Inf(1)}}[next(4)]
			mixed := slices.Insert(slices.Clone(pts), int(next(int64(n+1))), repeat)
			mixed = slices.Insert(mixed, int(next(int64(n+2))), invalid)
			if d := diffFit(kind, nil, mixed); d != "" {
				t.Fatal(d)
			}
		}
	})
}
