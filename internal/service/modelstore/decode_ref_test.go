package modelstore

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"fupermod/internal/core"
)

// populatedEntryBytes spills one entry through the real Put path and
// returns the file's path and bytes.
func populatedEntryBytes(t *testing.T) (string, []byte) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("default", "netlib-blas")
	if err := s.Put(k, "gemm-b128", awkwardPoints()); err != nil {
		t.Fatal(err)
	}
	path := s.Path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// decodeContract checks Decode against DecodeRef on one input: (i) what
// DecodeRef rejects, Decode rejects with the identical message; (ii) what
// Decode accepts, DecodeRef accepts as a deep-equal entry; (iii) what
// DecodeRef accepts and Decode rejects is not the bytes encode writes for
// that entry, and Decode says so.
func decodeContract(path string, data []byte) error {
	got, gerr := Decode(path, data)
	want, werr := DecodeRef(path, data)
	switch {
	case werr != nil:
		if gerr == nil || gerr.Error() != werr.Error() {
			return fmt.Errorf("(i) messages diverged:\n  Decode:    %v\n  DecodeRef: %v", gerr, werr)
		}
	case gerr == nil:
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("(ii) entries diverged:\n  Decode:    %+v\n  DecodeRef: %+v", got, want)
		}
	case encodesTo(want, data):
		return fmt.Errorf("(iii) Decode refused the bytes encode writes for %+v: %v", want, gerr)
	case gerr.Error() != errNotEncoded(path).Error():
		return fmt.Errorf("(iii) Decode refused a layout encode does not write with %q, want %q", gerr, errNotEncoded(path))
	}
	return nil
}

// TestDecodeMatchesRef pins Decode to DecodeRef: identical entries on
// intact files (deep-equal, including the full-precision points), the
// decode contract on every damaged or re-laid-out variant, and identical
// messages for the standard corruptions the store documents (truncation,
// torn trailer, count mismatch).
func TestDecodeMatchesRef(t *testing.T) {
	path, data := populatedEntryBytes(t)

	got, gerr := Decode(path, data)
	want, werr := DecodeRef(path, data)
	if gerr != nil || werr != nil {
		t.Fatalf("intact file should decode: %v / %v", gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entries differ:\n%+v\n%+v", got, want)
	}

	lines := strings.SplitAfter(string(data), "\n")
	newlineDevice, err := encode(testKey("default", "netlib-blas\n# x"), "gemm-b128", awkwardPoints(), "")
	if err != nil {
		t.Fatal(err)
	}
	longLine, err := encode(testKey("default", "netlib-blas"), strings.Repeat("k", bufio.MaxScanTokenSize-len("# kernel: ")), awkwardPoints(), "")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		"empty":                nil,
		"truncated last byte":  data[:len(data)-1],
		"truncated mid file":   data[:len(data)/2],
		"missing end trailer":  []byte(strings.Join(lines[:len(lines)-2], "")),
		"missing store header": bytes.Replace(data, []byte("# store: "), []byte("# stale: "), 1),
		"bad end count":        bytes.Replace(data, []byte("# end: "), []byte("# end: banana"), 1),
		"count mismatch":       bytes.Replace(data, []byte("# end: 4"), []byte("# end: 5"), 1),
		"bad key id":           bytes.Replace(data, []byte("# store: default"), []byte("# store: extra|default"), 1),
		"garbage data line":    bytes.Replace(data, []byte("\n16 "), []byte("\nnot a point\n16 "), 1),
		"two end trailers":     append(append([]byte{}, data...), []byte("# end: 9\n")...),
		"bare store data line": bytes.Replace(data, []byte("\n16 "), []byte("\nstore: sneaky\n16 "), 1),
		"second bad end mid":   bytes.Replace(data, []byte("# columns"), []byte("# end: nope\n# columns"), 1),
		"spaced end key":       bytes.Replace(data, []byte("# end: "), []byte("# end : "), 1),
		"spaced store key":     bytes.Replace(data, []byte("# store: "), []byte("# store : "), 1),
		// encode writes a device holding a newline over two lines, so no
		// decoder reads a key with one.
		"newline in device": newlineDevice,
		// A line DecodeRef's scanner cannot read.
		"64 KiB line": longLine,
		// Times no model can use, in spellings ParseFloat reads.
		"NaN time":      bytes.Replace(data, []byte("\n16 0.3333333333333333 "), []byte("\n16 NaN "), 1),
		"infinite time": bytes.Replace(data, []byte("\n16 0.3333333333333333 "), []byte("\n16 +Inf "), 1),
	}
	// Layouts DecodeRef reads but encode never writes: Decode refuses them
	// as not in the store's encoding (clause iii).
	relaid := map[string][]byte{
		"blank line":        bytes.Replace(data, []byte("# columns"), []byte("\n# columns"), 1),
		"tab in record":     bytes.Replace(data, []byte("\n16 "), []byte("\n16\t"), 1),
		"reordered headers": bytes.Replace(data, []byte("# kernel: gemm-b128\n# device: netlib-blas\n"), []byte("# device: netlib-blas\n# kernel: gemm-b128\n"), 1),
		"CRLF trailer":      bytes.Replace(data, []byte("# end: 4\n"), []byte("# end: 4\r\n"), 1),
		"padded kernel":     bytes.Replace(data, []byte("# kernel: gemm-b128"), []byte("# kernel:  gemm-b128 "), 1),
		"signed count":      bytes.Replace(data, []byte("# end: 4"), []byte("# end: +4"), 1),
	}
	// Guard against silently ineffective bytes.Replace (e.g. the trailer
	// text changing): every variant must actually differ from the intact
	// file.
	for name, variant := range corrupt {
		if bytes.Equal(variant, data) {
			t.Fatalf("%s: corruption did not modify the file", name)
		}
		if err := decodeContract(path, variant); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := Decode(path, variant); err == nil {
			t.Errorf("%s: Decode accepted a corrupt file", name)
		}
	}
	for name, variant := range relaid {
		if bytes.Equal(variant, data) {
			t.Fatalf("%s: the variant did not modify the file", name)
		}
		if _, err := DecodeRef(path, variant); err != nil {
			t.Errorf("%s: DecodeRef should read the variant: %v", name, err)
		}
		if err := decodeContract(path, variant); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// The standard single-fault corruptions must produce the identical
	// message, not merely both fail — operators grep these.
	identical := []string{"empty", "truncated last byte", "missing end trailer",
		"missing store header", "bad end count", "count mismatch", "garbage data line",
		"spaced end key", "spaced store key", "second bad end mid", "two end trailers",
		"NaN time", "infinite time"}
	for _, name := range identical {
		_, gerr := Decode(path, corrupt[name])
		_, werr := DecodeRef(path, corrupt[name])
		if gerr == nil || werr == nil {
			continue // already reported above
		}
		if gerr.Error() != werr.Error() {
			t.Errorf("%s: messages diverged:\n  Decode:    %v\n  DecodeRef: %v", name, gerr, werr)
		}
	}
	for _, name := range []string{"NaN time", "infinite time"} {
		if _, err := Decode(path, corrupt[name]); err == nil || !strings.Contains(err.Error(), "non-finite time") {
			t.Errorf("%s: Decode error %v, want a non-finite time", name, err)
		}
	}
}

// TestPutRefusesNonFiniteTimes: a spill never writes a point no reader
// would accept.
func TestPutRefusesNonFiniteTimes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{math.NaN(), math.Inf(1)} {
		pts := append(awkwardPoints(), core.Point{D: 9000, Time: tm, Reps: 1})
		if err := s.Put(testKey("default", "nan"), "k", pts); err == nil || !strings.Contains(err.Error(), "non-finite time") {
			t.Errorf("time %g: Put error %v, want a non-finite time", tm, err)
		}
	}
	if st, err := s.Stats(); err != nil || st.Entries != 0 {
		t.Errorf("refused Puts left entries: %+v, %v", st, err)
	}
}

// TestLoadMatchesRef pins the pooled streaming reload to LoadRef on a
// populated store with a corrupt file mixed in: identical entries
// (deep-equal, order and all), identical corrupt classification.
func TestLoadMatchesRef(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"cpu-0", "cpu-1", "gpu-0", "gpu-1"} {
		if err := s.Put(testKey("default", dev), "gemm-b128", awkwardPoints()); err != nil {
			t.Fatal(err)
		}
	}
	// One torn entry: both loaders must drop exactly it.
	torn := s.Path(testKey("default", "gpu-1"))
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	entries, corrupt, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	refEntries, refCorrupt, err := s.LoadRef()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, refEntries) {
		t.Errorf("entries differ:\n%+v\n%+v", entries, refEntries)
	}
	if len(entries) != 3 {
		t.Errorf("loaded %d entries, want 3", len(entries))
	}
	if len(corrupt) != 1 || len(refCorrupt) != 1 {
		t.Fatalf("corrupt counts differ: %d vs %d", len(corrupt), len(refCorrupt))
	}
	if corrupt[0].Path != torn || refCorrupt[0].Path != torn {
		t.Errorf("wrong corrupt path: %s / %s, want %s", corrupt[0].Path, refCorrupt[0].Path, torn)
	}
	if corrupt[0].Err.Error() != refCorrupt[0].Err.Error() {
		t.Errorf("corrupt messages diverged:\n%v\n%v", corrupt[0].Err, refCorrupt[0].Err)
	}
}

// TestStoreGetUsesStreamingDecode: the streaming path is what Get serves,
// so a populated store round-trips through it.
func TestStoreGetUsesStreamingDecode(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("default", "gpu-0")
	if err := s.Put(k, "gemm-b128", awkwardPoints()); err != nil {
		t.Fatal(err)
	}
	e, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	data, err := os.ReadFile(s.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := DecodeRef(s.Path(k), data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, ref) {
		t.Errorf("Get entry differs from DecodeRef:\n%+v\n%+v", e, ref)
	}
}
