package modelstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fupermod/internal/core"
)

// FuzzDecodeMatchesRef throws arbitrary bytes at both decoder
// implementations and requires them to agree completely: the same
// intact/corrupt classification, deep-equal entries on intact files, and
// the identical error message on corrupt ones. This is the net under the
// strict fast path — decodeStrict accepting a file the reference rejects
// (or reading it differently) is exactly the kind of bug a hand-written
// grammar subset can hide, and random mutation of real entry files probes
// the edges a table of hand-picked corruptions misses.
func FuzzDecodeMatchesRef(f *testing.F) {
	intact, err := encode(testKey("default", "netlib-blas"), "gemm-b128", awkwardPoints(), "")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(intact)
	transferred, err := encode(testKey("default", "netlib-blas"), "gemm-b128", awkwardPoints(),
		"donor=a/b/seed=1 scale=2.5 probes=6/40 maxdiff=0.01")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(transferred)
	f.Add([]byte("# store: a|b|1|0.5|16|64|4|p\n# transfer : spaced\n# transfer: d x\n# end: 0\n"))
	f.Add([]byte(""))
	f.Add([]byte("# store: a|b|1|0.5|16|64|4|p\n# end: 0\n"))
	f.Add([]byte("# store : spaced\n# end : 4\n16 0.5 3 0\n"))
	f.Add([]byte("# kernel: k\n# end: -1\n# store: x\n"))
	f.Add([]byte("# end: 1\n# end: banana\n16 0.5 3 0\n"))
	f.Add([]byte("\u2002# store: unicode-indent\n# end: 0\n"))
	f.Add([]byte("# store: v\u00a0tail\n# end: 1\n16\u00a00.5 3 0\n"))
	f.Add([]byte("16 0.5 3 0\r\n\t# end: 1\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := Decode("fuzz.points", data)
		want, werr := DecodeRef("fuzz.points", data)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("classification diverged on %q:\n  Decode:    %v\n  DecodeRef: %v", data, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("messages diverged on %q:\n  Decode:    %v\n  DecodeRef: %v", data, gerr, werr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entries diverged on %q:\n  Decode:    %+v\n  DecodeRef: %+v", data, got, want)
		}
	})
}

// FuzzStoreFile writes arbitrary bytes as a store file — alone, after an
// intact entry in the same file, and beside an intact entry in a file
// ranking before it — and reads the store through Load, Get and Stats, the
// way a fresh process would. Nothing panics, the intact entry is always
// served, and every entry a read returns re-encodes to bytes that appear
// verbatim in the file it came from: no reader serves part of an entry, or
// an entry stitched from two.
func FuzzStoreFile(f *testing.F) {
	mustEncode := func(k Key, pts []core.Point, prov string) []byte {
		b, err := encode(k, "gemm-b128", pts, prov)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	intactKey := testKey("fuzz", "intact")
	intact := mustEncode(intactKey, awkwardPoints(), "")
	// A three-entry file cut at every byte of its last entry.
	var three []byte
	three = append(three, mustEncode(testKey("fuzz", "one"), awkwardPoints(), "")...)
	three = append(three, mustEncode(testKey("fuzz", "two"), awkwardPoints()[:2], "donor=x scale=2")...)
	lastAt := len(three)
	three = append(three, mustEncode(testKey("fuzz", "three"), awkwardPoints()[1:], "")...)
	for cut := lastAt; cut <= len(three); cut++ {
		f.Add(three[:cut])
	}
	// The intact entry's key held again, in the second file or after it.
	f.Add(mustEncode(intactKey, awkwardPoints()[:3], ""))
	f.Add(mustEncode(intactKey, awkwardPoints(), "donor=y scale=1"))
	// A one-entry file, as every file was before append files.
	f.Add(mustEncode(testKey("legacy", "one-entry"), awkwardPoints(), ""))
	f.Fuzz(func(t *testing.T, data []byte) {
		layouts := []map[string][]byte{
			{"x.points": data},
			{"x.points": append(append([]byte{}, intact...), data...)},
			{"a.points": intact, "b.points": data},
		}
		for li, files := range layouts {
			dir := t.TempDir()
			for name, b := range files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			verbatim := func(e Entry) bool {
				enc, err := encode(e.Key, e.Kernel, e.Points, e.Transfer)
				if err != nil {
					return false
				}
				for _, b := range files {
					if bytes.Contains(b, enc) {
						return true
					}
				}
				return false
			}
			s := freshHandle(dir)
			entries, _, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !verbatim(e) {
					t.Fatalf("layout %d: Load served %+v, whose encoding is not in the files", li, e)
				}
				got, ok, err := s.Get(e.Key)
				if !ok || err != nil || !reflect.DeepEqual(got, e) {
					t.Fatalf("layout %d: Get(%s) = ok %v err %v, Load served %+v", li, e.Key.id(), ok, err, e)
				}
			}
			if li > 0 {
				got, ok, err := s.Get(intactKey)
				if !ok || err != nil || !verbatim(got) {
					t.Fatalf("layout %d: the intact entry was not served: ok %v err %v", li, ok, err)
				}
			}
			if k, ok := headerKey(data); ok {
				if got, ok, _ := s.Get(k); ok && !verbatim(got) {
					t.Fatalf("layout %d: Get(%s) served %+v, whose encoding is not in the files", li, k.id(), got)
				}
			}
			st, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Entries != int64(len(entries)) {
				t.Fatalf("layout %d: census counts %d entries, Load served %d", li, st.Entries, len(entries))
			}
		}
	})
}
