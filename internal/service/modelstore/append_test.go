package modelstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/transfer"
)

// freshHandle is another process's handle on dir: its own index and, on a
// Put, its own append file.
func freshHandle(dir string) *Store { return &Store{dir: dir} }

// liveRecord returns the index record of k's live entry.
func liveRecord(t *testing.T, s *Store, k Key) *record {
	t.Helper()
	live, _, err := s.lookup(k)
	if err != nil {
		t.Fatal(err)
	}
	if live == nil {
		t.Fatalf("no live entry for %s", k.id())
	}
	return live
}

// tearEntry cuts k's live entry, which must be the last of its file, to
// half its length: the torn tail a crash mid-append leaves.
func tearEntry(t *testing.T, s *Store, k Key) {
	t.Helper()
	r := liveRecord(t, s, k)
	path := filepath.Join(s.Dir(), r.name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != r.off+r.n {
		t.Fatalf("%s is not the last entry of %s", k.id(), r.name)
	}
	if err := os.Truncate(path, r.off+r.n/2); err != nil {
		t.Fatal(err)
	}
}

// damageEntry overwrites the first byte of the first points line of k's
// live entry: damage in the middle of a file, header and trailer intact.
func damageEntry(t *testing.T, s *Store, k Key) {
	t.Helper()
	r := liveRecord(t, s, k)
	path := filepath.Join(s.Dir(), r.name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data[r.off:r.off+r.n], []byte("\n# columns:"))
	if i < 0 {
		t.Fatal("entry has no columns header")
	}
	i += bytes.IndexByte(data[r.off+int64(i)+1:], '\n') + 2
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("x"), r.off+int64(i)); err != nil {
		t.Fatal(err)
	}
}

// lockedAppend appends entries to path as another handle appends to its
// own file: O_APPEND, under the file's exclusive lock — or, when path does
// not exist yet, written under a temporary name and linked into place
// complete, as a handle starts its file.
func lockedAppend(path string, entries ...Entry) error {
	var data []byte
	for _, e := range entries {
		b, err := encode(e.Key, "k", e.Points, e.Transfer)
		if err != nil {
			return err
		}
		data = append(data, b...)
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		defer os.Remove(tmp)
		return os.Link(tmp, path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := lockExclusive(f); err != nil {
		return err
	}
	_, err = f.Write(data)
	return err
}

func appendExternal(t *testing.T, path string, entries ...Entry) {
	t.Helper()
	if err := lockedAppend(path, entries...); err != nil {
		t.Fatal(err)
	}
}

func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := entryFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestPutsShareOneFile: a handle appends every spill to one file of its
// own, and a file written this way reads back entry for entry.
func TestPutsShareOneFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := s.Put(testKey("t", fmt.Sprintf("dev-%d", i)), "k", curvePoints(float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if names := storeFiles(t, s.Dir()); len(names) != 1 {
		t.Fatalf("%d Puts left %d store files %v, want one", n, len(names), names)
	}
	if all, err := os.ReadDir(s.Dir()); err != nil || len(all) != 1 {
		t.Fatalf("the directory holds %d files (err %v), want the append file alone", len(all), err)
	}
	entries, corrupt, err := freshHandle(s.Dir()).Load()
	if err != nil || len(corrupt) != 0 || len(entries) != n {
		t.Fatalf("reload: %d entries, %d corrupt, err %v", len(entries), len(corrupt), err)
	}
	for i, e := range entries {
		if !reflect.DeepEqual(e.Points, curvePoints(float64(i+1))) {
			t.Fatalf("entry %d (%s) reads back different points", i, e.Key.Device)
		}
	}
}

// TestSecondWriterAppendsUnderLock: another writer appends an entry to its
// own file in two halves while it holds the file's lock. No reader, in
// this handle or a fresh one, serves that entry or counts it corrupt until
// the append completes. When the writer drops its lock with the entry
// unfinished, the tail reads corrupt, and a fill of the key heals it byte
// for byte: the other file is cut back to what it held before the append,
// and the replacement lands in the filling handle's own file.
func TestSecondWriterAppendsUnderLock(t *testing.T) {
	if !haveLocks {
		t.Skip("no advisory file locks on this platform")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	self := testKey("cold", "probe")
	if err := s.Put(testKey("warm", "base"), "k", shapePoints(1, 1.1, 0)); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(s.Dir(), "zz-other.points")
	appendExternal(t, other, Entry{Key: testKey("other", "first"), Points: shapePoints(2, 1.0, 0)})

	// expect checks every read path of h against the keys it should serve.
	expect := func(h *Store, step string, served []Key, hidden Key, corrupt int) {
		t.Helper()
		if _, ok, err := h.Get(hidden); ok || (err != nil) != (corrupt > 0) {
			t.Fatalf("%s: Get of the unfinished entry: ok=%v err=%v", step, ok, err)
		}
		entries, bad, err := h.Load()
		if err != nil {
			t.Fatal(err)
		}
		var keys []Key
		for _, e := range entries {
			keys = append(keys, e.Key)
		}
		if !reflect.DeepEqual(keys, served) || len(bad) != corrupt {
			t.Fatalf("%s: Load served %v with %d corrupt, want %v with %d", step, keys, len(bad), served, corrupt)
		}
		st, err := h.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Entries != int64(len(served)) || st.CorruptFiles != int64(corrupt) {
			t.Fatalf("%s: census %+v", step, st)
		}
		donors, err := h.Donors(self)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := h.DonorPool(self)
		if err != nil {
			t.Fatal(err)
		}
		if donors.Len() != len(served) || len(pool) != len(served) {
			t.Fatalf("%s: %d indexed donors, %d pooled, want %d", step, donors.Len(), len(pool), len(served))
		}
	}

	k := testKey("other", "second")
	data, err := encode(k, "k", shapePoints(3, 1.2, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(other, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lockExclusive(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	before := []Key{testKey("warm", "base"), testKey("other", "first")}
	expect(s, "in progress", before, k, 0)
	expect(freshHandle(s.Dir()), "in progress, fresh handle", before, k, 0)
	if _, err := f.Write(data[len(data)/2:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if e, ok, err := s.Get(k); !ok || err != nil || !reflect.DeepEqual(e.Points, shapePoints(3, 1.2, 0)) {
		t.Fatalf("completed append: ok=%v err=%v", ok, err)
	}

	// The writer dies mid-append: its lock goes with it.
	torn := testKey("other", "torn")
	pts := shapePoints(4, 0.9, 0)
	data, err = encode(torn, "k", pts, "")
	if err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	f, err = os.OpenFile(other, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lockExclusive(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	after := append(before, k)
	expect(s, "torn", after, torn, 1)
	expect(freshHandle(s.Dir()), "torn, fresh handle", after, torn, 1)

	_, info, err := s.Fill(context.Background(), torn, func() (Swept, error) { return Swept{Kernel: "k", Points: pts}, nil })
	if err != nil || !info.Corrupt || info.Source != SourceSwept || info.PutErr != nil {
		t.Fatalf("healing fill: info %+v err %v", info, err)
	}
	if got, err := os.ReadFile(other); err != nil || !bytes.Equal(got, intact) {
		t.Fatalf("the other writer's file was not cut back to its intact bytes (err %v)", err)
	}
	own, err := os.ReadFile(s.Path(torn))
	if err != nil || !bytes.HasSuffix(own, data) {
		t.Fatalf("the replacement is not the entry's exact bytes at the end of %s (err %v)", s.Path(torn), err)
	}
	// Store order: the handle's own file (spill-...) before zz-other.
	healed := []Key{testKey("warm", "base"), torn, testKey("other", "first"), k}
	expect(freshHandle(s.Dir()), "healed", healed, Key{}, 0)
}

// TestThreeEntryFileCutInLastEntry cuts a three-entry file at every byte
// of its last entry: the first two entries are always served, the third
// never, in the writing handle and in a fresh one.
func TestThreeEntryFileCutInLastEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{testKey("a", "one"), testKey("a", "two"), testKey("b", "three")}
	for i, k := range keys {
		if err := s.Put(k, "k", curvePoints(float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	last := liveRecord(t, s, keys[2])
	path := filepath.Join(s.Dir(), last.name)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := last.off + 1; cut < int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*Store{s, freshHandle(s.Dir())} {
			for i, k := range keys[:2] {
				if e, ok, err := h.Get(k); !ok || err != nil || !reflect.DeepEqual(e.Points, curvePoints(float64(i+1))) {
					t.Fatalf("cut %d: entry %d not served: ok=%v err=%v", cut, i, ok, err)
				}
			}
			if _, ok, _ := h.Get(keys[2]); ok {
				t.Fatalf("cut %d: the torn third entry was served", cut)
			}
			entries, corrupt, err := h.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 2 || entries[0].Key != keys[0] || entries[1].Key != keys[1] || len(corrupt) != 1 {
				t.Fatalf("cut %d: Load gave %d entries, %d corrupt", cut, len(entries), len(corrupt))
			}
			if st, err := h.Stats(); err != nil || st.Entries != 2 || st.CorruptFiles != 1 {
				t.Fatalf("cut %d: census %+v err %v", cut, st, err)
			}
		}
	}
}

// checkLive requires every read path of h to resolve each key to the same
// entry, want[k].
func checkLive(t *testing.T, h *Store, step string, want map[Key]Entry) {
	t.Helper()
	self := testKey("cold", "probe")
	entries, corrupt, err := h.Load()
	if err != nil || len(corrupt) != 0 {
		t.Fatalf("%s: Load: %d corrupt, err %v", step, len(corrupt), err)
	}
	if len(entries) != len(want) {
		t.Fatalf("%s: Load returned %d entries for %d keys", step, len(entries), len(want))
	}
	var transferred int64
	for _, e := range entries {
		if !reflect.DeepEqual(e, want[e.Key]) {
			t.Fatalf("%s: Load resolved %s to %+v, want %+v", step, e.Key.Device, e, want[e.Key])
		}
		if e.Transfer != "" {
			transferred++
		}
	}
	st, err := h.Stats()
	if err != nil || st.Entries != int64(len(want)) || st.Transferred != transferred {
		t.Fatalf("%s: census %+v err %v", step, st, err)
	}
	pool, err := h.DonorPool(self)
	if err != nil {
		t.Fatal(err)
	}
	donors, err := h.Donors(self)
	if err != nil {
		t.Fatal(err)
	}
	ranked := donors.Rank([]core.Point{{D: 64, Time: 1e-3, Reps: 1}}, 0)
	if len(pool) != int(int64(len(want))-transferred) || len(ranked) != len(pool) {
		t.Fatalf("%s: %d pooled donors, %d ranked, want %d", step, len(pool), len(ranked), int64(len(want))-transferred)
	}
	for k, e := range want {
		got, ok, err := h.Get(k)
		if !ok || err != nil || !reflect.DeepEqual(got, e) {
			t.Fatalf("%s: Get(%s) = %+v ok=%v err=%v, want %+v", step, k.Device, got, ok, err, e)
		}
		if e.Transfer != "" {
			continue
		}
		inPool := slices.ContainsFunc(pool, func(d transfer.Donor) bool {
			return d.ID == DonorID(k) && reflect.DeepEqual(d.Points, e.Points)
		})
		inRank := slices.ContainsFunc(ranked, func(c transfer.Candidate) bool {
			return c.Donor.ID == DonorID(k) && reflect.DeepEqual(c.Donor.Points, e.Points)
		})
		if !inPool || !inRank {
			t.Fatalf("%s: %s donates other points (pool %v, rank %v)", step, k.Device, inPool, inRank)
		}
	}
}

// TestDuplicateKeyResolvesAlike: a key held twice — in two files, or as a
// full sweep and as a transfer in one file — resolves to its last entry in
// store order through Load, Get, Stats, Donors and DonorPool, in the
// writing handle and in a fresh one.
func TestDuplicateKeyResolvesAlike(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entry := func(k Key, scale float64, prov string) Entry {
		return Entry{Key: k, Kernel: "k", Points: curvePoints(scale), Transfer: prov}
	}
	put := func(e Entry) {
		t.Helper()
		if err := s.PutTransfer(e.Key, e.Kernel, e.Points, e.Transfer); err != nil {
			t.Fatal(err)
		}
	}
	above, below := testKey("dup", "above"), testKey("dup", "below")
	sweptLast, transferLast := testKey("dup", "swept-last"), testKey("dup", "transfer-last")
	want := map[Key]Entry{}
	// Two files: the handle's own (spill-...) and one ranking above or below.
	put(entry(above, 1, ""))
	want[above] = entry(above, 2, "")
	writeExternal(t, s, "zz-dup.points", want[above])
	want[below] = entry(below, 3, "")
	put(want[below])
	writeExternal(t, s, "aa-dup.points", entry(below, 4, ""))
	// One file: a full sweep and a transfer of one key, both orders.
	put(entry(sweptLast, 5, "donor=a scale=5"))
	want[sweptLast] = entry(sweptLast, 6, "")
	put(want[sweptLast])
	put(entry(transferLast, 7, ""))
	want[transferLast] = entry(transferLast, 8, "donor=b scale=8")
	put(want[transferLast])

	checkLive(t, s, "writing handle", want)
	checkLive(t, freshHandle(s.Dir()), "fresh handle", want)
}

// TestPutOutranksHigherLiveEntry: a Put of a key whose live entry sits in a
// file ranking above the handle's own — a re-sweep replacing an unfittable
// entry another process wrote — starts a new append file, so the new
// entry is what every later read returns.
func TestPutOutranksHigherLiveEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("t", "dev")
	if err := s.Put(k, "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	writeExternal(t, s, spillName(2), Entry{Key: k, Points: curvePoints(2)})
	if e, _, err := s.Get(k); err != nil || !reflect.DeepEqual(e.Points, curvePoints(2)) {
		t.Fatalf("the higher-ranked entry should be live: %+v err %v", e, err)
	}
	if err := s.Put(k, "k", curvePoints(3)); err != nil {
		t.Fatal(err)
	}
	want := map[Key]Entry{k: {Key: k, Kernel: "k", Points: curvePoints(3)}}
	checkLive(t, s, "writing handle", want)
	checkLive(t, freshHandle(s.Dir()), "fresh handle", want)
	if got := s.Path(k); filepath.Base(got) != spillName(3) {
		t.Fatalf("re-sweep landed in %s, want a new append file %s", got, spillName(3))
	}
}

// TestPutAfterWipe: when the store directory is wiped under a live
// handle, or just the handle's own file is removed, the next Put starts a
// new file that reads see — it never appends to an unlinked file.
func TestPutAfterWipe(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := testKey("t", "a"), testKey("t", "b"), testKey("t", "c")
	if err := s.Put(a, "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(a); !ok || err != nil {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, "k", curvePoints(2)); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Store{s, freshHandle(dir)} {
		entries, corrupt, err := h.Load()
		if err != nil || len(corrupt) != 0 || len(entries) != 1 || entries[0].Key != b {
			t.Fatalf("after the wipe: %d entries, %d corrupt, err %v", len(entries), len(corrupt), err)
		}
	}
	// Now remove only the handle's file, beside another writer's.
	writeExternal(t, s, "other.points", Entry{Key: a, Points: curvePoints(1)})
	if err := os.Remove(s.Path(b)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(c, "k", curvePoints(3)); err != nil {
		t.Fatal(err)
	}
	entries, _, err := freshHandle(dir).Load()
	if err != nil || len(entries) != 2 || entries[0].Key != a || entries[1].Key != c {
		t.Fatalf("after removing the handle's file: %+v err %v", entries, err)
	}
	if names := storeFiles(t, dir); len(names) != 2 {
		t.Fatalf("store files %v, want the other writer's and one new append file", names)
	}
}

// TestStoreDirWithGlobMetachars: the store directory is read literally —
// a path holding '[' or '*' names itself, not a pattern.
func TestStoreDirWithGlobMetachars(t *testing.T) {
	for _, name := range []string{"store[1]", "st*re", "st?re"} {
		s, err := Open(filepath.Join(t.TempDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		k := testKey("t", "fast")
		if err := s.Put(k, "k", curvePoints(1)); err != nil {
			t.Fatal(err)
		}
		entries, _, err := s.Load()
		if err != nil || len(entries) != 1 {
			t.Fatalf("%s: Load saw %d entries, err %v", name, len(entries), err)
		}
		ref, _, err := s.LoadRef()
		if err != nil || len(ref) != 1 {
			t.Fatalf("%s: LoadRef saw %d entries, err %v", name, len(ref), err)
		}
		pool, err := s.DonorPool(testKey("t", "cold"))
		if err != nil || len(pool) != 1 {
			t.Fatalf("%s: DonorPool saw %d donors, err %v", name, len(pool), err)
		}
		if st, err := s.Stats(); err != nil || st.Entries != 1 {
			t.Fatalf("%s: census %+v err %v", name, st, err)
		}
	}
}

// TestDestroyedHeaderReadsAbsent: a torn entry whose "# store:" line did
// not survive is counted corrupt but reads as absent for its key.
func TestDestroyedHeaderReadsAbsent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := testKey("t", "a"), testKey("t", "b")
	for _, k := range []Key{a, b} {
		if err := s.Put(k, "k", curvePoints(1)); err != nil {
			t.Fatal(err)
		}
	}
	r := liveRecord(t, s, b)
	if err := os.Truncate(filepath.Join(s.Dir(), r.name), r.off+5); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(b); ok || err != nil {
		t.Fatalf("entry with a destroyed header: ok=%v err=%v, want absent", ok, err)
	}
	if st, err := s.Stats(); err != nil || st.Entries != 1 || st.CorruptFiles != 1 {
		t.Fatalf("census %+v err %v", st, err)
	}
}

// TestAppendsRaceReaders runs Puts through the handle and appends by a
// second writer beside reads from the handle and from a fresh one; run it
// with -race -count=10. A read sees each entry whole or not at all: never
// a corrupt count, never other points than the key's own.
func TestAppendsRaceReaders(t *testing.T) {
	if !haveLocks {
		t.Skip("no advisory file locks on this platform: an append in progress reads as torn")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 30
	pointsOf := func(k Key) []core.Point { return curvePoints(float64(len(k.Tenant) + int(k.Seed))) }
	keyOf := func(writer string, i int) Key {
		k := testKey(writer, fmt.Sprintf("dev-%d", i))
		k.Seed = int64(i)
		return k
	}
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // Puts through the handle
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			k := keyOf("handle", i)
			if err := s.Put(k, "k", pointsOf(k)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // a second writer appending to its own file
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			k := keyOf("second", i)
			if err := lockedAppend(filepath.Join(s.Dir(), "zz-second.points"), Entry{Key: k, Points: pointsOf(k)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	read := func(h *Store) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, k := range []Key{keyOf("handle", i), keyOf("second", i)} {
				e, ok, err := h.Get(k)
				if err != nil || (ok && !reflect.DeepEqual(e.Points, pointsOf(k))) {
					t.Errorf("Get(%s): ok=%v err=%v", k.id(), ok, err)
					return
				}
			}
			entries, corrupt, err := h.Load()
			if err != nil || len(corrupt) != 0 {
				t.Errorf("Load: %d corrupt, err %v", len(corrupt), err)
				return
			}
			for _, e := range entries {
				if !reflect.DeepEqual(e.Points, pointsOf(e.Key)) {
					t.Errorf("Load served other points for %s", e.Key.id())
					return
				}
			}
			if st, err := h.Stats(); err != nil || st.CorruptFiles != 0 {
				t.Errorf("census %+v err %v", st, err)
				return
			}
		}
	}
	go read(s)
	go read(freshHandle(s.Dir()))
	wg.Wait()
	entries, corrupt, err := freshHandle(s.Dir()).Load()
	if err != nil || len(corrupt) != 0 || len(entries) != 2*rounds {
		t.Fatalf("after the writers: %d entries, %d corrupt, err %v", len(entries), len(corrupt), err)
	}
}

// TestSettledDirectoryListing: once the directory has settled, a refresh
// reuses its listing until the directory changes — and any file added or
// removed after that changes it.
func TestSettledDirectoryListing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := testKey("t", "a"), testKey("t", "b")
	if err := s.Put(a, "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	// settle backdates the directory's last change by an hour, then lists
	// it: the listing is trusted until the directory changes again.
	settle := func() {
		t.Helper()
		past := time.Now().Add(-time.Hour)
		if err := os.Chtimes(s.Dir(), past, past); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	writeExternal(t, s, "other.points", Entry{Key: b, Points: curvePoints(2)})
	if _, ok, err := s.Get(b); !ok || err != nil {
		t.Fatalf("a file added after the listing settled: ok=%v err=%v", ok, err)
	}
	settle()
	if err := os.Remove(filepath.Join(s.Dir(), "other.points")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(b); ok || err != nil {
		t.Fatalf("a file removed after the listing settled: ok=%v err=%v", ok, err)
	}
	settle()
	if e, ok, err := s.Get(a); !ok || err != nil || !reflect.DeepEqual(e.Points, curvePoints(1)) {
		t.Fatalf("settled listing: ok=%v err=%v", ok, err)
	}
}

// TestEmptyStoreFileIsCorrupt: an empty *.points file is what a crash
// before a write reached the disk leaves. Load, LoadRef, Stats and the
// store audit's reload count it corrupt, stably across refreshes.
func TestEmptyStoreFileIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := freshHandle(dir)
	if err := s.Put(testKey("t", "kept"), "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "empty.points"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Store{s, freshHandle(dir), s} {
		entries, corrupt, err := h.Load()
		if err != nil || len(entries) != 1 || len(corrupt) != 1 {
			t.Fatalf("Load: %d entries, %d corrupt, err %v; want 1 and 1", len(entries), len(corrupt), err)
		}
		if st, err := h.Stats(); err != nil || st.Entries != 1 || st.CorruptFiles != 1 {
			t.Fatalf("Stats: %+v, err %v; want 1 entry and 1 corrupt", st, err)
		}
	}
	if entries, corrupt, err := s.LoadRef(); err != nil || len(entries) != 1 || len(corrupt) != 1 {
		t.Fatalf("LoadRef: %d entries, %d corrupt, err %v; want 1 and 1", len(entries), len(corrupt), err)
	}
}

// TestNewAppendFileNeverSeenEmpty: a handle's first entry is linked into
// place complete, so a reader racing new handles' first Puts never finds
// an append file empty (which would count corrupt), and no temporary file
// is left behind.
func TestNewAppendFileNeverSeenEmpty(t *testing.T) {
	dir := t.TempDir()
	reader := freshHandle(dir)
	const n = 60
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for {
			select {
			case <-done:
				return
			default:
			}
			if st, err := reader.Stats(); err != nil || st.CorruptFiles != 0 {
				errc <- fmt.Errorf("Stats %+v, err %v, while new handles made their first Put", st, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := freshHandle(dir).Put(testKey("t", fmt.Sprintf("dev-%d", i)), "k", curvePoints(float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if all, err := os.ReadDir(dir); err != nil || len(all) != n {
		t.Fatalf("the directory holds %d files (err %v), want %d append files", len(all), err, n)
	}
}

// TestHealRemovesWhollyTornFile: a one-entry file torn mid-entry — the
// layout before append files — is removed by a Put of its key, not cut to
// an empty file, which would read corrupt.
func TestHealRemovesWhollyTornFile(t *testing.T) {
	dir := t.TempDir()
	k := testKey("t", "torn")
	b, err := encode(k, "k", curvePoints(2), "")
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "0123abcd.points")
	if err := os.WriteFile(torn, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s := freshHandle(dir)
	if _, ok, err := s.Get(k); ok || err == nil {
		t.Fatalf("torn entry: ok %v err %v, want a corrupt report", ok, err)
	}
	if err := s.Put(k, "k", curvePoints(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("the wholly torn file survived the heal: %v", err)
	}
	for _, h := range []*Store{s, freshHandle(dir)} {
		if st, err := h.Stats(); err != nil || st.Entries != 1 || st.CorruptFiles != 0 {
			t.Fatalf("after the heal: %+v, err %v; want 1 entry, 0 corrupt", st, err)
		}
		if e, ok, err := h.Get(k); !ok || err != nil || !reflect.DeepEqual(e.Points, curvePoints(2)) {
			t.Fatalf("after the heal: Get ok %v err %v", ok, err)
		}
	}
}

// TestNonFiniteNoiseRefused: NaN never equals itself, so a key with NaN
// noise could never be found again — every fill would append another
// entry, and the per-key table would leak. Such keys are refused by Put
// and Fill, and a file holding one reads as corrupt, with counts that stay
// put across refreshes.
func TestNonFiniteNoiseRefused(t *testing.T) {
	dir := t.TempDir()
	s := freshHandle(dir)
	for _, noise := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		k := testKey("t", "dev")
		k.Noise = noise
		if err := s.Put(k, "k", curvePoints(1)); err == nil {
			t.Fatalf("Put accepted noise %v", noise)
		}
		if _, _, err := s.Fill(context.Background(), k, func() (Swept, error) {
			return Swept{Kernel: "k", Points: curvePoints(1)}, nil
		}); err == nil {
			t.Fatalf("Fill accepted noise %v", noise)
		}
	}
	if err := s.Put(testKey("t", "kept"), "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	nan := testKey("t", "dev")
	nan.Noise = math.NaN()
	b, err := encode(nan, "k", curvePoints(1), "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "nan.points")
	for i := 0; i < 3; i++ {
		// Each rewrite is read in full again; none may add a key.
		if err := os.WriteFile(path, bytes.Repeat(b, i+1), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, h := range []*Store{s, freshHandle(dir)} {
			entries, corrupt, err := h.Load()
			if err != nil || len(entries) != 1 || len(corrupt) != i+1 {
				t.Fatalf("rewrite %d: Load %d entries, %d corrupt, err %v; want 1 and %d", i, len(entries), len(corrupt), err, i+1)
			}
			if st, err := h.Stats(); err != nil || st.Entries != 1 || st.CorruptFiles != int64(i+1) {
				t.Fatalf("rewrite %d: Stats %+v, err %v", i, st, err)
			}
			if len(h.keys) != 1 {
				t.Fatalf("rewrite %d: the index holds %d keys, want 1", i, len(h.keys))
			}
		}
	}
}

// TestLookupSkipsSealedFiles: in a store of one-entry files written before
// append files existed, a lookup checks the files holding its key and the
// append files, not every file, and still sees each change that can alter
// its answer: the key's file torn in place, the key's file replaced, and
// the key appended by another handle.
func TestLookupSkipsSealedFiles(t *testing.T) {
	dir := t.TempDir()
	s := freshHandle(dir)
	keys := make([]Key, 40)
	for i := range keys {
		keys[i] = testKey("legacy", fmt.Sprintf("dev-%02d", i))
		writeExternal(t, s, fmt.Sprintf("%02x.points", i), Entry{Key: keys[i], Points: curvePoints(float64(i + 1))})
	}
	if err := s.Put(testKey("new", "spill"), "k", curvePoints(99)); err != nil {
		t.Fatal(err)
	}
	if err := freshHandle(dir).Put(testKey("new", "other"), "k", curvePoints(98)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stats(); err != nil {
		t.Fatal(err)
	}
	k := keys[7]
	get := func(step string, want []core.Point) {
		t.Helper()
		e, ok, err := s.Get(k)
		if want == nil {
			if ok || err == nil {
				t.Fatalf("%s: ok=%v err=%v, want a corrupt report", step, ok, err)
			}
			return
		}
		if !ok || err != nil || !reflect.DeepEqual(e.Points, want) {
			t.Fatalf("%s: ok=%v err=%v points %v", step, ok, err, e.Points)
		}
	}
	get("indexed", curvePoints(8))
	var checked []string
	for _, fr := range s.files {
		if fr.synced == s.gen {
			checked = append(checked, fr.name)
		}
	}
	slices.Sort(checked)
	// The key's file and the append files, not the sealed one-entry files.
	if want := []string{"07.points", spillName(1), spillName(2)}; !reflect.DeepEqual(checked, want) {
		t.Fatalf("a lookup checked %v, want %v", checked, want)
	}
	path := filepath.Join(dir, "07.points")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	get("torn in place", nil)
	writeExternal(t, s, "07.points", Entry{Key: k, Points: curvePoints(70)})
	get("replaced", curvePoints(70))
	if err := freshHandle(dir).Put(k, "k", curvePoints(71)); err != nil {
		t.Fatal(err)
	}
	get("appended by another handle", curvePoints(71))
	entries, corrupt, err := freshHandle(dir).Load()
	if err != nil || len(corrupt) != 0 || len(entries) != len(keys)+2 {
		t.Fatalf("reload: %d entries, %d corrupt, err %v", len(entries), len(corrupt), err)
	}
}

// TestLookupAfterInexactPut: when another writer cuts the handle's own
// append file, the next Put lands where the index did not expect, so the
// index does not take it from the Put; a lookup of the new key, with no
// query between, still finds it, and not the cut entry.
func TestLookupAfterInexactPut(t *testing.T) {
	s := freshHandle(t.TempDir())
	a, b, c := testKey("t", "a"), testKey("t", "b"), testKey("t", "c")
	for _, k := range []Key{a, b} {
		if err := s.Put(k, "k", curvePoints(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Stats(); err != nil {
		t.Fatal(err)
	}
	tearEntry(t, s, b)
	if err := s.Put(c, "k", curvePoints(3)); err != nil {
		t.Fatal(err)
	}
	if e, ok, err := s.Get(c); !ok || err != nil || !reflect.DeepEqual(e.Points, curvePoints(3)) {
		t.Fatalf("Get of the entry appended after the cut: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.Get(b); ok || err != nil {
		t.Fatalf("Get of the cut entry: ok=%v err=%v, want absent", ok, err)
	}
}
