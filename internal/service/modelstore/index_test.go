package modelstore

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/transfer"
)

// shapePoints samples a speed curve whose shape is set by the exponent p
// and, when knee > 0, a cliff past the knee; scale changes the speed only.
func shapePoints(scale, p float64, knee int) []core.Point {
	sizes := core.LogSizes(16, 5000, 20)
	pts := make([]core.Point, len(sizes))
	for i, d := range sizes {
		tm := scale * 1e-6 * math.Pow(float64(d), p)
		if knee > 0 && d > knee {
			tm *= 1 + float64(d-knee)/float64(knee)
		}
		pts[i] = core.Point{D: d, Time: tm, Reps: 2}
	}
	return pts
}

// writeExternal writes a file of entries the way another writer sharing
// the directory would — a temp file renamed into place, so the name gets a
// new identity — under a name of its own: a one-entry file is the layout
// every store file had before append files.
func writeExternal(t *testing.T, s *Store, name string, entries ...Entry) {
	t.Helper()
	var data []byte
	for _, e := range entries {
		b, err := encode(e.Key, "k", e.Points, e.Transfer)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, b...)
	}
	tmp := filepath.Join(s.Dir(), ".external-write")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(s.Dir(), name)); err != nil {
		t.Fatal(err)
	}
}

// refCensus is the census a full re-read takes: LoadRef's live entries and
// corrupt entries, and a stat of every file.
func refCensus(t *testing.T, s *Store) StoreStats {
	t.Helper()
	entries, corrupt, err := s.LoadRef()
	if err != nil {
		t.Fatal(err)
	}
	st := StoreStats{CorruptFiles: int64(len(corrupt))}
	names, err := entryFiles(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if fi, err := os.Stat(filepath.Join(s.Dir(), name)); err == nil {
			st.Bytes += fi.Size()
		}
	}
	for _, e := range entries {
		st.Entries++
		if e.Transfer != "" {
			st.Transferred++
		}
		if st.Tenants == nil {
			st.Tenants = make(map[string]int64)
		}
		st.Tenants[e.Key.Tenant]++
	}
	return st
}

// sameCandidates reports where an indexed ranking departs from the
// reference: IDs and distances (bitwise) in order, and points in order
// except within a run of full ties (same ID and distance), whose order
// neither ranking specifies.
func sameCandidates(got, want []transfer.Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Donor.ID != want[i].Donor.ID ||
			math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			return fmt.Errorf("candidate %d: %s at %v, reference %s at %v",
				i, got[i].Donor.ID, got[i].Distance, want[i].Donor.ID, want[i].Distance)
		}
	}
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && want[j].Donor.ID == want[i].Donor.ID && want[j].Distance == want[i].Distance {
			j++
		}
		used := make([]bool, j-i)
		for _, g := range got[i:j] {
			found := false
			for x, w := range want[i:j] {
				if !used[x] && reflect.DeepEqual(g.Donor.Points, w.Donor.Points) {
					used[x], found = true, true
					break
				}
			}
			if !found {
				return fmt.Errorf("candidate %s: points differ from the reference", g.Donor.ID)
			}
		}
		i = j
	}
	return nil
}

// indexProbes are the probe sets every equivalence check ranks against:
// a rescaled copy of a stored shape, a shape no donor has, and a single
// point (no shape: every distance is 0 and the order is by ID).
var indexProbes = [][]core.Point{
	func() []core.Point {
		full := shapePoints(3, 1.1, 0)
		return []core.Point{full[0], full[6], full[13], full[19]}
	}(),
	func() []core.Point {
		full := shapePoints(1, 1.3, 600)
		return []core.Point{full[0], full[4], full[9], full[14], full[19]}
	}(),
	{{D: 64, Time: 1e-3, Reps: 1}},
}

// checkIndexMatchesRef pins the indexed search to transfer.Rank over the
// full-read DonorPool for every probe set and candidate count, and the
// index census to the full-read one.
func checkIndexMatchesRef(t *testing.T, s *Store, exclude Key, step string) {
	t.Helper()
	pool, err := s.DonorPool(exclude)
	if err != nil {
		t.Fatal(err)
	}
	donors, err := s.Donors(exclude)
	if err != nil {
		t.Fatal(err)
	}
	if donors.Len() != len(pool) {
		t.Fatalf("%s: snapshot holds %d donors, DonorPool %d", step, donors.Len(), len(pool))
	}
	for pi, probes := range indexProbes {
		for _, k := range []int{0, 1, 2, 4} {
			if err := sameCandidates(donors.Rank(probes, k), transfer.Rank(pool, probes, k)); err != nil {
				t.Fatalf("%s: probes %d, k=%d: %v", step, pi, k, err)
			}
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ref := refCensus(t, s); !reflect.DeepEqual(st, ref) {
		t.Fatalf("%s: census %+v, full read %+v", step, st, ref)
	}
}

// TestDonorIndexMatchesDonorPool: the index answers exactly what a full
// re-read answers, on a store holding every kind of non-donor, and after
// each change another writer makes to the directory behind its back —
// files added, appended to, replaced, truncated and removed, an entry
// superseded from a higher-ranked file, damage in the middle of a file.
func TestDonorIndexMatchesDonorPool(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	self := testKey("cold", "new-device")
	put := func(k Key, pts []core.Point, prov string) {
		t.Helper()
		if err := s.PutTransfer(k, "k", pts, prov); err != nil {
			t.Fatal(err)
		}
	}
	put(self, shapePoints(3, 1.1, 0), "")
	shapes := []struct {
		p    float64
		knee int
	}{{1.1, 0}, {1.0, 0}, {1.2, 0}, {1.1, 300}, {0.9, 2000}, {1.3, 600}}
	for i, sh := range shapes {
		put(testKey("warm", fmt.Sprintf("dev-%d", i)), shapePoints(float64(i+1), sh.p, sh.knee), "")
	}
	put(testKey("warm", "copied"), shapePoints(2, 1.1, 0), "donor=x scale=2")
	put(testKey("warm", "one-point"), []core.Point{{D: 16, Time: 1, Reps: 1}}, "")
	put(testKey("warm", "one-size"), []core.Point{{D: 64, Time: 1, Reps: 1}, {D: 64, Time: 1.1, Reps: 1}}, "")
	// The same DonorID under another precision: a distinct entry. The twins
	// sort last by ID, so no candidate count splits their tie under the
	// shapeless probe set.
	twin := testKey("zz-twin", "fast")
	put(twin, shapePoints(1, 1.15, 0), "")
	twinPrec := twin
	twinPrec.Prec = EncodePrecision(core.Precision{MinReps: 1, MaxReps: 1, Confidence: 0.95, RelErr: 0.05})
	put(twinPrec, shapePoints(1, 1.25, 0), "")
	if DonorID(twin) != DonorID(twinPrec) || twin == twinPrec {
		t.Fatal("twins should share a DonorID and not a key")
	}
	torn := testKey("warm", "torn")
	put(torn, shapePoints(1, 1.05, 0), "")
	tearEntry(t, s, torn)
	pool, err := s.DonorPool(self)
	if err != nil {
		t.Fatal(err)
	}
	oneSize := false
	for _, d := range pool {
		oneSize = oneSize || d.ID == DonorID(testKey("warm", "one-size"))
	}
	if !oneSize {
		t.Fatal("the single-size entry should be in the pool: it may donate but cannot be ranked")
	}
	checkIndexMatchesRef(t, s, self, "initial")

	// Another writer changes the directory between queries.
	added := testKey("ext", "added")
	writeExternal(t, s, "ext-a.points", Entry{Key: added, Points: shapePoints(5, 1.1, 0)})
	checkIndexMatchesRef(t, s, self, "add")

	appendExternal(t, filepath.Join(s.Dir(), "ext-a.points"), Entry{Key: testKey("ext", "appended"), Points: shapePoints(6, 1.2, 0)})
	checkIndexMatchesRef(t, s, self, "append")

	// A file ranking above the handle's own holds a second entry of dev-0:
	// that one is live now.
	writeExternal(t, s, "zz-ext.points", Entry{Key: testKey("warm", "dev-0"), Points: shapePoints(1, 1.3, 600)})
	checkIndexMatchesRef(t, s, self, "supersede")

	if err := os.Remove(filepath.Join(s.Dir(), "zz-ext.points")); err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesRef(t, s, self, "delete")

	writeExternal(t, s, "ext-a.points", Entry{Key: added, Points: shapePoints(5, 0.95, 0)}, Entry{Key: testKey("ext", "second"), Points: shapePoints(2, 1.0, 0)})
	checkIndexMatchesRef(t, s, self, "replace")

	extA := filepath.Join(s.Dir(), "ext-a.points")
	fi, err := os.Stat(extA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(extA, fi.Size()-40); err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesRef(t, s, self, "truncate in place")

	// Rewritten in place, longer, under the same inode — as a file
	// replaced by rename can come back under a recycled inode number: the
	// index must not take the new bytes for an append to the old ones.
	var longer []byte
	for i, sc := range []float64{7, 8} {
		b, err := encode(testKey("ext", fmt.Sprintf("longer-%d", i)), "k", shapePoints(sc, 1.15, 0), "")
		if err != nil {
			t.Fatal(err)
		}
		longer = append(longer, b...)
	}
	if err := os.WriteFile(extA, longer, 0o644); err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesRef(t, s, self, "rewritten longer in place")

	writeExternal(t, s, "zz-ext.points", Entry{Key: testKey("warm", "dev-3"), Points: shapePoints(4, 1.1, 300), Transfer: "donor=y scale=4"})
	checkIndexMatchesRef(t, s, self, "now transferred")

	damageEntry(t, s, testKey("warm", "dev-2"))
	checkIndexMatchesRef(t, s, self, "damage mid-file")
	if _, ok, err := s.Get(testKey("warm", "dev-2")); ok || err == nil {
		t.Fatalf("a damaged entry with no intact twin: ok=%v err=%v, want its damage reported", ok, err)
	}

	put(torn, shapePoints(1, 1.05, 0), "")
	checkIndexMatchesRef(t, s, self, "heal")

	if err := os.Mkdir(filepath.Join(s.Dir(), "directory.points"), 0o755); err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesRef(t, s, self, "unreadable name")

	// Excluding another key drops that entry and restores the self key.
	checkIndexMatchesRef(t, s, added, "other exclusion")
}

// TestDonorsSkipsStaleTopDonors: entries that stop being donors after the
// snapshot was taken are skipped when their points are read, and the
// next-ranked donors take their places. The donors sit in one-entry files,
// so each can be truncated or replaced on its own.
func TestDonorsSkipsStaleTopDonors(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	self := testKey("cold", "new-device")
	file := func(i int) string { return fmt.Sprintf("dev-%d.points", i) }
	for i, p := range []float64{1.1, 1.0, 1.2, 0.9, 1.3, 1.05} {
		writeExternal(t, s, file(i), Entry{Key: testKey("warm", fmt.Sprintf("dev-%d", i)), Points: shapePoints(float64(i+1), p, 0)})
	}
	donors, err := s.Donors(self)
	if err != nil {
		t.Fatal(err)
	}
	probes := indexProbes[0]
	before := donors.Rank(probes, 2)
	if len(before) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(before))
	}
	indexOf := func(id string) int {
		for i := 0; i < 6; i++ {
			if DonorID(testKey("warm", fmt.Sprintf("dev-%d", i))) == id {
				return i
			}
		}
		t.Fatalf("no key for %s", id)
		return 0
	}
	first, second := indexOf(before[0].Donor.ID), indexOf(before[1].Donor.ID)
	if err := os.Truncate(filepath.Join(s.Dir(), file(first)), 10); err != nil {
		t.Fatal(err)
	}
	writeExternal(t, s, file(second), Entry{Key: testKey("warm", fmt.Sprintf("dev-%d", second)), Points: before[1].Donor.Points, Transfer: "donor=z scale=1"})

	pool, err := s.DonorPool(self)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 2, 4} {
		if err := sameCandidates(donors.Rank(probes, k), transfer.Rank(pool, probes, k)); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestDonorsRankMatchesFullOrder pins Rank's one-pass selection to the
// full order it selects from — distance, then donor ID, then store order —
// for every candidate count, on a store of two append files holding exact
// distance ties and same-ID entries of other precisions. Each count is
// checked with no stale donor, with the last donor inside the top k gone
// stale after the snapshot, with the first donor past it, and with both: a
// stale donor's place goes to the next one in the full order.
func TestDonorsRankMatchesFullOrder(t *testing.T) {
	withPrec := func(k Key, minReps int) Key {
		k.Prec = EncodePrecision(core.Precision{MinReps: minReps, MaxReps: 8, Confidence: 0.95, RelErr: 0.05})
		return k
	}
	tied := shapePoints(2, 1.1, 0) // one curve under several IDs: exact distance ties
	twin := testKey("twin", "fast")
	type stored struct {
		file string
		e    Entry
	}
	entries := []stored{
		{"b.points", Entry{Key: withPrec(twin, 1), Points: tied}},
		{"b.points", Entry{Key: testKey("warm", "tie-c"), Points: tied}},
		{"b.points", Entry{Key: testKey("warm", "knee"), Points: shapePoints(1, 1.3, 600)}},
		{"b.points", Entry{Key: withPrec(twin, 2), Points: shapePoints(5, 1.2, 0)}},
		{"a.points", Entry{Key: testKey("warm", "tie-b"), Points: tied}},
		{"a.points", Entry{Key: twin, Points: tied}},
		{"a.points", Entry{Key: testKey("warm", "flat"), Points: shapePoints(3, 1.0, 0)}},
		{"a.points", Entry{Key: withPrec(twin, 4), Points: tied}},
		{"a.points", Entry{Key: testKey("warm", "tie-a"), Points: tied}},
		{"a.points", Entry{Key: testKey("warm", "steep"), Points: shapePoints(1, 1.25, 0)}},
	}
	keys := make(map[Key]bool)
	for _, st := range entries {
		if keys[st.e.Key] {
			t.Fatalf("%s is written twice: each entry must be live", st.e.Key.id())
		}
		keys[st.e.Key] = true
	}
	// open writes the entries into a fresh store, so no scenario's damage
	// outlives it.
	open := func() *Store {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range []string{"a.points", "b.points"} {
			var in []Entry
			for _, st := range entries {
				if st.file == file {
					in = append(in, st.e)
				}
			}
			writeExternal(t, s, file, in...)
		}
		return s
	}
	// spoil overwrites the middle of k's entry in place, so it no longer
	// decodes and nothing else in its file moves.
	spoil := func(s *Store, k Key) {
		r := liveRecord(t, s, k)
		f, err := os.OpenFile(filepath.Join(s.Dir(), r.name), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte("@@@@"), r.off+r.n/2); err != nil {
			t.Fatal(err)
		}
	}
	self := testKey("cold", "new-device")
	n := len(entries)
	for pi, probes := range indexProbes {
		// The full order, worked out from what was written: files by name,
		// entries in the order written.
		r := transfer.NewRanker(probes)
		dist := func(st stored) float64 {
			fp, err := transfer.FingerprintPoints(st.e.Points)
			if err != nil {
				t.Fatal(err)
			}
			return r.Distance(fp)
		}
		full := slices.Clone(entries)
		slices.SortStableFunc(full, func(a, b stored) int {
			if c := cmp.Compare(dist(a), dist(b)); c != 0 {
				return c
			}
			if c := cmp.Compare(DonorID(a.e.Key), DonorID(b.e.Key)); c != 0 {
				return c
			}
			return cmp.Compare(a.file, b.file) // same file: written order, kept by the stable sort
		})
		for k := 0; k <= n+1; k++ {
			for _, stale := range [][]int{nil, {k - 1}, {k}, {k - 1, k}} {
				if k == 0 && stale != nil || slices.Contains(stale, n) || slices.Contains(stale, n+1) {
					continue
				}
				s := open()
				donors, err := s.Donors(self)
				if err != nil {
					t.Fatal(err)
				}
				var want []transfer.Candidate
				for i, st := range full {
					if slices.Contains(stale, i) {
						spoil(s, st.e.Key)
						continue
					}
					want = append(want, transfer.Candidate{Donor: transfer.Donor{ID: DonorID(st.e.Key), Points: st.e.Points}})
				}
				if k > 0 && len(want) > k {
					want = want[:k]
				}
				got := donors.Rank(probes, k)
				if len(got) != len(want) {
					t.Fatalf("probes %d, k=%d, stale %v: %d candidates, want %d", pi, k, stale, len(got), len(want))
				}
				for i := range want {
					if got[i].Donor.ID != want[i].Donor.ID || !reflect.DeepEqual(got[i].Donor.Points, want[i].Donor.Points) {
						t.Fatalf("probes %d, k=%d, stale %v: candidate %d is %s, want %s (or its points differ)",
							pi, k, stale, i, got[i].Donor.ID, want[i].Donor.ID)
					}
				}
			}
		}
	}
}

// TestDonorIndexConcurrentWriters runs donor queries and census reads
// beside Puts through the handle, whole-file writes by another writer and
// appends by a second appending writer; run it with -race -count=10. Once
// the writers stop, the index must agree with a full re-read.
func TestDonorIndexConcurrentWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	self := testKey("cold", "new-device")
	for i := 0; i < 4; i++ {
		if err := s.Put(testKey("warm", fmt.Sprintf("seed-%d", i)), "k", shapePoints(float64(i+1), 1+0.05*float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(5)
	go func() { // Puts through this handle
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := s.Put(testKey("put", fmt.Sprintf("dev-%d", i)), "k", shapePoints(1, 1+0.01*float64(i), 0)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // another writer: add, rewrite, remove whole files
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			k := testKey("ext", fmt.Sprintf("dev-%d", i%5))
			data, err := encode(k, "k", shapePoints(2, 1+0.02*float64(i), 0), "")
			if err != nil {
				t.Error(err)
				return
			}
			tmp := filepath.Join(s.Dir(), fmt.Sprintf(".ext-%d", i))
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				t.Error(err)
				return
			}
			if err := os.Rename(tmp, filepath.Join(s.Dir(), fmt.Sprintf("ext-%d.points", i%5))); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 2 {
				os.Remove(filepath.Join(s.Dir(), fmt.Sprintf("ext-%d.points", (i+1)%5)))
			}
		}
	}()
	go func() { // a second appending writer, one locked append at a time
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := lockedAppend(filepath.Join(s.Dir(), "zz-appender.points"),
				Entry{Key: testKey("app", fmt.Sprintf("dev-%d", i%7)), Points: shapePoints(3, 1+0.03*float64(i), 0)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // donor queries
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			donors, err := s.Donors(self)
			if err != nil {
				t.Error(err)
				return
			}
			if donors.Len() == 0 || len(donors.Rank(indexProbes[i%len(indexProbes)], 4)) == 0 {
				t.Error("the seeded donors should always rank")
				return
			}
		}
	}()
	go func() { // census reads
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			st, err := s.Stats()
			if err != nil {
				t.Error(err)
				return
			}
			if st.CorruptFiles != 0 && haveLocks {
				t.Errorf("census counted %d corrupt entries while writers appended", st.CorruptFiles)
				return
			}
		}
	}()
	wg.Wait()
	checkIndexMatchesRef(t, s, self, "after the writers")
}
