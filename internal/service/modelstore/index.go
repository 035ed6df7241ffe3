package modelstore

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/transfer"
)

// This file is the store's in-memory index: one record per entry — where
// its bytes are (file, offset, length), its decoded key, whether it may
// donate, its donor ID and its shape fingerprint, never its points — and,
// per key, which of the key's entries is live. Get, Load, Stats, Donors
// and DonorPool all read through it: a fill finds its key by lookup, a
// census counts records, and a transfer fill ranks the store by cached
// fingerprint and reads only the few entries it hands to transfer.Acquire.
//
// The directory stays the source of truth. Every query refreshes the index
// with one stat of the directory — a listing only when it changed — and
// one stat per file it must check, and reads only what changed: a file
// that grew under the same identity is read from where the index stopped,
// a file that shrank below that point, was replaced or was rewritten in
// place is read again in full, and a file no longer listed is dropped.
// Load, Stats and Donors check every file; a lookup (Get) checks the files
// that hold the key and the watched ones — append files, files not yet
// settled — but not the sealed one-entry files a store written before
// append files is made of (refreshKeyLocked). A Put indexes its own entry
// without reading it back. The first query builds the index; Open does
// not.
//
// The live entry of a key is its last intact entry in store order: files
// in byte order of name, entries within a file in offset order. A corrupt
// entry never hides an intact one; a key with no intact entry but a
// corrupt one whose header parses reports that damage. A Put whose key is
// live in a file ranking above the handle's own starts a new append file,
// which ranks above every other, so a re-sweep is what every later read
// returns.

// fileSig is the stat signature a file was read under: its identity, and
// the size and modification time the read stopped at.
type fileSig struct {
	size     int64
	mtime    int64 // UnixNano
	dev, ino uint64
}

func sameID(a, b fileSig) bool { return a.dev == b.dev && a.ino == b.ino }

// statSig stats one file (following symlinks, as a read's open does).
func statSig(path string) (fileSig, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return fileSig{}, err
	}
	return sigOf(fi), nil
}

// fstatSig stats an open file; linked is false once its name is gone.
func fstatSig(f *os.File) (sig fileSig, linked bool, err error) {
	fi, err := f.Stat()
	if err != nil {
		return fileSig{}, false, err
	}
	return sigOf(fi), isLinked(fi), nil
}

func sigOf(fi os.FileInfo) fileSig {
	dev, ino := fileID(fi)
	return fileSig{size: fi.Size(), mtime: fi.ModTime().UnixNano(), dev: dev, ino: ino}
}

// record is the index's view of one entry. It is immutable once built, so
// snapshots share records with the index.
type record struct {
	name   string // file name in the store directory
	off, n int64  // the entry's byte range in the file
	// corrupt: the bytes do not decode to an entry in the store's encoding
	// (err says why), the file is unreadable, or — tail — they are the
	// unfinished end of a torn append.
	corrupt bool
	tail    bool
	err     error
	// hasKey: key is valid — always for an intact entry, for a corrupt one
	// only when its "# store:" line survived.
	hasKey      bool
	key         Key
	transferred bool
	// donor is DonorPool's eligibility before the per-query exclusion of
	// the key being filled: intact, not transferred, at least two points.
	donor bool
	// hasFP: the curve has a fingerprint (two distinct sizes). A donor
	// without one counts in the pool but is never ranked, as in
	// transfer.Rank.
	hasFP bool
	id    string // DonorID(key), donors only
	fp    transfer.Fingerprint
}

// newRecord indexes one intact entry.
func newRecord(name string, off, n int64, e Entry) *record {
	r := &record{name: name, off: off, n: n, hasKey: true, key: e.Key, transferred: e.Transfer != ""}
	if !r.transferred && len(e.Points) >= 2 {
		r.donor = true
		r.id = DonorID(e.Key)
		if fp, err := transfer.FingerprintPoints(e.Points); err == nil {
			r.fp, r.hasFP = fp, true
		}
	}
	return r
}

// cmpRecord is store order.
func cmpRecord(a, b *record) int {
	if c := cmp.Compare(a.name, b.name); c != 0 {
		return c
	}
	return cmp.Compare(a.off, b.off)
}

// fileRec is the index's state for one *.points file.
type fileRec struct {
	name string
	sig  fileSig   // the identity, size and mtime the last read stopped at
	end  int64     // offset just past the last complete entry
	recs []*record // the complete entries, in file order
	// endSum checksums the last complete entry's bytes: a read that resumes
	// at end first checks they are still there, since a replaced file can
	// come back under a recycled inode number.
	endSum uint32
	// rest is a torn tail after end, or — with retry — the whole file when
	// it could not be stat'ed or read.
	rest *record
	// pending: bytes after end were an append in progress (the writer held
	// its lock) at the last read; the next refresh reads them again.
	pending bool
	retry   bool
	synced  uint64 // the refresh generation that last synced the file
}

// keyState holds every record of one key and which of them is live.
type keyState struct {
	recs []*record
	live *record // the last intact record in store order
	bad  *record // the last corrupt record in store order
}

func (ks *keyState) settle() {
	ks.live, ks.bad = nil, nil
	for _, r := range ks.recs {
		ks.note(r)
	}
}

func (ks *keyState) note(r *record) {
	if r.corrupt {
		if ks.bad == nil || cmpRecord(ks.bad, r) < 0 {
			ks.bad = r
		}
	} else if ks.live == nil || cmpRecord(ks.live, r) < 0 {
		ks.live = r
	}
}

// addRec and dropRec keep the per-key table in step with the files'
// records. Caller holds s.idxMu.
func (s *Store) addRec(r *record) {
	if !r.hasKey {
		return
	}
	ks := s.keys[r.key]
	if ks == nil {
		ks = &keyState{}
		s.keys[r.key] = ks
	}
	ks.recs = append(ks.recs, r)
	ks.note(r)
}

func (s *Store) dropRec(r *record) {
	if r == nil || !r.hasKey {
		return
	}
	ks := s.keys[r.key]
	if ks == nil {
		return
	}
	i := slices.Index(ks.recs, r)
	if i < 0 {
		return
	}
	ks.recs = slices.Delete(ks.recs, i, i+1)
	if len(ks.recs) == 0 {
		delete(s.keys, r.key)
		return
	}
	if ks.live == r || ks.bad == r {
		ks.settle()
	}
}

// clearFile forgets what the index knows of fr from offset from on (an
// entry boundary): the tail always, the complete entries too when from is
// 0. Caller holds s.idxMu.
func (s *Store) clearFile(fr *fileRec, from int64) {
	s.dropRec(fr.rest)
	fr.rest, fr.pending, fr.retry = nil, false, false
	if from == 0 {
		for _, r := range fr.recs {
			s.dropRec(r)
		}
		fr.recs, fr.end = nil, 0
	}
}

// dirSettle is how long after its last change a directory's stat
// signature is trusted to reveal the next one: longer than a tick of the
// filesystem's timestamps, since a file created within the same tick as
// the change before it leaves the directory's mtime as it was. Two seconds
// covers the coarsest common tick (FAT's). An mtime with sub-second digits
// comes from a filesystem with a fine tick — the kernel's coarse clock, at
// most 10 ms, or finer — which settles in 100 ms: a lookup during the
// window lists the directory again, and a process's first spill opens one.
func dirSettle(mtime int64) time.Duration {
	if mtime%int64(time.Second) != 0 {
		return 100 * time.Millisecond
	}
	return 2 * time.Second
}

// listLocked returns the directory's *.points files: the last listing when
// the directory's signature is what it was then and had already settled
// when it was taken, a fresh listing otherwise. A fresh listing brings the
// file table in step with the directory: a file new to it is unread, so
// the next sync reads it in full, and a file no longer listed is dropped.
// Caller holds s.idxMu.
func (s *Store) listLocked() ([]string, error) {
	sig, err := statSig(s.dir)
	if err == nil && !s.listedAt.IsZero() && sig == s.dirSig && s.listedAt.Sub(time.Unix(0, sig.mtime)) > dirSettle(sig.mtime) {
		return s.names, nil
	}
	listedAt := time.Now()
	names, err := entryFiles(s.dir)
	if err != nil {
		return nil, err
	}
	s.names, s.dirSig, s.listedAt = names, sig, listedAt
	if s.files == nil {
		s.files = make(map[string]*fileRec, len(names))
		s.keys = make(map[Key]*keyState)
		s.watched = make(map[*fileRec]struct{})
	}
	for _, name := range names {
		s.fileFor(name)
	}
	for name, fr := range s.files {
		if _, ok := slices.BinarySearch(names, name); !ok {
			s.dropFile(fr)
		}
	}
	return names, nil
}

// fileFor returns the index's state for a listed file, creating it unread
// for a file new to the index. Caller holds s.idxMu.
func (s *Store) fileFor(name string) *fileRec {
	fr := s.files[name]
	if fr == nil {
		fr = &fileRec{name: name, retry: true}
		s.files[name] = fr
		s.watched[fr] = struct{}{}
	}
	return fr
}

// dropFile forgets a file that is gone. Caller holds s.idxMu.
func (s *Store) dropFile(fr *fileRec) {
	s.clearFile(fr, 0)
	delete(s.files, fr.name)
	delete(s.watched, fr)
}

// refreshLocked brings the index up to date with the directory. keep, when
// set, receives every intact entry the refresh decodes, so a Load that
// refreshes a cold index decodes each entry once. Caller holds s.idxMu.
func (s *Store) refreshLocked(keep func(*record, Entry)) error {
	names, err := s.listLocked()
	if err != nil {
		return err
	}
	s.gen++
	for _, name := range names {
		s.syncFile(s.fileFor(name), keep)
	}
	return nil
}

// refreshKeyLocked is the refresh a lookup of one key needs: the listing,
// as refreshLocked takes it, then a sync of every file holding one of the
// key's entries and every watched file — all but the sealed ones. A sealed
// file holds one entry and nothing after it, under a name no handle
// appends to: every file written before append files existed. It changes
// by damage, which matters to its own key alone, or by replacement, which
// the next lookup of the key it held, or the next Load, Stats or Donors
// query, reads. So a lookup in a directory of one-entry files stats a
// handful of them, not every one. Caller holds s.idxMu.
func (s *Store) refreshKeyLocked(k Key) error {
	if _, err := s.listLocked(); err != nil {
		return err
	}
	s.gen++
	if ks := s.keys[k]; ks != nil {
		// A sync rewrites ks.recs, so collect the files first.
		var buf [4]*fileRec
		held := buf[:0]
		for _, r := range ks.recs {
			if fr := s.files[r.name]; fr != nil && !slices.Contains(held, fr) {
				held = append(held, fr)
			}
		}
		for _, fr := range held {
			s.syncFile(fr, nil)
		}
	}
	for fr := range s.watched {
		s.syncFile(fr, nil)
	}
	return nil
}

// sealed reports whether a lookup of another key may skip fr: a settled
// file holding one complete entry and nothing after it, whose name is not
// an append file's.
func (fr *fileRec) sealed() bool {
	return !fr.retry && !fr.pending && fr.rest == nil && len(fr.recs) == 1 && !strings.HasPrefix(fr.name, spillPrefix)
}

// watch keeps fr's place in the watched set in step with what the index
// read of it. Caller holds s.idxMu.
func (s *Store) watch(fr *fileRec) {
	if fr.sealed() {
		delete(s.watched, fr)
	} else {
		s.watched[fr] = struct{}{}
	}
}

// syncFile re-reads whatever changed in one file since the index last read
// it, once per refresh.
func (s *Store) syncFile(fr *fileRec, keep func(*record, Entry)) {
	if fr.synced == s.gen {
		return
	}
	fr.synced = s.gen
	s.readChanges(fr, keep)
	if s.files[fr.name] == fr { // else dropped: the file is gone
		s.watch(fr)
	}
}

// readChanges is syncFile's read.
func (s *Store) readChanges(fr *fileRec, keep func(*record, Entry)) {
	path := filepath.Join(s.dir, fr.name)
	sig, err := statSig(path)
	if err != nil {
		s.unreadable(fr, sig, err)
		return
	}
	full := fr.retry || !sameID(sig, fr.sig) || sig.size < fr.end // new, replaced, or shrunk into its entries
	racy := !full && !fr.pending && sig.size == fr.sig.size
	if racy && sig.mtime == fr.sig.mtime {
		return
	}
	f, err := os.Open(path)
	if err != nil {
		s.unreadable(fr, sig, err)
		return
	}
	defer f.Close()
	if racy {
		// Same size, new mtime: rewritten in place — or a stat that raced
		// an append, which sets the mtime before the size grows. Only a
		// stat taken while no writer holds the file tells the two apart.
		switch locked, err := tryLockShared(f); {
		case err != nil:
			s.unreadable(fr, sig, err)
			return
		case locked:
			now, _, err := fstatSig(f)
			unlock(f)
			if err != nil {
				s.unreadable(fr, sig, err)
				return
			}
			if now == fr.sig {
				return
			} else if now.size == fr.sig.size || !sameID(now, fr.sig) {
				full = true
			}
		}
	}
	if !full && len(fr.recs) > 0 && !sameTail(f, fr) {
		full = true
	}
	from := fr.end
	if full {
		from = 0
	}
	s.clearFile(fr, from)
	if err := s.scanFile(fr, f, path, from, keep); err != nil {
		s.unreadable(fr, sig, err)
	}
}

// sameTail reports whether f still holds fr's last complete entry where
// the index read it.
func sameTail(f *os.File, fr *fileRec) bool {
	last := fr.recs[len(fr.recs)-1]
	b := make([]byte, last.n)
	n, _ := f.ReadAt(b, last.off)
	return n == len(b) && crc32.Checksum(b, castagnoli) == fr.endSum
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// unreadable records a file that could not be stat'ed or read as one
// corrupt record, retried on the next refresh. A file removed since the
// listing is simply gone.
func (s *Store) unreadable(fr *fileRec, sig fileSig, err error) {
	if errors.Is(err, fs.ErrNotExist) {
		s.dropFile(fr)
		return
	}
	s.clearFile(fr, 0)
	fr.sig, fr.retry = sig, true
	fr.rest = &record{name: fr.name, corrupt: true, err: err}
}

// scanFile indexes f's entries from offset from, then settles its tail:
// nothing, an append in progress (pending), or a torn write. The file's
// signature is recorded under the shared lock, so no append can be half
// reflected in it; when a writer holds the file, the next refresh reads
// on from here instead of trusting the signature.
func (s *Store) scanFile(fr *fileRec, f *os.File, path string, from int64, keep func(*record, Entry)) error {
	sc := newScanner(f, from)
	if err := s.scanEntries(fr, sc, path, keep); err != nil {
		return err
	}
	locked, err := tryLockShared(f)
	if err != nil {
		return err
	}
	if locked {
		defer unlock(f)
	}
	if locked && (len(sc.tail()) > 0 || fr.end == 0) {
		// No writer: whatever the tail was is settled now. Read it again
		// under the lock — it may have completed since. A file still empty
		// is damage too: no writer leaves an append file empty (createOwn),
		// so it is the crash-truncated remains of a write.
		sc.reset(fr.end)
		if err := s.scanEntries(fr, sc, path, keep); err != nil {
			return err
		}
		if tail := sc.tail(); len(tail) > 0 || fr.end == 0 {
			// A tail lacks a complete trailer line, so it is never the
			// layout encodeTo writes: decoding it always reports why.
			r := &record{name: fr.name, off: fr.end, n: int64(len(tail)), corrupt: true, tail: true}
			_, r.err = decodeAt(path, fr.end, tail)
			r.key, r.hasKey = headerKey(tail)
			fr.rest = r
			s.addRec(r)
		}
	}
	// A writer holds the file: a tail is an append in progress, neither
	// served nor counted until it completes.
	fr.pending = !locked
	if fr.sig, _, err = fstatSig(f); err != nil {
		return err
	}
	fr.sig.size = sc.end() // the bytes read, whatever was appended since
	return nil
}

// scanEntries indexes the complete entries sc returns, advancing fr.end.
func (s *Store) scanEntries(fr *fileRec, sc *scanner, path string, keep func(*record, Entry)) error {
	for {
		seg, off, ok, err := sc.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		r := decodeRecord(fr.name, path, off, seg, keep)
		fr.recs = append(fr.recs, r)
		fr.end, fr.endSum = off+int64(len(seg)), crc32.Checksum(seg, castagnoli)
		s.addRec(r)
	}
}

// decodeRecord decodes one complete entry into a record. Only the bytes
// encodeTo writes are intact: anything else that happens to decode is
// corrupt, so no entry a reader serves can differ from the bytes on disk.
// Decode's scan reads neither the device value nor how each number is
// spelled; encodesTo checks both, here rather than on every re-read.
func decodeRecord(name, path string, off int64, seg []byte, keep func(*record, Entry)) *record {
	e, err := decodeAt(path, off, seg)
	if err == nil && !encodesTo(e, seg) {
		err = errNotEncoded(entryLabel(path, off))
	}
	if err != nil {
		r := &record{name: name, off: off, n: int64(len(seg)), corrupt: true, err: err}
		r.key, r.hasKey = headerKey(seg)
		return r
	}
	r := newRecord(name, off, int64(len(seg)), e)
	if keep != nil {
		keep(r, e)
	}
	return r
}

// indexPut records this handle's own append without reading it back: the
// entry e, encoded as data, landed at off in name, and sig is the file
// just after. The index takes it only when it had read the file exactly up
// to off; otherwise the next refresh reads the file.
func (s *Store) indexPut(name string, off int64, data []byte, sig fileSig, e Entry) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.files == nil {
		return // no query has built the index yet
	}
	fr := s.files[name]
	switch {
	case fr == nil && off == 0:
		fr = &fileRec{name: name}
		s.files[name] = fr
	case fr == nil || fr.retry || fr.end != off || !sameID(fr.sig, sig):
		return
	}
	s.clearFile(fr, off)
	n := int64(len(data))
	r := newRecord(name, off, n, e)
	fr.recs = append(fr.recs, r)
	fr.end, fr.endSum, fr.sig = off+n, crc32.Checksum(data, castagnoli), sig
	s.addRec(r)
	s.watch(fr)
}

// lookup refreshes the index and returns a key's live record and its last
// corrupt one.
func (s *Store) lookup(k Key) (live, bad *record, err error) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if err := s.refreshKeyLocked(k); err != nil {
		return nil, nil, err
	}
	if ks := s.keys[k]; ks != nil {
		return ks.live, ks.bad, nil
	}
	return nil, nil, nil
}

// readRecord reads and decodes one indexed entry from f, path's open file.
func readRecord(f *os.File, path string, r *record) (Entry, error) {
	bp := entryBuffers.Get().(*[]byte)
	defer entryBuffers.Put(bp)
	b := slices.Grow((*bp)[:0], int(r.n))[:r.n]
	*bp = b
	if n, err := f.ReadAt(b, r.off); n < len(b) {
		return Entry{}, fmt.Errorf("modelstore: %s: %w", entryLabel(path, r.off), err)
	}
	return decodeAt(path, r.off, b)
}

// readEntry opens r's file and reads the entry.
func (s *Store) readEntry(r *record) (Entry, error) {
	path := filepath.Join(s.dir, r.name)
	f, err := os.Open(path)
	if err != nil {
		return Entry{}, fmt.Errorf("modelstore: %w", err)
	}
	defer f.Close()
	return readRecord(f, path, r)
}

// Donors is one fill's snapshot of the donor index: the entries eligible to
// donate to the key being filled, as of one refresh.
type Donors struct {
	s    *Store
	recs []*record // in no set order: Rank's order ends with store order
}

// Donors refreshes the index and snapshots the pool DonorPool would load
// for exclude — the live entries that are intact full sweeps of at least
// two points, the key itself left out — without reading any points.
func (s *Store) Donors(exclude Key) (*Donors, error) {
	s.idxMu.Lock()
	if err := s.refreshLocked(nil); err != nil {
		s.idxMu.Unlock()
		return nil, err
	}
	d := &Donors{s: s, recs: make([]*record, 0, len(s.keys))}
	for _, ks := range s.keys {
		if r := ks.live; r != nil && r.donor && r.key != exclude {
			d.recs = append(d.recs, r)
		}
	}
	s.idxMu.Unlock()
	return d, nil
}

// Len is the size of the donor pool. An empty pool means there is nothing
// to transfer from, before any probe is spent.
func (d *Donors) Len() int { return len(d.recs) }

// rankedRecord is one snapshot donor with its distance to the probes.
type rankedRecord struct {
	rec  *record
	dist float64
}

// cmpRanked is Rank's order: transfer.Rank's (distance, donor ID), then
// store order, as transfer.Rank's stable sort over DonorPool leaves full
// ties. Records are distinct entries, so the order is total and its top k
// do not depend on the order the snapshot holds them in.
func cmpRanked(a, b rankedRecord) int {
	if c := transfer.CompareRanked(a.dist, a.rec.id, b.dist, b.rec.id); c != 0 {
		return c
	}
	return cmpRecord(a.rec, b.rec)
}

// ranked returns the snapshot's fingerprinted donors in Rank's order: all
// of them when max <= 0, else the first max, kept in one pass over the
// snapshot in a sorted buffer of max.
func (d *Donors) ranked(r transfer.Ranker, max int) []rankedRecord {
	if max <= 0 {
		all := make([]rankedRecord, 0, len(d.recs))
		for _, rec := range d.recs {
			if rec.hasFP {
				all = append(all, rankedRecord{rec: rec, dist: r.Distance(rec.fp)})
			}
		}
		slices.SortFunc(all, cmpRanked)
		return all
	}
	top := make([]rankedRecord, 0, max+1)
	for _, rec := range d.recs {
		if !rec.hasFP {
			continue
		}
		x := rankedRecord{rec: rec, dist: r.Distance(rec.fp)}
		if len(top) == max && cmpRanked(x, top[max-1]) > 0 {
			continue
		}
		i, _ := slices.BinarySearchFunc(top, x, cmpRanked)
		if top = slices.Insert(top, i, x); len(top) > max {
			top = top[:max]
		}
	}
	return top
}

// Rank is transfer.Rank over the snapshot: donors ordered by cached
// fingerprint under transfer.Rank's rule, at most max candidates returned
// (max <= 0 returns all). Points are read only for the returned donors, in
// rank order; a donor whose bytes no longer decode, now carry transfer
// provenance or now hold another key is skipped and the next one read in
// its place — from the full order, since the one-pass selection kept only
// the first max.
func (d *Donors) Rank(probes []core.Point, max int) []transfer.Candidate {
	r := transfer.NewRanker(probes)
	ranked, full := d.ranked(r, max), max <= 0
	out := make([]transfer.Candidate, 0, len(ranked))
	for i := 0; i < len(ranked) && (max <= 0 || len(out) < max); i++ {
		x := ranked[i]
		e, err := d.s.readEntry(x.rec)
		if err != nil || e.Key != x.rec.key || e.Transfer != "" || len(e.Points) < 2 {
			if !full {
				// The full order begins with the buffer, so rank i+1 follows.
				ranked, full = d.ranked(r, 0), true
			}
			continue
		}
		out = append(out, transfer.Candidate{Donor: transfer.Donor{ID: x.rec.id, Points: e.Points}, Distance: x.dist})
	}
	return out
}

// Source adapts the snapshot into transfer.Acquire's donor source, reading
// points for at most max candidates: pass the Config.Candidates the
// acquisition gates.
func (d *Donors) Source(max int) transfer.DonorSource {
	return func(probes []core.Point) ([]transfer.Candidate, error) {
		return d.Rank(probes, max), nil
	}
}
