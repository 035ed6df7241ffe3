package modelstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"fupermod/internal/core"
	"fupermod/internal/transfer"
)

// This file is the store's in-memory index: one record per *.points file
// holding what a donor search and the store census need — the file's stat
// signature, its decoded key, whether it may donate, its donor ID and its
// shape fingerprint — and never its points. A transfer fill ranks the whole
// store by cached fingerprint and reads only the few files it hands to
// transfer.Acquire, where DonorPool decodes every file and transfer.Rank
// re-fingerprints every curve.
//
// The directory stays the source of truth. Every query refreshes the index
// with one directory listing and one stat per file: a file whose signature
// changed is decoded again, a file no longer listed is dropped, so writes
// from other processes sharing the directory are seen exactly as a full
// re-read would see them. The first query builds the index; Open does not.

// fileSig is the stat signature a record was decoded under. An atomic
// rename (Put, or any writer of the same format) gives the file a new
// identity; an in-place write changes its size or modification time.
type fileSig struct {
	size     int64
	mtime    int64 // UnixNano
	dev, ino uint64
}

// statSig stats one file (following symlinks, as Load's open does).
func statSig(path string) (fileSig, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return fileSig{}, err
	}
	dev, ino := fileID(fi)
	return fileSig{size: fi.Size(), mtime: fi.ModTime().UnixNano(), dev: dev, ino: ino}, nil
}

// record is the index's view of one file. It is immutable once built, so
// snapshots share records with the index.
type record struct {
	name        string // file name in the store directory
	corrupt     bool   // unreadable, or failed to decode
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

// slot is one index entry: the record, the signature it was decoded under,
// and the refresh generation that last listed the file.
type slot struct {
	sig  fileSig
	seen uint64
	// retry: the file could not be stat'ed or read (not merely decoded), so
	// the next refresh tries again whatever its signature.
	retry bool
	rec   *record
}

// refreshLocked brings the index up to date with the directory. Caller
// holds s.idxMu.
func (s *Store) refreshLocked() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	if s.idx == nil {
		s.idx = make(map[string]slot, len(names))
	}
	s.gen++
	for _, name := range names {
		if !strings.HasSuffix(name, ".points") {
			continue
		}
		path := filepath.Join(s.dir, name)
		sig, err := statSig(path)
		sl, ok := s.idx[name]
		if !ok || sl.retry || sig != sl.sig {
			sl = indexFile(path, name, sig, err)
		}
		sl.seen = s.gen
		s.idx[name] = sl
	}
	for name, sl := range s.idx {
		if sl.seen != s.gen {
			delete(s.idx, name)
		}
	}
	return nil
}

// indexFile reads and decodes one file into a fresh slot; statErr is the
// error of the stat that produced sig.
func indexFile(path, name string, sig fileSig, statErr error) slot {
	rec := &record{name: name, corrupt: true}
	sl := slot{sig: sig, rec: rec, retry: true}
	if statErr != nil {
		return sl
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return sl
	}
	sl.retry = false
	e, err := Decode(path, data)
	if err != nil {
		return sl
	}
	rec.corrupt = false
	rec.key = e.Key
	rec.transferred = e.Transfer != ""
	if !rec.transferred && len(e.Points) >= 2 {
		rec.donor = true
		rec.id = DonorID(e.Key)
		if fp, err := transfer.FingerprintPoints(e.Points); err == nil {
			rec.fp, rec.hasFP = fp, true
		}
	}
	return sl
}

// Donors is one fill's snapshot of the donor index: the entries eligible to
// donate to the key being filled, as of one refresh.
type Donors struct {
	dir  string
	recs []*record // sorted by file name, so full ranking ties break alike on every replica
}

// Donors refreshes the index and snapshots the pool DonorPool would load
// for exclude — intact full sweeps of at least two points, the key itself
// left out — without reading any points.
func (s *Store) Donors(exclude Key) (*Donors, error) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if err := s.refreshLocked(); err != nil {
		return nil, err
	}
	d := &Donors{dir: s.dir}
	for _, sl := range s.idx {
		if sl.rec.donor && sl.rec.key != exclude {
			d.recs = append(d.recs, sl.rec)
		}
	}
	slices.SortFunc(d.recs, func(a, b *record) int { return strings.Compare(a.name, b.name) })
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

// Rank is transfer.Rank over the snapshot: donors ordered by cached
// fingerprint under transfer.Rank's rule, at most max candidates returned
// (max <= 0 returns all). Points are read only for the returned donors, in
// rank order; a donor whose file no longer decodes, now carries transfer
// provenance or now holds another key is skipped and the next one read in
// its place.
func (d *Donors) Rank(probes []core.Point, max int) []transfer.Candidate {
	r := transfer.NewRanker(probes)
	ranked := make([]rankedRecord, 0, len(d.recs))
	for _, rec := range d.recs {
		if rec.hasFP {
			ranked = append(ranked, rankedRecord{rec: rec, dist: r.Distance(rec.fp)})
		}
	}
	transfer.SortRanked(ranked, func(x rankedRecord) (float64, string) { return x.dist, x.rec.id })
	n := len(ranked)
	if max > 0 && max < n {
		n = max
	}
	out := make([]transfer.Candidate, 0, n)
	for _, x := range ranked {
		if max > 0 && len(out) == max {
			break
		}
		path := filepath.Join(d.dir, x.rec.name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		e, err := Decode(path, data)
		if err != nil || e.Key != x.rec.key || e.Transfer != "" || len(e.Points) < 2 {
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
