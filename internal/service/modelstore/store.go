// Package modelstore is the durable half of the partition service's model
// cache: every fitted model's underlying benchmark sweep is spilled to disk
// as a points-file entry and reloaded on start — so a restarted server (or
// a fupermod-bench / fupermod-verify run pointed at the same directory)
// reuses the expensive measurements instead of re-sweeping. Persisting the
// measurement database is what amortises the cost of functional
// performance models across runs (Lastovetsky et al.'s self-adaptable
// algorithms reuse refined models across invocations; Stevens–Klöckner's
// black-box GPU models pay off through exactly such a persisted model
// database).
//
// Each entry is a regular points file (model.WritePoints format) with two
// extra comment headers the format ignores: a "# store:" line carrying the
// full cache key and a trailing "# end:" line carrying the point count.
// Entries sit back to back in *.points files, each process appending its
// spills to one file of its own (append.go); a one-entry file — the
// layout before append files — is still a points file any tool in the
// chain reads. The trailer is the torn-write detector: an entry cut short
// by a crash mid-append fails the count check, or lacks its trailer, and
// is reported as corrupt — the caller re-sweeps instead of serving a
// partial model.
package modelstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/flight"
	"fupermod/internal/model"
)

// Key identifies one stored sweep: the tenant it belongs to, the measured
// virtual device and its noise conditions, the size grid, and the benchmark
// precision the sweep was measured under. The model *kind* is deliberately
// absent — the stored artefact is the measurement, and any model kind can
// be refitted from it — as is everything request-scoped.
type Key struct {
	// Tenant namespaces entries exactly like the in-memory cache does.
	Tenant string
	// Device is the canonical device string (a preset name, or the
	// service's fingerprinted machine-device reference).
	Device string
	// Seed and Noise are the measurement-noise conditions.
	Seed  int64
	Noise float64
	// Lo, Hi, N describe the geometric size grid.
	Lo, Hi, N int
	// Prec is the canonical precision string (EncodePrecision); sweeps
	// under different stopping rules are different measurements.
	Prec string
}

// EncodePrecision renders a precision as the canonical string stored in
// keys, with full round-trip float formatting.
func EncodePrecision(p core.Precision) string {
	return fmt.Sprintf("%d:%d:%s:%s:%s:%d",
		p.MinReps, p.MaxReps, fmtG(p.Confidence), fmtG(p.RelErr), fmtG(p.MaxSeconds), p.Warmup)
}

// DecodePrecision parses EncodePrecision's output.
func DecodePrecision(s string) (core.Precision, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return core.Precision{}, fmt.Errorf("modelstore: precision %q: want 6 fields", s)
	}
	var p core.Precision
	var err error
	if p.MinReps, err = strconv.Atoi(parts[0]); err != nil {
		return core.Precision{}, fmt.Errorf("modelstore: precision %q: %w", s, err)
	}
	if p.MaxReps, err = strconv.Atoi(parts[1]); err != nil {
		return core.Precision{}, fmt.Errorf("modelstore: precision %q: %w", s, err)
	}
	if p.Confidence, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return core.Precision{}, fmt.Errorf("modelstore: precision %q: %w", s, err)
	}
	if p.RelErr, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return core.Precision{}, fmt.Errorf("modelstore: precision %q: %w", s, err)
	}
	if p.MaxSeconds, err = strconv.ParseFloat(parts[4], 64); err != nil {
		return core.Precision{}, fmt.Errorf("modelstore: precision %q: %w", s, err)
	}
	if p.Warmup, err = strconv.Atoi(parts[5]); err != nil {
		return core.Precision{}, fmt.Errorf("modelstore: precision %q: %w", s, err)
	}
	return p, nil
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Validate reports whether the key is storable.
func (k Key) Validate() error {
	if k.Tenant == "" {
		return fmt.Errorf("modelstore: key needs a tenant")
	}
	if k.Device == "" {
		return fmt.Errorf("modelstore: key needs a device")
	}
	if math.IsNaN(k.Noise) || math.IsInf(k.Noise, 0) {
		// NaN != NaN: such a key could never be found again, so every fill
		// of it would append another entry.
		return fmt.Errorf("modelstore: noise %g must be finite", k.Noise)
	}
	if k.Lo <= 0 || k.Hi < k.Lo || k.N <= 0 {
		return fmt.Errorf("modelstore: invalid size grid lo=%d hi=%d n=%d", k.Lo, k.Hi, k.N)
	}
	if k.Prec == "" {
		return fmt.Errorf("modelstore: key needs a precision string")
	}
	if _, err := DecodePrecision(k.Prec); err != nil {
		return err
	}
	return nil
}

// id is the canonical key string: every field, url-escaped where free-form,
// '|'-separated. Equal keys have equal ids and vice versa.
func (k Key) id() string { return string(k.appendID(nil)) }

// appendID appends the key's id to b.
func (k Key) appendID(b []byte) []byte {
	b = append(b, url.QueryEscape(k.Tenant)...)
	b = append(b, '|')
	b = append(b, url.QueryEscape(k.Device)...)
	b = append(b, '|')
	b = strconv.AppendInt(b, k.Seed, 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, k.Noise, 'g', -1, 64)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.Lo), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.Hi), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.N), 10)
	b = append(b, '|')
	return append(b, url.QueryEscape(k.Prec)...)
}

func parseKeyID(s string) (Key, error) {
	parts := strings.Split(s, "|")
	if len(parts) != 8 {
		return Key{}, fmt.Errorf("modelstore: key %q: want 8 fields, got %d", s, len(parts))
	}
	var k Key
	var err error
	if k.Tenant, err = url.QueryUnescape(parts[0]); err != nil {
		return Key{}, fmt.Errorf("modelstore: key %q: %w", s, err)
	}
	if k.Device, err = url.QueryUnescape(parts[1]); err != nil {
		return Key{}, fmt.Errorf("modelstore: key %q: %w", s, err)
	}
	if k.Seed, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
		return Key{}, fmt.Errorf("modelstore: key %q: %w", s, err)
	}
	if k.Noise, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return Key{}, fmt.Errorf("modelstore: key %q: %w", s, err)
	}
	if k.Lo, err = strconv.Atoi(parts[4]); err != nil {
		return Key{}, fmt.Errorf("modelstore: key %q: %w", s, err)
	}
	if k.Hi, err = strconv.Atoi(parts[5]); err != nil {
		return Key{}, fmt.Errorf("modelstore: key %q: %w", s, err)
	}
	if k.N, err = strconv.Atoi(parts[6]); err != nil {
		return Key{}, fmt.Errorf("modelstore: key %q: %w", s, err)
	}
	if k.Prec, err = url.QueryUnescape(parts[7]); err != nil {
		return Key{}, fmt.Errorf("modelstore: key %q: %w", s, err)
	}
	if strings.ContainsRune(k.Device, '\n') {
		// encodeTo writes the device on a header line of its own, so such a
		// key has no entry Put would write.
		return Key{}, fmt.Errorf("modelstore: key %q: device holds a newline", s)
	}
	if err := k.Validate(); err != nil {
		return Key{}, err
	}
	return k, nil
}

// Entry is one loaded store record.
type Entry struct {
	Key    Key
	Kernel string
	Points []core.Point
	// Transfer is the provenance record of a warm-started entry: non-empty
	// when the points were acquired by cross-device model transfer
	// (internal/transfer) rather than a full sweep. Transferred entries
	// are bounded approximations, not raw measurements — the store audit
	// skips replaying them, and the donor search never offers them as
	// donors (no transitive transfer).
	Transfer string
}

// Corrupt describes one unreadable store entry: a torn write, a truncation,
// or hand-edited damage; Path is the file that holds it. Corrupt entries
// are never returned as data — the caller's recovery is to re-sweep.
type Corrupt struct {
	Path string
	Err  error
}

// Store is a directory of spilled sweeps. It is safe for concurrent use:
// the handle's appends serialise on an internal lock, and no reader — in
// this process or another — ever serves part of an entry (append.go).
type Store struct {
	dir string

	// mu serialises this handle's appends. own names its append file ("" until
	// the first Put) and ownPath is its path, ownSig carries its identity,
	// and ownEnd is the offset just past its last complete entry (-1 when
	// unknown).
	mu      sync.Mutex
	own     string
	ownPath string
	ownSig  fileSig
	ownEnd  int64

	// fills holds the in-progress Fill calls by key (see fill.go). Because
	// Open returns one shared handle per directory, it is the cross-replica
	// single-flight.
	fills flight.Group[Key, filled]

	// idxMu guards the index (index.go): files maps each *.points file name
	// to what the index read of it, watched holds the files every lookup
	// reads again (all but the sealed ones), keys maps each key to its
	// entries, and gen counts refreshes; names is the last directory
	// listing, taken at listedAt under the directory signature dirSig.
	idxMu    sync.Mutex
	files    map[string]*fileRec
	watched  map[*fileRec]struct{}
	keys     map[Key]*keyState
	gen      uint64
	names    []string
	dirSig   fileSig
	listedAt time.Time
}

// Open creates (if necessary) and opens the store directory. Every Open of
// one directory in a process returns the same *Store, so the per-key fill
// deduplication (Fill) spans replicas that share a -store-dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("modelstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	return openShared(dir), nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file that holds a key's live entry — or, for a key the
// store does not hold, the file this handle's next Put appends to.
func (s *Store) Path(k Key) string {
	if live, bad, err := s.lookup(k); err == nil && (live != nil || bad != nil) {
		if live == nil {
			live = bad
		}
		return filepath.Join(s.dir, live.name)
	}
	s.mu.Lock()
	own := s.own
	s.mu.Unlock()
	if own == "" {
		names, _ := entryFiles(s.dir)
		own = spillName(nextSpill(names))
	}
	return filepath.Join(s.dir, own)
}

// encodeTo renders one complete entry into buf: the store header, the
// transfer provenance (when present), the standard points file, and the
// count trailer.
func encodeTo(buf *bytes.Buffer, k Key, kernel string, pts []core.Point, transfer string) error {
	buf.WriteString("# store: ")
	buf.Write(k.appendID(buf.AvailableBuffer()))
	buf.WriteByte('\n')
	if transfer != "" {
		buf.WriteString("# transfer: ")
		buf.WriteString(transfer)
		buf.WriteByte('\n')
	}
	if err := model.WritePoints(buf, model.PointFile{Kernel: kernel, Device: k.Device, Points: pts}); err != nil {
		return err
	}
	buf.WriteString("# end: ")
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(len(pts)), 10))
	buf.WriteByte('\n')
	return nil
}

// encodeBuffers pools the encoding scratch of Put and encodesTo.
var encodeBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodesTo reports whether seg is exactly the bytes encodeTo writes for e.
func encodesTo(e Entry, seg []byte) bool {
	buf := encodeBuffers.Get().(*bytes.Buffer)
	defer encodeBuffers.Put(buf)
	buf.Reset()
	return encodeTo(buf, e.Key, e.Kernel, e.Points, e.Transfer) == nil && bytes.Equal(buf.Bytes(), seg)
}

// Put spills one sweep: one append to this handle's file, under the file's
// lock, so a crash at any instant leaves every earlier entry intact and at
// most a torn tail, which readers report corrupt and the next append cuts.
func (s *Store) Put(k Key, kernel string, pts []core.Point) error {
	return s.PutTransfer(k, kernel, pts, "")
}

// PutTransfer is Put with a transfer provenance record attached to the
// entry. The provenance must be a single line of printable ASCII — it
// lives on a comment header line of the points file, and anything a line
// scanner could mangle is refused here rather than discovered corrupt
// later.
func (s *Store) PutTransfer(k Key, kernel string, pts []core.Point, transfer string) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if len(pts) == 0 {
		return fmt.Errorf("modelstore: refusing to store empty sweep for %s", k.id())
	}
	for i := 0; i < len(transfer); i++ {
		if c := transfer[i]; c < 0x20 || c >= 0x7F {
			return fmt.Errorf("modelstore: transfer provenance must be printable ASCII, got byte %#x", c)
		}
	}
	if strings.TrimSpace(transfer) != transfer {
		// The header line scanner trims edges; an untrimmed record would
		// not round-trip byte-identically.
		return fmt.Errorf("modelstore: transfer provenance must not have leading/trailing spaces")
	}
	if strings.ContainsRune(k.Device, '\n') || strings.ContainsRune(kernel, '\n') || strings.TrimSpace(kernel) != kernel {
		// Both sit on header lines, and the kernel is read back trimmed: a
		// value that would not read back as written is refused here, not
		// stored as an entry no reader would serve.
		return fmt.Errorf("modelstore: kernel %q and device %q must each be one line, the kernel without edge spaces", kernel, k.Device)
	}
	buf := encodeBuffers.Get().(*bytes.Buffer)
	defer encodeBuffers.Put(buf)
	buf.Reset()
	if err := encodeTo(buf, k, kernel, pts, transfer); err != nil {
		return err
	}
	data := buf.Bytes()
	for rest := data; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n') // data ends in a newline
		if nl >= bufio.MaxScanTokenSize {
			// A line no reader's scanner can read: every reader would find
			// the entry corrupt, and every fill of the key would append
			// another copy.
			return fmt.Errorf("modelstore: refusing an entry with a line of %d bytes; readers read at most %d", nl, bufio.MaxScanTokenSize-1)
		}
		rest = rest[nl+1:]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh, torn := s.putPlan(k)
	for _, r := range torn {
		// The key's entry is a torn tail in another handle's file: cut it
		// before the replacement lands, so that file reads as if the
		// append had never started. A failed cut leaves a counted corrupt
		// tail; the replacement is appended regardless.
		_ = cutTail(filepath.Join(s.dir, r.name), r.off)
	}
	name, off, sig, exact, err := s.appendEntry(data, fresh)
	if err != nil {
		return err
	}
	if exact {
		s.indexPut(name, off, data, sig, Entry{Key: k, Kernel: kernel, Points: pts, Transfer: transfer})
	}
	return nil
}

// putPlan reads the index (as of the last query) for a Put of k: fresh is
// set when k is live in a file this handle's own file does not outrank —
// the Put then starts a new append file, so that the new entry is the one
// every later read returns — and torn lists k's torn tails in other files.
// Caller holds s.mu.
func (s *Store) putPlan(k Key) (fresh bool, torn []*record) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	ks := s.keys[k]
	if ks == nil {
		return false, nil
	}
	if r := ks.live; r != nil && s.own != "" && r.name > s.own && canOutrank(r.name) {
		fresh = true
	}
	for _, r := range ks.recs {
		if r.tail && r.name != s.own && haveLocks {
			torn = append(torn, r)
		}
	}
	return fresh, torn
}

// Decode parses and integrity-checks one entry by one scan of exactly the
// bytes encodeTo writes (scanEncoded). DecodeRef classifies whatever the scan
// refuses: damage gets the reference's message, and a layout the reference
// reads but encodeTo never writes (a blank line, a tab, reordered headers) is
// not in the store's encoding. TestDecodeMatchesRef and FuzzDecodeMatchesRef
// pin this contract. It is exported for the perf harness and the
// equivalence tests; regular access goes through Get and Load.
func Decode(path string, data []byte) (Entry, error) {
	if e, ok := scanEncoded(data); ok {
		return e, nil
	}
	if _, err := DecodeRef(path, data); err != nil {
		return Entry{}, err
	}
	return Entry{}, errNotEncoded(path)
}

// scanEncoded reads data as the layout encodeTo writes, trimming nothing and
// skipping no line: the store header, a transfer header when there is
// provenance, the points-file headers, one "d time reps ci" line per point
// with single spaces, the "# end: <count>" trailer, and nothing after. It
// returns what DecodeRef would, so it refuses what DecodeRef reads
// otherwise: a key id, provenance or kernel DecodeRef would trim, and a line
// DecodeRef's scanner cannot read. The device value is skipped: the key
// carries it, and Put stores devices with edge spaces, tabs and '\r'.
func scanEncoded(data []byte) (Entry, bool) {
	// One conversion: every value below is a substring of it, and the ones
	// an Entry keeps are cloned, so it does not pin the file's bytes.
	l := entryLines{rest: string(data), ok: true}
	id := l.next("# store: ")
	var transfer string
	if strings.HasPrefix(l.rest, "# transfer: ") {
		if transfer = l.next("# transfer: "); transfer == "" {
			return Entry{}, false
		}
	}
	l.exactly("# fupermod points v1")
	kernel := l.next("# kernel: ")
	l.next("# device: ")
	l.exactly("# columns: d time reps ci")
	if !l.ok || strings.TrimSpace(id) != id || strings.TrimSpace(transfer) != transfer || strings.TrimSpace(kernel) != kernel {
		return Entry{}, false
	}
	// Every line left but the trailer is a point.
	var pts []core.Point
	if n := strings.Count(l.rest, "\n") - 1; n > 0 {
		pts = make([]core.Point, n)
	}
	for i := range pts {
		p, ok := parsePoint(l.next(""))
		if !ok {
			return Entry{}, false
		}
		pts[i] = p
	}
	var count [20]byte
	end := l.next("# end: ")
	if !l.ok || l.rest != "" || end != string(strconv.AppendInt(count[:0], int64(len(pts)), 10)) {
		return Entry{}, false
	}
	key, err := parseKeyID(strings.Clone(id))
	if err != nil {
		return Entry{}, false
	}
	return Entry{Key: key, Kernel: strings.Clone(kernel), Points: pts, Transfer: strings.Clone(transfer)}, true
}

// entryLines walks an entry's lines for scanEncoded. The first line that
// does not fit turns ok false, and every later call returns "".
type entryLines struct {
	rest string
	ok   bool
}

// next consumes the next line, which must open with prefix, and returns
// the rest of it. A line of bufio.MaxScanTokenSize bytes or more does not
// fit: DecodeRef's line scanner cannot read it.
func (l *entryLines) next(prefix string) string {
	nl := strings.IndexByte(l.rest, '\n')
	if !l.ok || nl < 0 || nl >= bufio.MaxScanTokenSize || !strings.HasPrefix(l.rest[:nl], prefix) {
		l.ok = false
		return ""
	}
	v := l.rest[len(prefix):nl]
	l.rest = l.rest[nl+1:]
	return v
}

// exactly consumes the next line, which must be line.
func (l *entryLines) exactly(line string) {
	if l.next(line) != "" {
		l.ok = false
	}
}

// parsePoint reads one record with the calls model.ReadPoints makes, one
// space between its four fields: a field holding a space does not parse.
func parsePoint(ln string) (core.Point, bool) {
	d, ln, _ := strings.Cut(ln, " ")
	tm, ln, _ := strings.Cut(ln, " ")
	reps, ci, _ := strings.Cut(ln, " ")
	var p core.Point
	var err1, err2, err3, err4 error
	p.D, err1 = strconv.Atoi(d)
	p.Time, err2 = strconv.ParseFloat(tm, 64)
	p.Reps, err3 = strconv.Atoi(reps)
	p.CI, err4 = strconv.ParseFloat(ci, 64)
	return p, err1 == nil && err2 == nil && err3 == nil && err4 == nil && p.Validate() == nil
}

// DecodeRef is the reference implementation of Decode: line-split the
// whole file for the store metadata, then re-parse it with
// model.ReadPoints. It is the specification Decode's scan is tested
// against, and it classifies every entry that scan refuses.
func DecodeRef(path string, data []byte) (Entry, error) {
	var e Entry
	var keyLine, transfer string
	endCount := -1
	// The trailer must be the complete final line, newline included: any
	// crash-truncation — even one byte — removes it.
	if !bytes.HasSuffix(data, []byte("\n")) {
		return e, fmt.Errorf("modelstore: %s: missing final newline (torn write?)", path)
	}
	for _, line := range strings.Split(string(data), "\n") {
		meta := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "#"))
		switch {
		case strings.HasPrefix(meta, "store:"):
			keyLine = strings.TrimSpace(strings.TrimPrefix(meta, "store:"))
		case strings.HasPrefix(meta, "transfer:"):
			transfer = strings.TrimSpace(strings.TrimPrefix(meta, "transfer:"))
		case strings.HasPrefix(meta, "end:"):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(meta, "end:")))
			if err != nil {
				return e, fmt.Errorf("modelstore: %s: bad end trailer: %w", path, err)
			}
			endCount = n
		}
	}
	if keyLine == "" {
		return e, fmt.Errorf("modelstore: %s: missing store key header", path)
	}
	if endCount < 0 {
		return e, fmt.Errorf("modelstore: %s: missing end trailer (torn write?)", path)
	}
	key, err := parseKeyID(keyLine)
	if err != nil {
		return e, fmt.Errorf("modelstore: %s: %w", path, err)
	}
	pf, err := model.ReadPoints(bytes.NewReader(data))
	if err != nil {
		return e, fmt.Errorf("modelstore: %s: %w", path, err)
	}
	if len(pf.Points) != endCount {
		return e, fmt.Errorf("modelstore: %s: %d points but trailer says %d (torn write?)",
			path, len(pf.Points), endCount)
	}
	return Entry{Key: key, Kernel: pf.Kernel, Points: pf.Points, Transfer: transfer}, nil
}

// Get loads the live entry for one key (index.go). ok is false when the
// store holds no entry for the key. A key whose only entries are corrupt
// returns an error — the caller should treat it as a miss and re-sweep (a
// subsequent Put heals it).
func (s *Store) Get(k Key) (Entry, bool, error) {
	live, bad, err := s.lookup(k)
	switch {
	case err != nil:
		return Entry{}, false, err
	case live == nil && bad != nil:
		return Entry{}, false, bad.err
	case live == nil:
		return Entry{}, false, nil
	}
	e, err := s.readEntry(live)
	if err != nil {
		return Entry{}, false, err
	}
	if e.Key != k {
		// The bytes changed under the index: serve nothing rather than
		// another key's measurements.
		return Entry{}, false, fmt.Errorf("modelstore: %s: key mismatch (entry changed on disk)",
			entryLabel(filepath.Join(s.dir, live.name), live.off))
	}
	return e, true, nil
}

// entryBuffers pools the read scratch of Get, Load and Rank, so a reload
// over a populated store reuses one buffer across all entries instead of
// allocating a fresh byte slice per entry. Decode copies everything it
// keeps (its scan reads a string copy of the bytes), so reusing the
// backing buffer between entries is safe.
var entryBuffers = sync.Pool{New: func() any { return new([]byte) }}

// Load reads the live entry of every key in the store, in store order.
// Corrupt entries are collected, not fatal: a store damaged by a crash
// loads everything intact and reports what it had to drop, so the server
// re-sweeps only the torn entries. On a cold index each entry is decoded
// once, by the refresh that indexes it; on a warm one only the live
// entries are read.
func (s *Store) Load() ([]Entry, []Corrupt, error) {
	var decoded map[*record]Entry
	keep := func(r *record, e Entry) {
		if decoded == nil {
			decoded = make(map[*record]Entry)
		}
		decoded[r] = e
	}
	s.idxMu.Lock()
	if err := s.refreshLocked(keep); err != nil {
		s.idxMu.Unlock()
		return nil, nil, err
	}
	live := make([]*record, 0, len(s.keys))
	for _, ks := range s.keys {
		if ks.live != nil {
			live = append(live, ks.live)
		}
	}
	var bad []*record
	for _, fr := range s.files {
		for _, r := range fr.recs {
			if r.corrupt {
				bad = append(bad, r)
			}
		}
		if fr.rest != nil {
			bad = append(bad, fr.rest)
		}
	}
	s.idxMu.Unlock()
	slices.SortFunc(live, cmpRecord)
	slices.SortFunc(bad, cmpRecord)

	var entries []Entry
	var corrupt []Corrupt
	var f *os.File
	var path string
	for _, r := range live {
		if e, ok := decoded[r]; ok {
			entries = append(entries, e)
			continue
		}
		if f == nil || path != filepath.Join(s.dir, r.name) {
			if f != nil {
				f.Close()
			}
			path = filepath.Join(s.dir, r.name)
			var err error
			if f, err = os.Open(path); err != nil {
				f = nil
				if !errors.Is(err, fs.ErrNotExist) { // else removed since the refresh
					corrupt = append(corrupt, Corrupt{Path: path, Err: err})
				}
				continue
			}
		}
		e, err := readRecord(f, path, r)
		if err == nil && e.Key != r.key {
			err = fmt.Errorf("modelstore: %s: key mismatch (entry changed on disk)", entryLabel(path, r.off))
		}
		if err != nil {
			corrupt = append(corrupt, Corrupt{Path: path, Err: err})
			continue
		}
		entries = append(entries, e)
	}
	if f != nil {
		f.Close()
	}
	for _, r := range bad {
		corrupt = append(corrupt, Corrupt{Path: filepath.Join(s.dir, r.name), Err: r.err})
	}
	return entries, corrupt, nil
}
