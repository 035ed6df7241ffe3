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

	// flightMu guards flights, the in-progress Fill calls by key (see
	// fill.go). Because Open returns one shared handle per directory, this
	// table is the cross-replica single-flight.
	flightMu sync.Mutex
	flights  map[Key]*flight

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

// encode renders one complete entry: the store header, the transfer
// provenance (when present), the standard points file, and the count
// trailer.
func encode(k Key, kernel string, pts []core.Point, transfer string) ([]byte, error) {
	var buf bytes.Buffer
	if err := encodeTo(&buf, k, kernel, pts, transfer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

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

// encodesTo reports whether seg is exactly the bytes encode writes for e.
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

// Decode parses and integrity-checks one entry file. It is the streaming
// implementation: intact files written by this store take decodeStrict's
// single zero-copy scan; anything that scan does not recognise falls back
// to the general single-pass parse, where the store metadata ("# store:",
// "# end:") is captured by the same model.ReadPointsMeta pass that parses
// the points. DecodeRef keeps the straightforward two-pass implementation;
// the two classify every file — intact or corrupt — identically (the
// reference's check order is reproduced exactly), which TestDecodeMatchesRef
// and FuzzDecodeMatchesRef pin.
// It is exported for the perf harness and the equivalence tests; regular
// access goes through Get and Load.
func Decode(path string, data []byte) (Entry, error) {
	var e Entry
	var keyLine, transfer string
	endCount := -1
	badEnd := error(nil)
	// The trailer must be the complete final line, newline included: any
	// crash-truncation — even one byte — removes it.
	if !bytes.HasSuffix(data, []byte("\n")) {
		return e, fmt.Errorf("modelstore: %s: missing final newline (torn write?)", path)
	}
	if e, ok := decodeStrict(data); ok {
		return e, nil
	}
	pf, perr := model.ReadPointsMeta(bytes.NewReader(data), func(k, v string) {
		switch k {
		case "store":
			keyLine = v
		case "transfer":
			transfer = v
		case "end":
			n, err := strconv.Atoi(v)
			if err != nil {
				if badEnd == nil {
					badEnd = fmt.Errorf("modelstore: %s: bad end trailer: %w", path, err)
				}
				return
			}
			endCount = n
		}
	})
	if perr != nil {
		// The single pass aborts at the first malformed record, so any
		// metadata after the fault (the end trailer in particular) was
		// never seen. The file is corrupt either way; classify it through
		// the reference's full scan so multi-fault files report the same
		// corruption first, whichever implementation reads them.
		return DecodeRef(path, data)
	}
	// The reference implementation reads the metadata before the points;
	// keep its error precedence so both report the same corruption first.
	if badEnd != nil {
		return e, badEnd
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
	if len(pf.Points) != endCount {
		return e, fmt.Errorf("modelstore: %s: %d points but trailer says %d (torn write?)",
			path, len(pf.Points), endCount)
	}
	return Entry{Key: key, Kernel: pf.Kernel, Points: pf.Points, Transfer: transfer}, nil
}

// decodeStrict is Decode's fast path: the whole file is converted to a
// string once, then scanned in a single pass in which every line, key and
// field is a substring of that one conversion — an intact 300-point entry
// decodes in a handful of allocations instead of two per line. It only
// understands the plain printable-ASCII grammar this store's own writer
// emits (plus harmless space/tab/CR edge variation); ok=false on anything
// else — Unicode bytes where trimming or field splitting could differ,
// control characters, over-long lines, any malformed record — and Decode
// then re-parses through the general path. The fast path can therefore
// change how fast a file is read, never what it means; decodeStrict
// succeeding where the general path would reject, or producing a different
// entry, would be an equivalence bug (FuzzDecodeMatchesRef hunts for one).
func decodeStrict(data []byte) (Entry, bool) {
	s := string(data)
	var kernel, keyLine, transfer string
	endCount := -1
	// Every point is a line: sized by the line count, the slice is filled
	// without regrowth and keeps a few headers' worth of slack, not half.
	pts := make([]core.Point, 0, strings.Count(s, "\n"))
	pos := 0
	for pos < len(s) {
		nl := strings.IndexByte(s[pos:], '\n')
		if nl < 0 {
			// No final newline; Decode rejected this already, defensive.
			return Entry{}, false
		}
		if nl > 32*1024 {
			// The general path's line scanner has a token size limit this
			// scan does not; near it, the two could classify differently.
			return Entry{}, false
		}
		ln := s[pos : pos+nl]
		pos += nl + 1
		// Trim the ASCII whitespace strings.TrimSpace would trim; if a
		// control or non-ASCII byte is left on an edge, TrimSpace might
		// remove more (\v, \f, Unicode spaces) — bail rather than guess.
		for len(ln) > 0 && (ln[0] == ' ' || ln[0] == '\t' || ln[0] == '\r') {
			ln = ln[1:]
		}
		for len(ln) > 0 && (ln[len(ln)-1] == ' ' || ln[len(ln)-1] == '\t' || ln[len(ln)-1] == '\r') {
			ln = ln[:len(ln)-1]
		}
		if len(ln) == 0 {
			continue
		}
		if ln[0] < 0x21 || ln[0] >= 0x7F || ln[len(ln)-1] < 0x21 || ln[len(ln)-1] >= 0x7F {
			return Entry{}, false
		}
		if ln[0] == '#' {
			m := ln[1:]
			for len(m) > 0 && (m[0] == ' ' || m[0] == '\t') {
				m = m[1:]
			}
			if len(m) == 0 {
				continue
			}
			if m[0] < 0x21 || m[0] >= 0x7F {
				return Entry{}, false
			}
			switch {
			case strings.HasPrefix(m, "kernel:"):
				v, ok := strictValue(m[len("kernel:"):])
				if !ok {
					return Entry{}, false
				}
				kernel = v
			case strings.HasPrefix(m, "device:"):
				// The device header is parsed but not part of an Entry;
				// only its trim ambiguity matters.
				if _, ok := strictValue(m[len("device:"):]); !ok {
					return Entry{}, false
				}
			default:
				c := strings.IndexByte(m, ':')
				if c < 0 {
					continue
				}
				switch m[:c] {
				case "store":
					v, ok := strictValue(m[c+1:])
					if !ok || v == "" {
						return Entry{}, false
					}
					keyLine = v
				case "transfer":
					v, ok := strictValue(m[c+1:])
					if !ok {
						return Entry{}, false
					}
					transfer = v
				case "end":
					v, ok := strictValue(m[c+1:])
					if !ok {
						return Entry{}, false
					}
					n, err := strconv.Atoi(v)
					if err != nil || n < 0 {
						// A negative trailer means "missing trailer" to the
						// general path; let it say so.
						return Entry{}, false
					}
					endCount = n
				}
			}
			continue
		}
		// Data record: exactly four printable-ASCII fields split on
		// space/tab, parsed with the same strconv calls the general path
		// uses — on identical substrings, so identical values or errors.
		var f [4]string
		n := 0
		start := -1
		for i := 0; i <= len(ln); i++ {
			c := byte(' ')
			if i < len(ln) {
				c = ln[i]
			}
			switch {
			case c == ' ' || c == '\t':
				if start >= 0 {
					if n == 4 {
						return Entry{}, false
					}
					f[n] = ln[start:i]
					n++
					start = -1
				}
			case c < 0x21 || c >= 0x7F:
				return Entry{}, false
			default:
				if start < 0 {
					start = i
				}
			}
		}
		if n != 4 {
			return Entry{}, false
		}
		d, err := strconv.Atoi(f[0])
		if err != nil {
			return Entry{}, false
		}
		tm, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return Entry{}, false
		}
		reps, err := strconv.Atoi(f[2])
		if err != nil {
			return Entry{}, false
		}
		ci, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return Entry{}, false
		}
		p := core.Point{D: d, Time: tm, Reps: reps, CI: ci}
		if p.Validate() != nil {
			return Entry{}, false
		}
		pts = append(pts, p)
	}
	if keyLine == "" || endCount < 0 || len(pts) != endCount {
		return Entry{}, false
	}
	// The kept strings are substrings of the one big conversion; clone
	// them so a long-lived Entry does not pin the whole file in memory.
	key, err := parseKeyID(strings.Clone(keyLine))
	if err != nil {
		return Entry{}, false
	}
	return Entry{Key: key, Kernel: strings.Clone(kernel), Points: pts, Transfer: strings.Clone(transfer)}, true
}

// strictValue trims ASCII space/tab off a metadata value and reports
// whether the result is unambiguous under the general path's Unicode-aware
// TrimSpace — that is, whatever is left on the edges is printable ASCII.
func strictValue(v string) (string, bool) {
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == '\t') {
		v = v[:len(v)-1]
	}
	if v == "" {
		return "", true
	}
	if v[0] < 0x21 || v[0] >= 0x7F || v[len(v)-1] < 0x21 || v[len(v)-1] >= 0x7F {
		return "", false
	}
	return v, true
}

// DecodeRef is the reference implementation of Decode: line-split the
// whole file for the store metadata, then re-parse it with
// model.ReadPoints. Kept (pool.MapSeq-style) as the specification the
// streaming fast path is equivalence-tested against.
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
// keeps (the scanner materialises new strings and points), so reusing the
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

// LoadRef is the reference implementation of Load: no index — a fresh
// os.ReadFile per file, every entry split off by a line scan and decoded
// by the two-pass DecodeRef, an unfinished tail read as torn whatever its
// lock says, and the live entry of each key picked as its last intact one
// in store order. Kept (pool.MapSeq-style) as the specification the
// indexed reload is equivalence-tested against — TestLoadMatchesRef pins
// entry-for-entry identity on a populated store, in a quiescent directory.
func (s *Store) LoadRef() ([]Entry, []Corrupt, error) {
	names, err := entryFiles(s.dir)
	if err != nil {
		return nil, nil, err
	}
	var intact []Entry
	var corrupt []Corrupt
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // removed since the listing
		}
		if len(data) == 0 {
			_, err = DecodeRef(path, data) // an empty file is a torn write
		}
		if err != nil {
			corrupt = append(corrupt, Corrupt{Path: path, Err: err})
			continue
		}
		for off := 0; off < len(data); {
			seg := refNextEntry(data[off:])
			label := entryLabel(path, int64(off))
			e, err := DecodeRef(label, seg)
			if err == nil {
				if enc, _ := encode(e.Key, e.Kernel, e.Points, e.Transfer); !bytes.Equal(enc, seg) {
					err = errNotEncoded(label)
				}
			}
			if err != nil {
				corrupt = append(corrupt, Corrupt{Path: path, Err: err})
			} else {
				intact = append(intact, e)
			}
			off += len(seg)
		}
	}
	last := make(map[Key]int, len(intact))
	for i, e := range intact {
		last[e.Key] = i
	}
	var entries []Entry
	for i, e := range intact {
		if last[e.Key] == i {
			entries = append(entries, e)
		}
	}
	return entries, corrupt, nil
}

// refNextEntry splits the next entry off data line by line: through the
// first line opening with "# end:", or all of data when no such line ends.
func refNextEntry(data []byte) []byte {
	for i := 0; i < len(data); {
		nl := bytes.IndexByte(data[i:], '\n')
		if nl < 0 {
			break
		}
		line := data[i : i+nl]
		i += nl + 1
		if bytes.HasPrefix(line, []byte("# end:")) {
			return data[:i]
		}
	}
	return data
}
