// Package modelstore is the durable half of the partition service's model
// cache: every fitted model's underlying benchmark sweep is spilled to disk
// as a points file, one file per key, and reloaded on start — so a restarted
// server (or a fupermod-bench / fupermod-verify run pointed at the same
// directory) reuses the expensive measurements instead of re-sweeping.
// Persisting the measurement database is what amortises the cost of
// functional performance models across runs (Lastovetsky et al.'s
// self-adaptable algorithms reuse refined models across invocations;
// Stevens–Klöckner's black-box GPU models pay off through exactly such a
// persisted model database).
//
// Each entry is a regular points file (model.WritePoints format), readable
// by every tool in the chain, with two extra comment headers the format
// ignores: a "# store:" line carrying the full cache key and a trailing
// "# end:" line carrying the point count. The trailer is the torn-write
// detector: a file truncated by a crash mid-write fails the count check and
// is reported as corrupt — the caller re-sweeps instead of serving a
// partial model. Writes go through a temp file and an atomic rename, so a
// crash never leaves a half-written file under the entry's real name.
package modelstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

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
func (k Key) id() string {
	return strings.Join([]string{
		url.QueryEscape(k.Tenant),
		url.QueryEscape(k.Device),
		strconv.FormatInt(k.Seed, 10),
		fmtG(k.Noise),
		strconv.Itoa(k.Lo), strconv.Itoa(k.Hi), strconv.Itoa(k.N),
		url.QueryEscape(k.Prec),
	}, "|")
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

// filename derives the entry's file name from the key id. The content hash
// keeps arbitrary tenant/device strings out of the filesystem namespace;
// the id embedded in the file is authoritative, the name only an address.
func (k Key) filename() string {
	sum := sha256.Sum256([]byte(k.id()))
	return hex.EncodeToString(sum[:12]) + ".points"
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

// Corrupt describes one unreadable store file: a torn write, a truncation,
// or hand-edited damage. Corrupt entries are never returned as data — the
// caller's recovery is to re-sweep.
type Corrupt struct {
	Path string
	Err  error
}

// Store is a directory of spilled sweeps. It is safe for concurrent use;
// writes to the same key serialise on an internal lock, and the atomic
// rename makes concurrent readers see either the old or the new complete
// file, never a mixture.
type Store struct {
	dir string
	mu  sync.Mutex

	// flightMu guards flights, the in-progress Fill calls keyed by Key.id()
	// (see fill.go). Because Open returns one shared handle per directory,
	// this table is the cross-replica single-flight.
	flightMu sync.Mutex
	flights  map[string]*flight

	// idxMu guards the index (index.go): idx maps each *.points file name
	// to its slot, and gen counts refreshes.
	idxMu sync.Mutex
	idx   map[string]slot
	gen   uint64
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

// Path returns the file a key is (or would be) stored at.
func (s *Store) Path(k Key) string { return filepath.Join(s.dir, k.filename()) }

// encode renders one complete entry file: the store header, the transfer
// provenance (when present), the standard points file, and the count
// trailer.
func encode(k Key, kernel string, pts []core.Point, transfer string) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# store: %s\n", k.id())
	if transfer != "" {
		fmt.Fprintf(&buf, "# transfer: %s\n", transfer)
	}
	if err := model.WritePoints(&buf, model.PointFile{Kernel: kernel, Device: k.Device, Points: pts}); err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "# end: %d\n", len(pts))
	return buf.Bytes(), nil
}

// Put spills one sweep. The write is atomic: a temp file in the store
// directory is renamed over the entry, so a crash at any instant leaves
// either the previous complete entry or the new one.
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
	data, err := encode(k, kernel, pts, transfer)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, ".spill-*")
	if err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("modelstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.Path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelstore: %w", err)
	}
	return nil
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
	var pts []core.Point
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

// Get loads the entry for one key. ok is false when no entry exists. A
// present-but-corrupt entry returns an error — the caller should treat it
// as a miss and re-sweep (a subsequent Put heals the file).
func (s *Store) Get(k Key) (Entry, bool, error) {
	path := s.Path(k)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Entry{}, false, nil
	}
	if err != nil {
		return Entry{}, false, fmt.Errorf("modelstore: %w", err)
	}
	e, err := Decode(path, data)
	if err != nil {
		return Entry{}, false, err
	}
	if e.Key != k {
		// Hash-addressed file carrying a different key: treat as absent
		// rather than serving another key's measurements.
		return Entry{}, false, fmt.Errorf("modelstore: %s: key mismatch (stale or colliding entry)", path)
	}
	return e, true, nil
}

// loadBuffers pools the file-read scratch of Load, so a reload over a
// populated store reuses one buffer across all entries instead of
// allocating a fresh byte slice per file. Decode copies everything it
// keeps (the scanner materialises new strings and points), so reusing the
// backing buffer between files is safe.
var loadBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Load reads every entry in the store. Corrupt files are collected, not
// fatal: a store damaged by a crash loads everything intact and reports
// what it had to drop, so the server re-sweeps only the torn entries.
func (s *Store) Load() ([]Entry, []Corrupt, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.points"))
	if err != nil {
		return nil, nil, fmt.Errorf("modelstore: %w", err)
	}
	buf := loadBuffers.Get().(*bytes.Buffer)
	defer loadBuffers.Put(buf)
	var entries []Entry
	var corrupt []Corrupt
	for _, path := range names {
		buf.Reset()
		f, err := os.Open(path)
		if err != nil {
			corrupt = append(corrupt, Corrupt{Path: path, Err: err})
			continue
		}
		_, err = buf.ReadFrom(f)
		f.Close()
		if err != nil {
			corrupt = append(corrupt, Corrupt{Path: path, Err: err})
			continue
		}
		e, err := Decode(path, buf.Bytes())
		if err != nil {
			corrupt = append(corrupt, Corrupt{Path: path, Err: err})
			continue
		}
		entries = append(entries, e)
	}
	return entries, corrupt, nil
}

// LoadRef is the reference implementation of Load: a fresh os.ReadFile
// per entry and the two-pass DecodeRef, no shared buffer. Kept
// (pool.MapSeq-style) as the specification the pooled streaming reload is
// equivalence-tested against — TestLoadMatchesRef pins entry-for-entry
// identity on a populated store.
func (s *Store) LoadRef() ([]Entry, []Corrupt, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.points"))
	if err != nil {
		return nil, nil, fmt.Errorf("modelstore: %w", err)
	}
	var entries []Entry
	var corrupt []Corrupt
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			corrupt = append(corrupt, Corrupt{Path: path, Err: err})
			continue
		}
		e, err := DecodeRef(path, data)
		if err != nil {
			corrupt = append(corrupt, Corrupt{Path: path, Err: err})
			continue
		}
		entries = append(entries, e)
	}
	return entries, corrupt, nil
}
