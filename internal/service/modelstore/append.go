package modelstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// This file is the store's on-disk layout. A store file holds one or more
// entries back to back, each exactly the bytes encodeTo writes; a file with
// one entry (every file written before append files existed) is the
// one-entry case, read by the same code. Each *Store handle — one per
// directory per process, through openShared — appends its spills to one
// file of its own, so a spill is an append to an open-able file instead of
// a file creation and a rename.
//
// No reader ever serves part of an entry:
//
//   - an entry ends at its "# end:" trailer line, so bytes after a file's
//     last trailer are an unfinished tail;
//   - a writer appends at the file's current end (O_APPEND) and holds an
//     exclusive lock on the file for exactly that write;
//   - a reader that finds an unfinished tail tries a shared lock: while the
//     writer holds its lock the tail is an append in progress (neither
//     served nor counted), and a tail still unfinished under the shared
//     lock is a torn write, reported corrupt;
//   - a writer cuts a torn tail off its own file before appending, and a
//     Put of a key whose entry is a torn tail in another file cuts that
//     tail too, under that file's lock — so a healed file is byte-identical
//     to one that was never torn.

// Append files are named spill-<seq>.points, the sequence zero-padded so
// that name order is creation order. 's' sorts after every hex digit, so a
// new append file also ranks above every hash-named one-entry file.
const (
	spillPrefix = "spill-"
	entrySuffix = ".points"
)

func spillName(seq int) string { return fmt.Sprintf("%s%08d%s", spillPrefix, seq, entrySuffix) }

// spillSeq parses an append file's sequence number.
func spillSeq(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, spillPrefix)
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, entrySuffix); !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil && n >= 0
}

// nextSpill names the append file a handle would create next: one past
// every append file listed, so it ranks above them all.
func nextSpill(names []string) (seq int) {
	for _, name := range names {
		if n, ok := spillSeq(name); ok && n > seq {
			seq = n
		}
	}
	return seq + 1
}

// canOutrank reports whether a new append file would sort after name.
func canOutrank(name string) bool {
	_, ok := spillSeq(name)
	return ok || name < spillPrefix
}

// entryFiles lists the *.points files of a store directory in name order.
// The directory is read literally: a path holding glob metacharacters
// ('[', '*', '?') names itself and nothing else. A missing directory lists
// as empty.
func entryFiles(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	out := names[:0]
	for _, name := range names {
		if strings.HasSuffix(name, entrySuffix) {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out, nil
}

var (
	trailer     = []byte("# end:")
	lineTrailer = []byte("\n# end:")
	storeHeader = []byte("# store: ")
)

// entryLen returns the length of the first complete entry in b — up to and
// including its first line that opens with the "# end:" trailer — or -1
// when b holds no complete trailer line (an unfinished tail).
func entryLen(b []byte) int {
	i := 0
	if !bytes.HasPrefix(b, trailer) {
		j := bytes.Index(b, lineTrailer)
		if j < 0 {
			return -1
		}
		i = j + 1
	}
	nl := bytes.IndexByte(b[i:], '\n')
	if nl < 0 {
		return -1
	}
	return i + nl + 1
}

// headerKey parses the key of an entry's bytes from its first line, for a
// corrupt entry: a key whose "# store:" line survived still has its damage
// reported, one whose header is destroyed reads as absent.
func headerKey(seg []byte) (Key, bool) {
	rest, ok := bytes.CutPrefix(seg, storeHeader)
	if !ok {
		return Key{}, false
	}
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return Key{}, false
	}
	k, err := parseKeyID(string(rest[:nl]))
	return k, err == nil
}

// entryLabel names an entry in messages: the file path for the first entry
// of a file (so a one-entry file reads as it always did), path@offset after.
func entryLabel(path string, off int64) string {
	if off == 0 {
		return path
	}
	return path + "@" + strconv.FormatInt(off, 10)
}

// decodeAt is Decode for the entry at off in path's file; the label is
// only built for an error, so a clean read allocates nothing for it.
func decodeAt(path string, off int64, b []byte) (Entry, error) {
	e, err := Decode(path, b)
	if err != nil && off > 0 {
		_, err = Decode(entryLabel(path, off), b)
	}
	return e, err
}

// errNotEncoded reports an entry that decodes but is not the bytes encodeTo
// writes for what it decodes to — hand-edited, or stitched from the torn
// tail of one append and the start of another. It is never served.
func errNotEncoded(label string) error {
	return fmt.Errorf("modelstore: %s: entry is not in the store's encoding", label)
}

// scanChunk is the read size of a file scan: entries are a few KB, so one
// chunk holds several, and a scan of a large file stays bounded in memory.
const scanChunk = 32 << 10

// scanner reads a file's complete entries in order, from an offset, in
// bounded chunks.
type scanner struct {
	f     *os.File
	base  int64 // file offset of buf[0]
	buf   []byte
	start int // first byte of buf not yet returned
	eof   bool
}

func newScanner(f *os.File, from int64) *scanner {
	return &scanner{f: f, base: from, buf: make([]byte, 0, scanChunk)}
}

// reset restarts the scan at off.
func (sc *scanner) reset(off int64) {
	sc.base, sc.buf, sc.start, sc.eof = off, sc.buf[:0], 0, false
}

// next returns the next complete entry and its offset; the bytes are valid
// until the following call. ok is false at the first byte that starts no
// complete entry; off is then that byte's offset and tail() what follows.
func (sc *scanner) next() (seg []byte, off int64, ok bool, err error) {
	for {
		if n := entryLen(sc.buf[sc.start:]); n >= 0 {
			seg = sc.buf[sc.start : sc.start+n]
			off = sc.base + int64(sc.start)
			sc.start += n
			return seg, off, true, nil
		}
		if sc.eof {
			return nil, sc.base + int64(sc.start), false, nil
		}
		if err := sc.fill(); err != nil {
			return nil, 0, false, err
		}
	}
}

// tail returns the bytes after the last complete entry, once next has
// reported the end.
func (sc *scanner) tail() []byte { return sc.buf[sc.start:] }

// end is the offset just past the bytes read so far.
func (sc *scanner) end() int64 { return sc.base + int64(len(sc.buf)) }

func (sc *scanner) fill() error {
	if sc.start > 0 {
		n := copy(sc.buf, sc.buf[sc.start:])
		sc.base += int64(sc.start)
		sc.buf, sc.start = sc.buf[:n], 0
	}
	if len(sc.buf) == cap(sc.buf) {
		sc.buf = slices.Grow(sc.buf, cap(sc.buf))
	}
	n, err := sc.f.ReadAt(sc.buf[len(sc.buf):cap(sc.buf)], sc.end())
	sc.buf = sc.buf[:len(sc.buf)+n]
	if err == io.EOF {
		sc.eof = true
		return nil
	}
	return err
}

// completeEnd is the offset just past the last complete entry of f at or
// after from, which must be an entry boundary.
func completeEnd(f *os.File, from int64) (int64, error) {
	sc := newScanner(f, from)
	for {
		_, off, ok, err := sc.next()
		if err != nil || !ok {
			return off, err
		}
	}
}

// appendEntry appends one encoded entry to this handle's file and reports
// where it landed: the file, the entry's offset, and the file's signature
// just after the write (exact is false when the write did not land where
// the handle expected, so the index must read the file instead). A handle
// with no file yet, whose file was removed or replaced, or asked for a
// fresh one starts a new file; it never writes into an unlinked file.
// Caller holds s.mu.
func (s *Store) appendEntry(data []byte, fresh bool) (name string, off int64, sig fileSig, exact bool, err error) {
	if s.own != "" && !fresh {
		f, err := os.OpenFile(s.ownPath, os.O_RDWR|os.O_APPEND, 0)
		switch {
		case err == nil:
			off, sig, exact, gone, err := s.appendLocked(f, data)
			f.Close() // releases the lock
			if err != nil || !gone {
				return s.own, off, sig, exact, err
			}
		case !errors.Is(err, fs.ErrNotExist):
			return "", 0, fileSig{}, false, fmt.Errorf("modelstore: %w", err)
		}
	}
	return s.createOwn(data)
}

// createOwn starts a new append file holding data as its first entry,
// named one past every append file in the directory. The entry is written
// under a temporary name and the file linked into place complete — a link
// fails on a taken name, as an exclusive create does — so no reader ever
// finds an append file empty: an empty *.points file is damage, reported
// corrupt. Caller holds s.mu.
func (s *Store) createOwn(data []byte) (name string, off int64, sig fileSig, exact bool, err error) {
	tmp, err := os.CreateTemp(s.dir, ".spill-*")
	if err != nil {
		return "", 0, fileSig{}, false, fmt.Errorf("modelstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	if _, err := tmp.Write(data); err != nil {
		return "", 0, fileSig{}, false, fmt.Errorf("modelstore: %w", err)
	}
	if sig, _, err = fstatSig(tmp); err != nil {
		return "", 0, fileSig{}, false, fmt.Errorf("modelstore: %w", err)
	}
	names, err := entryFiles(s.dir)
	if err != nil {
		return "", 0, fileSig{}, false, err
	}
	for seq := nextSpill(names); ; seq++ {
		name = spillName(seq)
		path := filepath.Join(s.dir, name)
		err := os.Link(tmp.Name(), path)
		if errors.Is(err, fs.ErrExist) {
			continue // another process took this name first
		}
		if err != nil {
			return "", 0, fileSig{}, false, fmt.Errorf("modelstore: %w", err)
		}
		s.own, s.ownPath, s.ownSig, s.ownEnd = name, path, sig, sig.size
		return name, 0, sig, sig.size == int64(len(data)), nil
	}
}

// appendLocked is one append under the file's exclusive lock. gone reports
// that f is no longer the handle's file (unlinked or replaced).
func (s *Store) appendLocked(f *os.File, data []byte) (off int64, sig fileSig, exact, gone bool, err error) {
	if err := lockExclusive(f); err != nil {
		return 0, fileSig{}, false, false, fmt.Errorf("modelstore: %w", err)
	}
	sig, linked, err := fstatSig(f)
	if err != nil {
		return 0, fileSig{}, false, false, fmt.Errorf("modelstore: %w", err)
	}
	if !sameID(sig, s.ownSig) || !linked {
		return 0, fileSig{}, false, true, nil
	}
	if size := sig.size; size != s.ownEnd {
		// The file shrank (someone cut or truncated it) or holds bytes the
		// handle did not write: find its last complete entry, and cut what
		// follows — under our lock an unfinished tail is a torn write, and
		// an append after it would be read as part of it.
		from := s.ownEnd
		if from < 0 || from > size {
			from = 0
		}
		end, err := completeEnd(f, from)
		if err != nil {
			s.ownEnd = -1
			return 0, fileSig{}, false, false, fmt.Errorf("modelstore: %w", err)
		}
		if end < size {
			if err := f.Truncate(end); err != nil {
				s.ownEnd = -1
				return 0, fileSig{}, false, false, fmt.Errorf("modelstore: %w", err)
			}
		}
		s.ownEnd = end
	}
	off = s.ownEnd
	if _, err := f.Write(data); err != nil {
		// Leave no torn tail behind when the cut succeeds; when it does
		// not, the next append finds and cuts it.
		if f.Truncate(off) != nil {
			s.ownEnd = -1
		}
		return 0, fileSig{}, false, false, fmt.Errorf("modelstore: %w", err)
	}
	if sig, _, err = fstatSig(f); err != nil || sig.size != off+int64(len(data)) {
		s.ownEnd = -1
		return off, fileSig{}, false, false, nil
	}
	s.ownEnd = sig.size
	return off, sig, true, false, nil
}

// cutTail cuts the torn tail that starts at off off path's file, under the
// file's exclusive lock, if the bytes from off are still an unfinished
// entry; a tail that has since been completed, or already cut, is left. A
// tail that is the whole file removes the file: cut to nothing, it would
// read as an empty file, which is damage too.
func cutTail(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close() // releases the lock
	if err := lockExclusive(f); err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil || fi.Size() <= off {
		return err
	}
	if end, err := completeEnd(f, off); err != nil || end != off {
		return err
	}
	if off == 0 {
		// Only while the name still holds this file; a handle appending to
		// it finds it unlinked and starts a new one.
		if now, err := statSig(path); err != nil || !sameID(now, sigOf(fi)) {
			return err
		}
		return os.Remove(path)
	}
	return f.Truncate(off)
}
