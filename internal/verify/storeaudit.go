package verify

import (
	"fmt"
	"io"
	"os"

	"fupermod/internal/core"
	"fupermod/internal/kernels"
	"fupermod/internal/platform"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/trace"
)

// StoreAudit is the outcome of AuditStore: an integrity-and-replay check
// of an on-disk model store shared by fupermod-serve and fupermod-bench.
type StoreAudit struct {
	// Dir is the audited store directory.
	Dir string
	// Entries counts the loadable store entries.
	Entries int
	// Verified counts entries whose sweep was deterministically replayed
	// and matched point for point.
	Verified int
	// Skipped counts entries whose device cannot be reconstructed here
	// (machine-file references need the tenant's upload, which lives only
	// in a running server).
	Skipped int
	// Transferred counts entries carrying transfer provenance. They are
	// integrity-checked but not replayed: a transferred point set mixes
	// measured probes with synthesized predictions, so it is deliberately
	// not byte-reproducible by a full sweep — the diff-transfer suite
	// section bounds its accuracy instead.
	Transferred int
	// Corrupt lists unreadable entries: torn writes, truncations, damage.
	Corrupt []modelstore.Corrupt
	// Violations lists entries whose replayed sweep disagreed with the
	// stored points — a stale or miswritten entry, never acceptable for a
	// deterministic virtual sweep.
	Violations []Violation
}

// OK reports whether the store is fully intact: nothing corrupt, nothing
// divergent.
func (a *StoreAudit) OK() bool { return len(a.Corrupt) == 0 && len(a.Violations) == 0 }

// Table renders the audit summary.
func (a *StoreAudit) Table() *trace.Table {
	t := trace.NewTable(fmt.Sprintf("model store audit (%s)", a.Dir), "metric", "count")
	t.AddRow("entries", a.Entries)
	t.AddRow("verified", a.Verified)
	t.AddRow("skipped", a.Skipped)
	t.AddRow("transferred", a.Transferred)
	t.AddRow("corrupt", len(a.Corrupt))
	t.AddRow("violations", len(a.Violations))
	if a.OK() {
		t.Note = fmt.Sprintf("store intact: %d of %d entries replayed identically", a.Verified, a.Entries)
	} else {
		t.Note = fmt.Sprintf("%d corrupt entries, %d divergent entries", len(a.Corrupt), len(a.Violations))
	}
	return t
}

// WriteTo renders the summary table followed by every corrupt entry and
// violation detail.
func (a *StoreAudit) WriteTo(w io.Writer) (int64, error) {
	n, err := a.Table().WriteTo(w)
	if err != nil {
		return n, err
	}
	for _, c := range a.Corrupt {
		m, err := fmt.Fprintf(w, "corrupt: %s: %v\n", c.Path, c.Err)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	for _, v := range a.Violations {
		m, err := fmt.Fprintln(w, v.String())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// AuditStore verifies an on-disk model store. Every entry is integrity-
// checked by the load (torn writes land in Corrupt); every entry whose
// device is a preset is then replayed — virtual sweeps are deterministic
// in (device, seed, noise, grid, precision), so the stored points must be
// reproduced exactly. Entries addressing machine-file devices are counted
// as skipped: their devices exist only in a serving process that holds the
// tenant's upload. The directory must exist: an audit reads a store, it
// never creates one.
func AuditStore(dir string) (*StoreAudit, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("verify: store directory: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("verify: store directory %s is not a directory", dir)
	}
	store, err := modelstore.Open(dir)
	if err != nil {
		return nil, err
	}
	entries, corrupt, err := store.Load()
	if err != nil {
		return nil, err
	}
	audit := &StoreAudit{Dir: store.Dir(), Entries: len(entries), Corrupt: corrupt}
	for _, e := range entries {
		if e.Transfer != "" {
			// Warm-started entries are synthesized, not swept; no full
			// sweep reproduces them and none should.
			audit.Transferred++
			continue
		}
		dev, err := platform.Preset(e.Key.Device)
		if err != nil {
			audit.Skipped++
			continue
		}
		prec, err := modelstore.DecodePrecision(e.Key.Prec)
		if err != nil {
			return nil, err // Load validated the key; this cannot happen
		}
		// The stored kernel label varies by producer (the service names
		// kernels after the device, bench uses "gemm-b128"); the
		// measurement depends only on the device, the noise conditions and
		// the unit cost, which every producer shares, so the label is not
		// read.
		meter := platform.NewMeter(dev, platform.RelNoise(e.Key.Noise), e.Key.Seed)
		k, err := kernels.NewVirtual(dev.Name(), meter, kernels.GEMMBlockFlops)
		if err != nil {
			return nil, err
		}
		pts, err := core.Sweep(k, core.LogSizes(e.Key.Lo, e.Key.Hi, e.Key.N), prec)
		if err != nil {
			return nil, fmt.Errorf("verify: replaying %s: %w", store.Path(e.Key), err)
		}
		if vs := diffPoints(e.Key, e.Points, pts); len(vs) > 0 {
			audit.Violations = append(audit.Violations, vs...)
			continue
		}
		audit.Verified++
	}
	return audit, nil
}

// diffPoints compares a stored sweep against its deterministic replay.
func diffPoints(key modelstore.Key, stored, replay []core.Point) []Violation {
	id := fmt.Sprintf("%s/%s seed=%d", key.Tenant, key.Device, key.Seed)
	if len(stored) != len(replay) {
		return []Violation{{Check: "store-replay", Algo: key.Device,
			Detail: fmt.Sprintf("%s: %d stored points, replay measured %d", id, len(stored), len(replay))}}
	}
	var vs []Violation
	for i, want := range replay {
		got := stored[i]
		if got != want {
			vs = append(vs, Violation{Check: "store-replay", Algo: key.Device,
				Detail: fmt.Sprintf("%s: point %d stored %+v, replay %+v", id, i, got, want)})
		}
	}
	return vs
}
