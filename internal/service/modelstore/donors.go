package modelstore

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"fupermod/internal/transfer"
)

// This file is the store side of cross-device model transfer
// (internal/transfer): the on-disk sweep database doubles as the donor
// pool a cold (tenant, device) pair warm-starts from. The curve-similarity
// search that ranks that pool by shape fingerprint against the cold
// device's first probes runs on the index (index.go).

// DonorID renders a stored entry's identity as the printable-ASCII donor
// string used in transfer provenance: tenant and device url-escaped, the
// measurement conditions spelled out. It parses back by eye, not by
// machine — provenance is an audit record, not an address.
func DonorID(k Key) string {
	var buf [128]byte
	b := append(buf[:0], url.QueryEscape(k.Tenant)...)
	b = append(b, '/')
	b = append(b, url.QueryEscape(k.Device)...)
	b = append(b, "/seed="...)
	b = strconv.AppendInt(b, k.Seed, 10)
	b = append(b, "/noise="...)
	b = strconv.AppendFloat(b, k.Noise, 'g', -1, 64)
	b = append(b, "/grid="...)
	b = strconv.AppendInt(b, int64(k.Lo), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(k.Hi), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(k.N), 10)
	return string(b)
}

// DonorPool loads every live entry eligible to donate its curve to the
// given key: intact, at least two points (a single point has no shape),
// not the key itself, and not itself transferred — warm-starting from a
// warm-start would compound the approximation bounds silently, so
// transfer provenance disqualifies an entry as a donor. Corrupt entries
// are skipped (the fill path heals them); the pool is sorted by DonorID so
// two replicas scanning the same directory rank identically.
//
// DonorPool reads every live entry. Fills search the index instead
// (Donors); DonorPool is the reference that search is tested against.
func (s *Store) DonorPool(exclude Key) ([]transfer.Donor, error) {
	entries, _, err := s.Load()
	if err != nil {
		return nil, err
	}
	donors := make([]transfer.Donor, 0, len(entries))
	for _, e := range entries {
		if e.Key == exclude || e.Transfer != "" || len(e.Points) < 2 {
			continue
		}
		donors = append(donors, transfer.Donor{ID: DonorID(e.Key), Points: e.Points})
	}
	sort.Slice(donors, func(i, j int) bool { return donors[i].ID < donors[j].ID })
	return donors, nil
}

// Acquire warm-starts the cold key k from the store's donor curves
// (transfer.Acquire) over one snapshot of the donor index: the snapshot
// decides the empty-pool fallback before any probe, then ranks by cached
// fingerprint and reads the points of the top cfg.Candidates donors only
// (0 selects transfer.DefaultCandidates). An unreadable or empty pool is a
// reason to fall back — a Result with Fallback set — never an error: the
// full sweep always works. prober is called only when the pool has
// donors, so such a fallback builds no kernel.
func (s *Store) Acquire(k Key, sizes []int, prober func() (transfer.Prober, error), cfg transfer.Config) (*transfer.Result, error) {
	donors, err := s.Donors(k)
	if err != nil {
		return &transfer.Result{Fallback: fmt.Sprintf("donor pool unreadable: %v", err)}, nil
	}
	if donors.Len() == 0 {
		return &transfer.Result{Fallback: "the store has no donor curves"}, nil
	}
	probe, err := prober()
	if err != nil {
		return nil, err
	}
	if cfg.Candidates == 0 {
		cfg.Candidates = transfer.DefaultCandidates
	}
	return transfer.Acquire(sizes, probe, donors.Source(cfg.Candidates), cfg)
}

// Provenance is the record a transferred entry carries on its transfer
// header (Swept.Transfer, PutTransfer): the donor, its time scale, and the
// benchmark calls made out of the grid's size count.
func Provenance(res *transfer.Result, grid int) string {
	return fmt.Sprintf("donor=%s scale=%.6g probes=%d/%d maxdiff=%.3g",
		res.Donor, res.Scale, res.Measured, grid, res.MaxDisagree)
}

// StoreStats is a point-in-time census of the store directory.
type StoreStats struct {
	// Entries counts keys with a live intact entry; Transferred of those
	// carry transfer provenance (so Entries - Transferred is the
	// donor-eligible upper bound before the per-key filters).
	Entries     int64 `json:"entries"`
	Transferred int64 `json:"transferred"`
	// Bytes is the total size of all *.points files, corrupt and
	// superseded entries included — it answers "what does this directory
	// cost on disk".
	Bytes int64 `json:"bytes"`
	// CorruptFiles counts corrupt entries — torn tails, damage in the
	// middle of a file (counted until compaction), unreadable files.
	CorruptFiles int64 `json:"corrupt_files"`
	// Tenants counts live intact entries per tenant.
	Tenants map[string]int64 `json:"tenants,omitempty"`
}

// Add accumulates other into s (for merging per-replica snapshots).
func (s *StoreStats) Add(o StoreStats) {
	s.Entries += o.Entries
	s.Transferred += o.Transferred
	s.Bytes += o.Bytes
	s.CorruptFiles += o.CorruptFiles
	if o.Tenants != nil && s.Tenants == nil {
		s.Tenants = make(map[string]int64, len(o.Tenants))
	}
	for t, n := range o.Tenants {
		s.Tenants[t] += n
	}
}

// Stats reports the store census from the index (index.go): the same
// refresh a donor query makes — a stat of the directory and of each file,
// a read only of what changed since the last query — then a count over
// the records.
func (s *Store) Stats() (StoreStats, error) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if err := s.refreshLocked(nil); err != nil {
		return StoreStats{}, err
	}
	st := StoreStats{}
	for _, fr := range s.files {
		st.Bytes += fr.sig.size
		for _, r := range fr.recs {
			if r.corrupt {
				st.CorruptFiles++
			}
		}
		if fr.rest != nil {
			st.CorruptFiles++
		}
	}
	for _, ks := range s.keys {
		r := ks.live
		if r == nil {
			continue
		}
		st.Entries++
		if r.transferred {
			st.Transferred++
		}
		if st.Tenants == nil {
			st.Tenants = make(map[string]int64)
		}
		st.Tenants[r.key.Tenant]++
	}
	return st, nil
}
