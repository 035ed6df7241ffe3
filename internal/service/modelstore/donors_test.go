package modelstore

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/transfer"
)

// curvePoints samples a power-law speed curve on a small grid.
func curvePoints(scale float64) []core.Point {
	sizes := core.LogSizes(16, 5000, 20)
	pts := make([]core.Point, len(sizes))
	for i, d := range sizes {
		pts[i] = core.Point{D: d, Time: scale * 1e-6 * math.Pow(float64(d), 1.1), Reps: 2}
	}
	return pts
}

func TestPutTransferRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("tenant-a", "fast")
	prov := "donor=t/d/seed=1/noise=0/grid=16:5000:20 scale=2.5 probes=6/20 maxdiff=0.011"
	if err := s.PutTransfer(key, "gemm-b128", awkwardPoints(), prov); err != nil {
		t.Fatal(err)
	}
	e, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if e.Transfer != prov {
		t.Fatalf("provenance round-trip: got %q want %q", e.Transfer, prov)
	}
	// Both decode paths must read the header identically.
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	scanE, ok := scanEncoded(data)
	if !ok {
		t.Fatal("intact transferred entry should take the scan")
	}
	refE, err := DecodeRef(s.Path(key), data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scanE, e) || !reflect.DeepEqual(refE, e) {
		t.Fatalf("decode paths diverged:\n scan %+v\n ref  %+v\n get  %+v", scanE, refE, e)
	}
}

func TestPutTransferRejectsUnstorableProvenance(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("tenant-a", "fast")
	for _, prov := range []string{"two\nlines", "tab\there", "unicode é", " padded "} {
		if err := s.PutTransfer(key, "k", awkwardPoints(), prov); err == nil {
			t.Fatalf("provenance %q should be rejected", prov)
		}
	}
}

func TestDonorPoolFilters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	target := testKey("cold", "new-device")
	self := curvePoints(1)
	if err := s.Put(target, "k", self); err != nil {
		t.Fatal(err)
	}
	good := testKey("warm", "fast")
	if err := s.Put(good, "k", curvePoints(2)); err != nil {
		t.Fatal(err)
	}
	transferred := testKey("warm", "copied")
	if err := s.PutTransfer(transferred, "k", curvePoints(3), "donor=x scale=1"); err != nil {
		t.Fatal(err)
	}
	short := testKey("warm", "one-point")
	if err := s.Put(short, "k", []core.Point{{D: 16, Time: 1, Reps: 1}}); err != nil {
		t.Fatal(err)
	}
	donors, err := s.DonorPool(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(donors) != 1 {
		t.Fatalf("want exactly the full-sweep donor, got %d: %+v", len(donors), donors)
	}
	if donors[0].ID != DonorID(good) {
		t.Fatalf("donor ID %q, want %q", donors[0].ID, DonorID(good))
	}
	// The target's own entry, the transferred entry and the single-point
	// entry are all excluded.
	for _, excluded := range []Key{target, transferred, short} {
		if donors[0].ID == DonorID(excluded) {
			t.Fatalf("entry %s should be filtered out", DonorID(excluded))
		}
	}
}

func TestSimilarCurvesRanksByShape(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	smoothK := testKey("warm", "smooth")
	if err := s.Put(smoothK, "k", curvePoints(2)); err != nil {
		t.Fatal(err)
	}
	cliffK := testKey("warm", "cliffy")
	sizes := core.LogSizes(16, 5000, 20)
	cliffPts := make([]core.Point, len(sizes))
	for i, d := range sizes {
		tm := 1e-3 + float64(d)*1e-7
		if d > 1000 {
			tm *= 1 + math.Pow(float64(d-1000)/800, 2)
		}
		cliffPts[i] = core.Point{D: d, Time: tm, Reps: 2}
	}
	if err := s.Put(cliffK, "k", cliffPts); err != nil {
		t.Fatal(err)
	}
	probes := curvePoints(5) // same shape as smoothK, different scale
	donors, err := s.Donors(testKey("cold", "new"))
	if err != nil {
		t.Fatal(err)
	}
	cands := donors.Rank(probes, 0)
	if len(cands) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(cands))
	}
	if cands[0].Donor.ID != DonorID(smoothK) {
		t.Fatalf("nearest should be the same-shape curve, got %q", cands[0].Donor.ID)
	}
	if cands[0].Distance >= cands[1].Distance {
		t.Fatalf("distances not ordered: %g vs %g", cands[0].Distance, cands[1].Distance)
	}
	if top := donors.Rank(probes, 1); len(top) != 1 {
		t.Fatalf("max=1: got %d candidates", len(top))
	}
}

func TestStoreStats(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey("tenant-a", "fast"), "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey("tenant-a", "slow"), "k", curvePoints(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTransfer(testKey("tenant-b", "copied"), "k", curvePoints(3), "donor=x scale=1"); err != nil {
		t.Fatal(err)
	}
	// One corrupt entry: tear the last one so its trailer is gone.
	torn := testKey("tenant-b", "torn")
	if err := s.Put(torn, "k", curvePoints(4)); err != nil {
		t.Fatal(err)
	}
	tearEntry(t, s, torn)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Transferred != 1 || st.CorruptFiles != 1 {
		t.Fatalf("unexpected census: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("bytes should count all files, got %d", st.Bytes)
	}
	if st.Tenants["tenant-a"] != 2 || st.Tenants["tenant-b"] != 1 {
		t.Fatalf("unexpected per-tenant counts: %+v", st.Tenants)
	}
	var sum StoreStats
	sum.Add(st)
	sum.Add(st)
	if sum.Entries != 6 || sum.Tenants["tenant-a"] != 4 {
		t.Fatalf("Add should accumulate: %+v", sum)
	}
}

func TestFillRecordsProvenance(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("cold", "new")
	prov := "donor=warm/fast scale=2 probes=5/20 maxdiff=0.009"
	ent, info, err := s.Fill(context.Background(), key, func() (Swept, error) {
		return Swept{Kernel: "k", Points: curvePoints(1), Transfer: prov}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceSwept || ent.Transfer != prov {
		t.Fatalf("leader fill: %+v / %+v", info, ent)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || got.Transfer != prov {
		t.Fatalf("spilled entry should carry provenance: ok=%v err=%v transfer=%q", ok, err, got.Transfer)
	}
	// A second fill is a disk hit and must not re-run the closure.
	_, info2, err := s.Fill(context.Background(), key, func() (Swept, error) {
		t.Fatal("disk hit must not sweep")
		return Swept{}, nil
	})
	if err != nil || info2.Source != SourceDisk {
		t.Fatalf("want disk source, got %+v err %v", info2, err)
	}
}

// TestAcquireFallsBackBeforeProbing: on an empty donor pool Acquire falls
// back without building a prober, so a caller pays nothing for the
// attempt; once the store holds a donor whose curve is a rescaled copy of
// the cold device's, Acquire probes and transfers from it, and Provenance
// names it.
func TestAcquireFallsBackBeforeProbing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := testKey("cold", "new"), testKey("warm", "old")
	target := curvePoints(3)
	sizes := make([]int, len(target))
	for i, p := range target {
		sizes[i] = p.D
	}
	built := 0
	prober := func() (transfer.Prober, error) {
		built++
		return func(d int) (core.Point, error) {
			for _, p := range target {
				if p.D == d {
					return p, nil
				}
			}
			return core.Point{}, fmt.Errorf("size %d is off the grid", d)
		}, nil
	}
	res, err := s.Acquire(cold, sizes, prober, transfer.Config{})
	if err != nil || res.Fallback != "the store has no donor curves" || built != 0 {
		t.Fatalf("empty pool: result %+v, err %v, %d probers built; want the empty-pool fallback and none", res, err, built)
	}
	if err := s.Put(warm, "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	res, err = s.Acquire(cold, sizes, prober, transfer.Config{})
	if err != nil || res.Fallback != "" || built != 1 {
		t.Fatalf("one donor: result %+v, err %v, %d probers built; want a transfer and one", res, err, built)
	}
	prov := Provenance(res, len(sizes))
	if want := "donor=" + DonorID(warm) + " scale="; !strings.HasPrefix(prov, want) || !strings.Contains(prov, fmt.Sprintf("/%d maxdiff=", len(sizes))) {
		t.Fatalf("provenance %q, want it to open with %q and count probes out of %d", prov, want, len(sizes))
	}
}

// donorIDRef is DonorID's fmt form, the reference its bytes are pinned
// to: donor ids are written into stored transfer provenance.
func donorIDRef(k Key) string {
	return fmt.Sprintf("%s/%s/seed=%d/noise=%s/grid=%d:%d:%d",
		url.QueryEscape(k.Tenant), url.QueryEscape(k.Device),
		k.Seed, strconv.FormatFloat(k.Noise, 'g', -1, 64), k.Lo, k.Hi, k.N)
}

// TestDonorIDMatchesRef pins DonorID's bytes to its fmt form over edge
// keys: noise levels that print in exponent form or round, extreme seeds
// and grids, machine devices, and tenants and devices that need escaping.
func TestDonorIDMatchesRef(t *testing.T) {
	base := testKey("team-a", "fast")
	tests := []struct {
		name string
		edit func(*Key)
	}{
		{"plain", func(*Key) {}},
		{"noise 0", func(k *Key) { k.Noise = 0 }},
		{"noise 0.1", func(k *Key) { k.Noise = 0.1 }},
		{"noise 1e-7", func(k *Key) { k.Noise = 1e-7 }},
		{"noise 5e-324", func(k *Key) { k.Noise = 5e-324 }},
		{"noise 1e21", func(k *Key) { k.Noise = 1e21 }},
		{"noise -0", func(k *Key) { k.Noise = math.Copysign(0, -1) }},
		{"negative seed", func(k *Key) { k.Seed = -3 }},
		{"minimum seed", func(k *Key) { k.Seed = math.MinInt64 }},
		{"maximum seed", func(k *Key) { k.Seed = math.MaxInt64 }},
		{"maximum grid", func(k *Key) { k.Lo, k.Hi, k.N = 1, math.MaxInt, math.MaxInt }},
		{"machine device", func(k *Key) { k.Device = "machine:3f2a9c01d4e5b6a7/12" }},
		{"escaped tenant", func(k *Key) { k.Tenant = "tenant with spaces|pipes&q=1%" }},
		{"escaped device", func(k *Key) { k.Device = "machine:é/0?x=#" }},
		{"long fields", func(k *Key) { k.Tenant, k.Device = strings.Repeat("t/", 100), strings.Repeat("d ", 100) }},
	}
	for _, tc := range tests {
		k := base
		tc.edit(&k)
		if got, want := DonorID(k), donorIDRef(k); got != want {
			t.Errorf("%s: DonorID = %q, want %q", tc.name, got, want)
		}
	}
}

func TestDonorIDPrintable(t *testing.T) {
	k := testKey("tenant with spaces|pipes", "machine:é/0")
	id := DonorID(k)
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] >= 0x7F {
			t.Fatalf("DonorID %q has unstorable byte %#x", id, id[i])
		}
	}
	if !strings.Contains(id, "seed=7") {
		t.Fatalf("DonorID should spell the conditions, got %q", id)
	}
}
