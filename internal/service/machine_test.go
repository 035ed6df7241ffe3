package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fupermod/internal/config"
	"fupermod/internal/core"
	"fupermod/internal/kernels"
	"fupermod/internal/platform"
)

const testMachineText = `node n0
  cpu c0 peak=2e9
  gpu g0 peak=2e10 transfer=5e9
node n1
  cpu c1 peak=8e8
`

func uploadMachine(t *testing.T, base, tenant, text string) MachineResponse {
	t.Helper()
	status, body := postJSON(t, base+"/v1/machine", MachineRequest{Tenant: tenant, Machine: text})
	if status != 200 {
		t.Fatalf("upload: status %d: %s", status, body)
	}
	var resp MachineResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMachineUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := uploadMachine(t, ts.URL, "team", testMachineText)
	if resp.Tenant != "team" || resp.Fingerprint == "" {
		t.Fatalf("response: %+v", resp)
	}
	if len(resp.Devices) != 3 {
		t.Fatalf("%d devices, want 3", len(resp.Devices))
	}
	wantNames := []string{"c0", "g0", "c1"}
	wantNodes := []string{"n0", "n0", "n1"}
	for i, d := range resp.Devices {
		if d.Name != wantNames[i] || d.Node != wantNodes[i] {
			t.Errorf("device %d: %+v, want name %s node %s", i, d, wantNames[i], wantNodes[i])
		}
		if !strings.HasPrefix(d.Ref, "machine:"+resp.Fingerprint+"/") {
			t.Errorf("device %d ref %q not pinned to fingerprint", i, d.Ref)
		}
	}
	if snap := getStats(t, ts.URL); snap.MachineUploads != 1 {
		t.Errorf("machine_uploads = %d, want 1", snap.MachineUploads)
	}
}

// TestMachineMeasureMatchesDirect: a sweep of an uploaded machine device
// equals the library sweep of the same parsed device — the machine path
// changes addressing, not measurement.
func TestMachineMeasureMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadMachine(t, ts.URL, "team", testMachineText)

	req := MeasureRequest{
		Tenant: "team",
		Device: DeviceSpec{Preset: "machine:1", Seed: 42, Noise: 0.05},
		Grid:   testGrid,
	}
	status, body := postJSON(t, ts.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("measure: status %d: %s", status, body)
	}
	var resp MeasureResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}

	m, err := config.Parse(strings.NewReader(testMachineText))
	if err != nil {
		t.Fatal(err)
	}
	dev := m.Devices()[1]
	meter := platform.NewMeter(dev, platform.RelNoise(0.05), 42)
	k, err := kernels.NewVirtual(dev.Name(), meter, GEMMBlockFlops)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Sweep(k, core.LogSizes(testGrid.Lo, testGrid.Hi, testGrid.N), DefaultSweepPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(resp.Points), len(want))
	}
	for i, p := range want {
		got := resp.Points[i]
		if got.D != p.D || got.TimeS != p.Time || got.Reps != p.Reps || got.CI != p.CI {
			t.Errorf("point %d: %+v != %+v", i, got, p)
		}
	}
}

// TestMachinePartition: a partition across uploaded machine devices works
// through the full path (bare and pinned refs address the same models).
func TestMachinePartition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	up := uploadMachine(t, ts.URL, "team", testMachineText)

	bare := PartitionRequest{
		Tenant: "team",
		Devices: []DeviceSpec{
			{Preset: "machine:0", Seed: 1},
			{Preset: "machine:1", Seed: 2},
			{Preset: "machine:2", Seed: 3},
		},
		Grid: testGrid,
		D:    12000,
	}
	status, bareBody := postJSON(t, ts.URL+"/v1/partition", bare)
	if status != 200 {
		t.Fatalf("partition: status %d: %s", status, bareBody)
	}
	var resp PartitionResponse
	if err := json.Unmarshal(bareBody, &resp); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range resp.Parts {
		total += p.Units
	}
	if total != bare.D {
		t.Errorf("parts sum to %d, want %d", total, bare.D)
	}
	sweepsAfterBare := getStats(t, ts.URL).Sweeps

	pinned := bare
	pinned.Devices = []DeviceSpec{
		{Preset: up.Devices[0].Ref, Seed: 1},
		{Preset: up.Devices[1].Ref, Seed: 2},
		{Preset: up.Devices[2].Ref, Seed: 3},
	}
	status, pinnedBody := postJSON(t, ts.URL+"/v1/partition", pinned)
	if status != 200 {
		t.Fatalf("pinned partition: status %d: %s", status, pinnedBody)
	}
	if !bytes.Equal(bareBody, pinnedBody) {
		t.Errorf("bare and pinned refs diverge:\n%s\n%s", bareBody, pinnedBody)
	}
	if snap := getStats(t, ts.URL); snap.Sweeps != sweepsAfterBare {
		t.Errorf("pinned request re-swept (%d → %d): bare refs must canonicalise to pinned", sweepsAfterBare, snap.Sweeps)
	}
}

// TestMachineReupload: uploading a different file moves the bare refs to
// the new fingerprint; pinned refs to the old file stay valid.
func TestMachineReupload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first := uploadMachine(t, ts.URL, "team", testMachineText)
	second := uploadMachine(t, ts.URL, "team", "node m\n  cpu z peak=1e9\n")
	if first.Fingerprint == second.Fingerprint {
		t.Fatal("distinct files share a fingerprint")
	}

	// Bare rank 1 no longer exists (the new machine has one device).
	status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{
		Tenant: "team", Device: DeviceSpec{Preset: "machine:1", Seed: 1}, Grid: testGrid,
	})
	if status != 400 {
		t.Errorf("bare out-of-range rank: status %d, want 400: %s", status, body)
	}
	// The old file's pinned ref still resolves.
	status, body = postJSON(t, ts.URL+"/v1/measure", MeasureRequest{
		Tenant: "team", Device: DeviceSpec{Preset: first.Devices[1].Ref, Seed: 1}, Grid: testGrid,
	})
	if status != 200 {
		t.Errorf("pinned ref after re-upload: status %d: %s", status, body)
	}
}

func TestMachineValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// No upload yet: bare refs are rejected with guidance.
	status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{
		Tenant: "team", Device: DeviceSpec{Preset: "machine:0", Seed: 1}, Grid: testGrid,
	})
	if status != 400 || !strings.Contains(string(body), "/v1/machine") {
		t.Errorf("no-upload measure: status %d body %s", status, body)
	}
	// Tenant isolation: team-b cannot use team-a's upload.
	uploadMachine(t, ts.URL, "team-a", testMachineText)
	status, _ = postJSON(t, ts.URL+"/v1/measure", MeasureRequest{
		Tenant: "team-b", Device: DeviceSpec{Preset: "machine:0", Seed: 1}, Grid: testGrid,
	})
	if status != 400 {
		t.Errorf("cross-tenant machine ref: status %d, want 400", status)
	}
	// Malformed uploads are rejected.
	for i, text := range []string{"", "cpu c peak=1e9\n", "node n\n  cpu c\n"} {
		if status, _ := postJSON(t, ts.URL+"/v1/machine", MachineRequest{Machine: text}); status != 400 {
			t.Errorf("bad machine %d: status %d, want 400", i, status)
		}
	}
	// Bad refs.
	for i, ref := range []string{"machine:", "machine:x", "machine:/0", "machine:abc/x"} {
		status, _ := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{
			Tenant: "team-a", Device: DeviceSpec{Preset: ref, Seed: 1}, Grid: testGrid,
		})
		if status != 400 {
			t.Errorf("bad ref %d (%q): status %d, want 400", i, ref, status)
		}
	}
}

// TestMachineModelsSurviveRestart: models of machine-file devices persist
// in the store under their pinned refs, so a restarted server answers for
// them with zero sweeps — before the tenant re-uploads anything.
func TestMachineModelsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{StoreDir: dir})
	up := uploadMachine(t, ts1.URL, "team", testMachineText)
	req := MeasureRequest{
		Tenant: "team",
		Device: DeviceSpec{Preset: up.Devices[0].Ref, Seed: 11},
		Grid:   testGrid,
	}
	status, want := postJSON(t, ts1.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("fill: status %d: %s", status, want)
	}

	// Restart; no machine re-upload. The pinned ref must be served from
	// the store (canonDevice passes pinned refs through syntactically).
	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	status, got := postJSON(t, ts2.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("restart measure: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("machine model diverges after restart:\n%s\n%s", got, want)
	}
	if snap := getStats(t, ts2.URL); snap.Sweeps != 0 {
		t.Errorf("restarted server swept %d times", snap.Sweeps)
	}

	// A *model kind* change still works storeside, but a fresh machine
	// sweep (new seed) without an upload must fail cleanly.
	fresh := req
	fresh.Device.Seed = 12
	if status, _ := postJSON(t, ts2.URL+"/v1/measure", fresh); status != 400 {
		t.Errorf("unresolvable machine sweep: status %d, want 400", status)
	}
}
