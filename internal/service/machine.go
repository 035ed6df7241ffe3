package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"fupermod/internal/config"
	"fupermod/internal/platform"
)

// Machine-file tenants: instead of the built-in device presets, a tenant
// may upload a machine file (the same format the CLI tools accept with
// -machine, parsed by internal/config) and then reference its devices in
// any request. Uploads are content-addressed — the response carries a
// fingerprint of the file text — and a device reference resolves to
// "machine:<fingerprint>/<rank>", so cache keys, disk-store entries and
// responses stay valid across re-uploads: a tenant that uploads a
// different file gets different keys, never another file's models.
//
//	POST /v1/machine  {"tenant": "t", "machine": "node a\n  cpu c peak=2e9\n"}
//
// Requests then use {"preset": "machine:0"} (rank 0 of the tenant's
// current machine) or the pinned form {"preset": "machine:<fp>/0"}.

// MachineRequest uploads one machine file for a tenant.
type MachineRequest struct {
	Tenant string `json:"tenant"`
	// Machine is the machine-file text (see internal/config for the
	// format).
	Machine string `json:"machine"`
}

// MachineDevice describes one device of an uploaded machine.
type MachineDevice struct {
	// Ref is the fingerprint-pinned device reference usable as a request
	// "preset".
	Ref string `json:"ref"`
	// Name is the device's own name, Node the node it belongs to.
	Name string `json:"name"`
	Node string `json:"node"`
}

// MachineResponse acknowledges an upload.
type MachineResponse struct {
	Tenant      string          `json:"tenant"`
	Fingerprint string          `json:"fingerprint"`
	Devices     []MachineDevice `json:"devices"`
}

// tenantMachines holds one tenant's uploaded machines, content-addressed
// by fingerprint; current is the fingerprint bare "machine:<rank>" refs
// resolve through.
type tenantMachines struct {
	current string
	byFP    map[string][]platform.Device
}

const machinePrefix = "machine:"

// machineFingerprint content-addresses a machine file.
func machineFingerprint(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:6])
}

func (s *Server) handleMachine(w http.ResponseWriter, r *http.Request) error {
	var req MachineRequest
	if err := decode(w, r, &req, &req.Tenant); err != nil {
		return err
	}
	if strings.TrimSpace(req.Machine) == "" {
		return badRequest("machine file text is required")
	}
	m, err := config.Parse(strings.NewReader(req.Machine))
	if err != nil {
		return badRequest("%v", err)
	}
	devs := m.Devices()
	if len(devs) > MaxDevices {
		return badRequest("machine file defines %d devices, limit is %d", len(devs), MaxDevices)
	}
	tenant := req.Tenant
	fp := machineFingerprint(req.Machine)

	s.machineMu.Lock()
	tm, ok := s.machines[tenant]
	if !ok {
		tm = &tenantMachines{byFP: make(map[string][]platform.Device)}
		s.machines[tenant] = tm
	}
	if _, seen := tm.byFP[fp]; !seen {
		tm.byFP[fp] = devs
		s.stats.MachineUploads.Add(1)
	}
	tm.current = fp
	s.machineMu.Unlock()

	resp := MachineResponse{Tenant: tenant, Fingerprint: fp}
	nodeOf := m.NodeOf()
	for rank, dev := range devs {
		resp.Devices = append(resp.Devices, MachineDevice{
			Ref:  fmt.Sprintf("%s%s/%d", machinePrefix, fp, rank),
			Name: dev.Name(),
			Node: m.Nodes[nodeOf[rank]].Name,
		})
	}
	return writeJSON(w, resp)
}

// canonDevice maps a request's device reference to its canonical cache
// form. Preset names pass through; "machine:<rank>" pins to the tenant's
// current upload; "machine:<fp>/<rank>" is already canonical (only its
// syntax is checked — existence is resolved at fill time, so entries
// persisted on disk stay answerable after a restart even before the
// machine file is re-uploaded).
func (s *Server) canonDevice(tenant, name string) (string, error) {
	if !strings.HasPrefix(name, machinePrefix) {
		return name, nil
	}
	rest := strings.TrimPrefix(name, machinePrefix)
	if fp, rankStr, ok := strings.Cut(rest, "/"); ok {
		if fp == "" {
			return "", fmt.Errorf("device %q: empty machine fingerprint", name)
		}
		if _, err := strconv.Atoi(rankStr); err != nil {
			return "", fmt.Errorf("device %q: bad rank: %v", name, err)
		}
		return name, nil
	}
	rank, err := strconv.Atoi(rest)
	if err != nil {
		return "", fmt.Errorf("device %q: bad rank: %v", name, err)
	}
	s.machineMu.Lock()
	defer s.machineMu.Unlock()
	tm, ok := s.machines[tenant]
	if !ok || tm.current == "" {
		return "", fmt.Errorf("device %q: tenant %q has no uploaded machine file (POST /v1/machine first)", name, tenant)
	}
	if rank < 0 || rank >= len(tm.byFP[tm.current]) {
		return "", fmt.Errorf("device %q: rank out of range (machine %s has %d devices)", name, tm.current, len(tm.byFP[tm.current]))
	}
	return fmt.Sprintf("%s%s/%d", machinePrefix, tm.current, rank), nil
}

// resolveDevice turns a canonical device string into the platform device
// to measure: a preset, or a device of an uploaded machine file.
func (s *Server) resolveDevice(tenant, name string) (platform.Device, error) {
	if !strings.HasPrefix(name, machinePrefix) {
		return platform.Preset(name)
	}
	fp, rankStr, ok := strings.Cut(strings.TrimPrefix(name, machinePrefix), "/")
	if !ok {
		return nil, fmt.Errorf("service: device %q is not canonical (want machine:<fp>/<rank>)", name)
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		return nil, fmt.Errorf("service: device %q: bad rank: %w", name, err)
	}
	s.machineMu.Lock()
	defer s.machineMu.Unlock()
	tm, ok := s.machines[tenant]
	if !ok {
		return nil, fmt.Errorf("service: tenant %q has no uploaded machine file for device %q", tenant, name)
	}
	devs, ok := tm.byFP[fp]
	if !ok {
		return nil, fmt.Errorf("service: machine %s is not uploaded for tenant %q (re-upload to measure %q)", fp, tenant, name)
	}
	if rank < 0 || rank >= len(devs) {
		return nil, fmt.Errorf("service: device %q: rank out of range (machine has %d devices)", name, len(devs))
	}
	return devs[rank], nil
}
