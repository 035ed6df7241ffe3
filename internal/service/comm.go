package service

import (
	"fmt"
	"slices"

	"fupermod/internal/commmodel"
	"fupermod/internal/core"
	"fupermod/internal/partition"
)

// CommSpec asks the partition endpoint to include communication cost in
// the balance: every device's predicted time becomes compute plus the
// fitted cost of its per-iteration traffic, BytesPerUnit·units bytes over
// the named network. The comm model is calibrated on the virtual runtime
// the first time a (net, op, ranks, model) combination is requested and
// cached on the server — calibration is deterministic, so the cache never
// goes stale.
type CommSpec struct {
	// Net is a commmodel network preset (see commmodel.NetNames).
	Net string `json:"net"`
	// Op is the measured operation (commmodel.Ops); empty selects "p2p",
	// the raw link cost.
	Op string `json:"op,omitempty"`
	// Model is the comm model kind, "hockney" or "loggp"; empty selects
	// "loggp".
	Model string `json:"model,omitempty"`
	// BytesPerUnit is the wire traffic one computation unit costs a
	// device per iteration; 0 prices communication at nothing.
	BytesPerUnit float64 `json:"bytes_per_unit"`
}

// normalize fills the spec's defaults in place and validates it,
// returning the calibration spec and the comm model kind.
func (c *CommSpec) normalize(devices int) (commmodel.Spec, string, error) {
	if c.Op == "" {
		c.Op = string(commmodel.OpP2P)
	}
	if c.Model == "" {
		c.Model = "loggp"
	}
	if !slices.Contains(commmodel.ModelKinds(), c.Model) {
		return commmodel.Spec{}, "", fmt.Errorf("unknown comm model %q (want one of %v)", c.Model, commmodel.ModelKinds())
	}
	if c.BytesPerUnit < 0 {
		return commmodel.Spec{}, "", fmt.Errorf("negative bytes_per_unit %g", c.BytesPerUnit)
	}
	net, err := commmodel.NetByName(c.Net)
	if err != nil {
		return commmodel.Spec{}, "", err
	}
	// Point-to-point ops need a peer even when one device is partitioned.
	spec := commmodel.Spec{Op: commmodel.Op(c.Op), Ranks: max(devices, 2), Net: net, NetName: c.Net}
	if err := spec.Validate(); err != nil {
		return commmodel.Spec{}, "", err
	}
	return spec, c.Model, nil
}

// commModel resolves the spec to a fitted comm model through the server's
// calibration cache, with single-flight deduplication: concurrent first
// requests for the same combination trigger exactly one calibration, and
// a failed one is dropped so the next request retries. The returned tag
// fingerprints everything that shaped the wrapped models — it goes into
// the batch key and the response.
func (s *Server) commModel(c *CommSpec, devices int) (commmodel.CommModel, string, error) {
	spec, kind, err := c.normalize(devices)
	if err != nil {
		return nil, "", err
	}
	tag := fmt.Sprintf("%s/%s/%s/%d/%g", kind, spec.Op, spec.NetName, spec.Ranks, c.BytesPerUnit)
	cacheKey := fmt.Sprintf("%s|%s|%s|%d", kind, spec.Op, spec.NetName, spec.Ranks)

	cl, joined := s.comms.Join(cacheKey)
	if joined {
		m, err := cl.Wait(s.ctx)
		return m, tag, err
	}
	s.stats.CommCalibrations.Add(1)
	m, err := s.comms.Keep(cacheKey, cl, func() (commmodel.CommModel, error) {
		cal, err := commmodel.Calibrate(s.ctx, s.pool, spec, nil, commmodel.DefaultPrecision)
		if err != nil {
			return nil, err
		}
		return cal.Fit(kind, false)
	})
	return m, tag, err
}

// commWrap wraps the compute models with the spec's fitted comm model.
// Without a spec the models pass through untouched with an empty tag.
func (s *Server) commWrap(c *CommSpec, models []core.Model) ([]core.Model, string, error) {
	if c == nil {
		return models, "", nil
	}
	cm, tag, err := s.commModel(c, len(models))
	if err != nil {
		return nil, "", err
	}
	comms := make([]partition.CommCost, len(models))
	for i := range comms {
		comms[i] = cm
	}
	wrapped, err := partition.WithCommModel(models, comms, partition.LinearBytes(c.BytesPerUnit))
	if err != nil {
		return nil, "", err
	}
	return wrapped, tag, nil
}
