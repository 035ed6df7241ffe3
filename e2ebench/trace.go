package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"fupermod/internal/commmodel"
	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/kernels"
	"fupermod/internal/matpart"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/platform"
	"fupermod/internal/pool"
	"fupermod/internal/rebalance"
	"fupermod/internal/service"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/service/ring"
	"fupermod/internal/transfer"
)

// layer names one span kind: the root around ServeHTTP, or the benchmark's
// own call into one layer's public function.
type layer uint8

const (
	lRoot      layer = iota
	lWait            // derived: the root's self time, root − children
	lDecode          // service.DecodeJSON on the request bytes
	lEncode          // service.EncodeJSON on the response
	lBatchKey        // service.BatchKey on the request's model keys
	lRing            // ring.Ring.Lookup of the tenant
	lSweep           // core.Sweep of a fresh virtual kernel
	lFit             // model.New + core.UpdateAll
	lPut             // modelstore.Store.Put
	lGet             // modelstore.Store.Get
	lLoad            // modelstore.Store.Load of the fixture
	lDonorPool       // modelstore.Store.DonorPool
	lAcquire         // transfer.Acquire over the stored donors
	lSolve           // partition.ByName(alg).Partition
	lCommSolve       // the same after partition.WithCommModel
	lCalibrate       // commmodel.Calibrate + Fit
	lDynpart         // dynamic.PartitionDynamic
	lBalance         // dynamic.NewBalancer + Observe per iteration
	lDecide          // model replay, proposal, PredictTimes, rebalance.Decide
	lArrange         // matpart.Partition + PartitionGrid
	numLayers
)

var layerNames = [numLayers]string{"root", "wait", "decode", "encode", "batch_key", "ring_lookup",
	"sweep", "fit", "put", "get", "load", "donor_pool", "acquire", "solve", "comm_solve",
	"calibrate", "dynpart", "balance", "decide", "arrange"}

// Phases a span is recorded in.
const (
	phaseSetup uint8 = iota
	phaseLead
	phaseOpen
	phaseClosed
)

// span is one timed call. Spans of one request share its ID (the index in
// its phase's request list).
type span struct {
	req   int32
	phase uint8
	layer layer
	dur   time.Duration
}

// tracer records spans from outside the program: after each request it
// replays, on the request's own inputs, the public call of every layer the
// request implies, and times each call. Spans stay in memory until the run
// ends.
type tracer struct {
	phase  uint8
	ring   *ring.Ring
	store  *modelstore.Store // private: put/get spans never touch the server's store
	donors *modelstore.Store // the server's store: the fixture transfer draws on
	pool   *pool.Pool
	spans  [][]span // per worker: each worker appends only to its own

	mu     sync.Mutex
	fitted map[fitKey]core.Model
	comms  map[string]commmodel.CommModel
}

type fitKey struct {
	tenant string
	key    service.ModelKey
}

func newTracer(workers int, storeDir string, donors *modelstore.Store) (*tracer, error) {
	st, err := modelstore.Open(storeDir)
	if err != nil {
		return nil, err
	}
	r := ring.New(0)
	r.Add("0") // the single shard of the fupermod-serve default
	return &tracer{ring: r, store: st, donors: donors, pool: pool.New(1),
		spans: make([][]span, workers), fitted: map[fitKey]core.Model{}, comms: map[string]commmodel.CommModel{}}, nil
}

// timer times the child calls of one request.
type timer struct {
	t     *tracer
	w     int
	id    int32
	child time.Duration
}

func (tm *timer) span(l layer, f func()) {
	start := time.Now()
	f()
	d := time.Since(start)
	tm.child += d
	tm.t.spans[tm.w] = append(tm.t.spans[tm.w], span{tm.id, tm.t.phase, l, d})
}

// record adds a span timed elsewhere.
func (t *tracer) record(w int, id int, l layer, d time.Duration) {
	t.spans[w] = append(t.spans[w], span{int32(id), t.phase, l, d})
}

// request records the root span of one served request and its children.
// Errors of the replayed calls are ignored: the server's answer to the
// same inputs was already checked, and a failing replay only shortens a
// span.
func (t *tracer) request(w, id int, r *genReq, resp []byte, root time.Duration) {
	tm := &timer{t: t, w: w, id: int32(id)}
	req := newRequestValue(r.ep)
	tm.span(lDecode, func() { _ = service.DecodeJSON(bytes.NewReader(r.body), req) })
	tm.span(lRing, func() { t.ring.Lookup(service.TenantOf(r.tenant)) })
	models := make([]core.Model, len(r.refs))
	for i, ref := range r.refs {
		models[i] = t.model(tm, r.tenant, ref)
	}
	var answer any
	switch v := req.(type) {
	case *service.MeasureRequest:
		answer = &service.MeasureResponse{}
		if r.ep == epModel {
			answer = &service.ModelResponse{}
		}
	case *service.PartitionRequest:
		answer = &service.PartitionResponse{}
		t.partition(tm, v, r.refs, models, resp)
	case *service.DynpartRequest:
		answer = &service.DynpartResponse{}
		tm.span(lDynpart, func() { dynpart(v) })
	case *service.BalanceRequest:
		answer = &service.BalanceResponse{}
		tm.span(lBalance, func() { balance(v) })
	case *service.RebalanceRequest:
		answer = &service.RebalanceResponse{}
		link := t.comm(tm, *v.Comm, v.N)
		tm.span(lDecide, func() { decide(v, link) })
	case *service.MatpartRequest:
		answer = &service.MatpartResponse{}
		tm.span(lArrange, func() { arrange(v) })
	}
	if json.Unmarshal(resp, answer) == nil {
		tm.span(lEncode, func() { _ = service.EncodeJSON(io.Discard, answer) })
	}
	t.record(w, id, lRoot, root)
	t.record(w, id, lWait, root-tm.child)
}

func (t *tracer) partition(tm *timer, req *service.PartitionRequest, refs []keyRef, models []core.Model, resp []byte) {
	alg := req.Algorithm
	if alg == "" {
		alg = "geometric"
	}
	keys := make([]service.ModelKey, len(refs))
	for i, ref := range refs {
		keys[i] = ref.key
	}
	var answer struct {
		Comm string `json:"comm"`
	}
	_ = json.Unmarshal(resp, &answer)
	tm.span(lBatchKey, func() { service.BatchKey("part", service.TenantOf(req.Tenant), keys, alg, req.D, answer.Comm) })
	p, err := partition.ByName(alg)
	if err != nil {
		return
	}
	if req.Comm == nil {
		tm.span(lSolve, func() { _, _ = p.Partition(models, req.D) })
		return
	}
	cm := t.comm(tm, *req.Comm, len(models))
	tm.span(lCommSolve, func() {
		comms := make([]partition.CommCost, len(models))
		for i := range comms {
			comms[i] = cm
		}
		wrapped, err := partition.WithCommModel(models, comms, partition.LinearBytes(req.Comm.BytesPerUnit))
		if err == nil {
			_, _ = p.Partition(wrapped, req.D)
		}
	})
}

// model returns the fitted model behind one key reference, replaying the
// layers the generator's view implies: a new key is swept, fitted and
// put; a stored key is read back and fitted; a transfer key draws the
// donor pool and acquires; a seen key is a lookup only.
func (t *tracer) model(tm *timer, tenant string, ref keyRef) core.Model {
	fk := fitKey{tenant, ref.key}
	t.mu.Lock()
	m := t.fitted[fk]
	t.mu.Unlock()
	if m != nil && ref.state == refSeen {
		return m
	}
	// A seen key the other worker is still filling is computed untimed:
	// the request implies a lookup, not a fill.
	span := tm.span
	if ref.state == refSeen {
		span = func(_ layer, f func()) { f() }
	}
	k := ref.key
	sk := modelstore.Key{Tenant: tenant, Device: k.Device, Seed: k.Seed, Noise: k.Noise,
		Lo: k.Lo, Hi: k.Hi, N: k.N, Prec: modelstore.EncodePrecision(service.DefaultSweepPrecision)}
	sizes := core.LogSizes(k.Lo, k.Hi, k.N)
	var pts []core.Point
	switch ref.state {
	case refStored:
		st := t.store
		if t.donors != nil {
			st = t.donors
		}
		span(lGet, func() {
			if e, ok, err := st.Get(sk); ok && err == nil {
				pts = e.Points
			}
		})
	case refTransfer:
		var donors []transfer.Donor
		span(lDonorPool, func() { donors, _ = t.donors.DonorPool(sk) })
		span(lAcquire, func() {
			probe := core.NewProber(virtualKernel(k), service.DefaultSweepPrecision)
			cfg := transfer.Config{Probes: service.DefaultTransferProbes, Tol: service.DefaultTransferTol}
			if res, err := transfer.Acquire(sizes, probe, transfer.Pool(donors, 0), cfg); err == nil && res.Fallback == "" {
				pts = res.Points
			}
		})
	}
	if pts == nil {
		// New keys, and the fallbacks of the cases above, sweep.
		span(lSweep, func() { pts, _ = core.Sweep(virtualKernel(k), sizes, service.DefaultSweepPrecision) })
	}
	span(lFit, func() {
		if m2, err := model.New(k.Model); err == nil && core.UpdateAll(m2, pts) == nil {
			m = m2
		}
	})
	if ref.state == refNew || ref.state == refTransfer {
		span(lPut, func() { _ = t.store.Put(sk, k.Device, pts) })
	}
	t.mu.Lock()
	t.fitted[fk] = m
	t.mu.Unlock()
	return m
}

// virtualKernel builds the fresh virtual kernel the service sweeps a key
// with: the device preset, metered with the key's noise seed and level.
func virtualKernel(k service.ModelKey) core.Kernel {
	dev, err := platform.Preset(k.Device)
	if err != nil {
		panic(fmt.Sprintf("generated device %q is not a preset", k.Device)) // the generator draws from presets only
	}
	nc := platform.Quiet
	if k.Noise > 0 {
		nc = platform.NoiseConfig{Rel: k.Noise, OutlierP: 0.02, OutlierScale: 0.5}
	}
	v, err := kernels.NewVirtual(dev.Name(), platform.NewMeter(dev, nc, k.Seed), service.GEMMBlockFlops)
	if err != nil {
		panic(fmt.Sprintf("virtual kernel for %q: %v", k.Device, err))
	}
	return v
}

// comm returns the fitted comm model of a spec at a rank count,
// calibrating (one span) on first use.
func (t *tracer) comm(tm *timer, c service.CommSpec, ranks int) commmodel.CommModel {
	op := commmodel.Op(c.Op)
	if c.Op == "" {
		op = commmodel.OpP2P
	}
	kind := c.Model
	if kind == "" {
		kind = "loggp"
	}
	key := fmt.Sprintf("%s|%s|%s|%d", kind, op, c.Net, ranks)
	t.mu.Lock()
	cm, ok := t.comms[key]
	t.mu.Unlock()
	if ok {
		return cm
	}
	net, err := commmodel.NetByName(c.Net)
	if err != nil {
		panic(fmt.Sprintf("generated comm net %q: %v", c.Net, err)) // the generator draws known nets only
	}
	tm.span(lCalibrate, func() {
		spec := commmodel.Spec{Op: op, Ranks: ranks, Net: net, NetName: c.Net}
		if cal, err := commmodel.Calibrate(context.Background(), t.pool, spec, nil, commmodel.DefaultPrecision); err == nil {
			cm, _ = cal.Fit(kind, false)
		}
	})
	t.mu.Lock()
	t.comms[key] = cm
	t.mu.Unlock()
	return cm
}

func dynpart(req *service.DynpartRequest) {
	ks := make([]core.Kernel, len(req.Devices))
	for i, d := range req.Devices {
		ks[i] = virtualKernel(service.ModelKey{Device: d.Preset, Seed: d.Seed, Noise: d.Noise})
	}
	geo, _ := partition.ByName("geometric")
	cfg := dynamic.Config{
		Algorithm: geo,
		NewModel:  func() core.Model { return model.NewPiecewise() },
		Precision: service.DefaultSweepPrecision,
		Eps:       service.DefaultDynEps,
		MaxIters:  req.MaxIters,
	}
	_, _ = dynamic.PartitionDynamic(ks, req.D, cfg)
}

func balance(req *service.BalanceRequest) {
	geo, _ := partition.ByName("geometric")
	cfg := dynamic.Config{Algorithm: geo, NewModel: func() core.Model { return model.NewPiecewise() }}
	b, err := dynamic.NewBalancer(cfg, req.D, req.N, req.MinGain)
	if err != nil {
		return
	}
	for _, times := range req.Iterations {
		if _, err := b.Observe(times); err != nil {
			return
		}
		b.Dist()
	}
}

func decide(req *service.RebalanceRequest, link commmodel.CommModel) {
	old := &core.Dist{D: req.D, Parts: make([]core.Part, req.N)}
	models := make([]core.Model, req.N)
	for i, u := range req.Units {
		old.Parts[i].D = u
		models[i] = model.NewAdaptive()
	}
	for _, times := range req.Iterations {
		for i, tm := range times {
			if req.Units[i] > 0 {
				_ = models[i].Update(core.Point{D: req.Units[i], Time: tm, Reps: 1})
			}
		}
	}
	geo, _ := partition.ByName("geometric")
	proposal, err := geo.Partition(models, req.D)
	if err != nil {
		return
	}
	oldPred, err1 := dynamic.PredictTimes(models, old)
	newPred, err2 := dynamic.PredictTimes(models, proposal)
	if err1 == nil && err2 == nil && link != nil {
		_, _ = rebalance.Decide(oldPred, newPred, rebalance.Uniform(link), req.UnitBytes, req.Rounds)
	}
}

func arrange(req *service.MatpartRequest) {
	_, _, _ = matpart.Partition(req.Areas)
	if req.Grid > 0 {
		_, _ = matpart.PartitionGrid(req.Areas, req.Grid)
	}
}

// write dumps every span once, at the end of the run, as tab-separated
// request, phase, layer and nanoseconds.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	for _, ws := range t.spans {
		for _, s := range ws {
			fmt.Fprintf(&buf, "%d\t%d\t%s\t%d\n", s.req, s.phase, layerNames[s.layer], s.dur.Nanoseconds())
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
