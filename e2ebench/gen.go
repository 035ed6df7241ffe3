package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fupermod/internal/model"
	"fupermod/internal/service"
)

// Endpoint classes: the per-endpoint latency split of the traced run keys
// on these, so the three flavours of /v1/partition are told apart.
const (
	epMeasure       = "measure"
	epModel         = "model"
	epPartition     = "partition"
	epPartitionComm = "partition-comm"
	epPartitionNum  = "partition-numerical"
	epDynpart       = "dynpart"
	epBalance       = "balance"
	epRebalance     = "rebalance"
	epMatpart       = "matpart"
)

// endpoints lists every class in report order.
var endpoints = []string{epMeasure, epModel, epPartition, epPartitionComm, epPartitionNum,
	epDynpart, epBalance, epRebalance, epMatpart}

var endpointPath = map[string]string{
	epMeasure:       "/v1/measure",
	epModel:         "/v1/model",
	epPartition:     "/v1/partition",
	epPartitionComm: "/v1/partition",
	epPartitionNum:  "/v1/partition",
	epDynpart:       "/v1/dynpart",
	epBalance:       "/v1/balance",
	epRebalance:     "/v1/rebalance",
	epMatpart:       "/v1/matpart",
}

// refState is what the generator knows about one model key a request
// references, which decides the layers the traced run replays for it.
type refState uint8

const (
	// refSeen: requested earlier in this run — a cache lookup only.
	refSeen refState = iota
	// refNew: first request of the key in this run — sweep, fit, put.
	refNew
	// refStored: the key was last used long enough ago that the LRU has
	// evicted it (or a prior server life wrote it) — store read, fit.
	refStored
	// refTransfer: never seen, on a transfer server — donor pool, acquire.
	refTransfer
)

// keyRef is one model key a request implies.
type keyRef struct {
	key   service.ModelKey
	state refState
}

// genReq is one generated request: its bytes, when it is due, and what the
// generator knows about it for the traced run. It holds no decoded copy of
// the request: the prebuilt traffic stays small and pointer-light, so the
// benchmark's own heap barely moves the server's garbage collection.
type genReq struct {
	ep     string
	body   []byte
	at     time.Duration // scheduled send time, from the open-loop start
	twin   int           // index of the identical request sent at the same instant, or -1
	tenant string
	refs   []keyRef // model keys in device order (cache-backed endpoints)
	// replay marks requests whose answer is a pure function of the bytes
	// (transfer-filled answers depend on the donor store).
	replay bool
}

// newRequestValue returns a fresh value of an endpoint's request type.
func newRequestValue(ep string) any {
	switch ep {
	case epMeasure, epModel:
		return &service.MeasureRequest{}
	case epPartition, epPartitionComm, epPartitionNum:
		return &service.PartitionRequest{}
	case epDynpart:
		return &service.DynpartRequest{}
	case epBalance:
		return &service.BalanceRequest{}
	case epRebalance:
		return &service.RebalanceRequest{}
	default:
		return &service.MatpartRequest{}
	}
}

// Fixed shape of every workload's traffic.
const (
	numTenants = 16
	// evictAfter is the fill distance after which the generator treats a
	// key as evicted: the 64-entry tenant LRU plus slack for the reordering
	// two requests in flight can cause.
	evictAfter = service.DefaultCacheSize + 8
)

var presets = []string{"fast", "slow", "paging", "gpu", "netlib-blas", "socket-core"}

// commSpecs are the comm-aware specs the warm mix uses; with the rank
// counts below they make six calibrations, all paid in set-up.
var commSpecs = []service.CommSpec{
	{Net: "gigabit", Model: "hockney"},
	{Net: "shared", Model: "loggp"},
}

var commRanks = []int{2, 4, 8}

// tenantNames are built once, so generated requests share them.
var tenantNames = func() []string {
	names := make([]string, numTenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	return names
}()

func tenantName(i int) string { return tenantNames[i] }

// source emits the traffic of one workload: the prior server life's store
// fixture, the set-up warm-up, and then an endless event stream. An event
// is one request or an identical pair due at the same instant.
type source interface {
	fixture() []*genReq
	warmup() []*genReq
	next() []*genReq
}

// gen holds the seeded state shared by the workload sources: the size
// grid and relative measurement noise of every device (non-zero, so
// device seeds give distinct sweeps).
type gen struct {
	rng   *rand.Rand
	grid  service.Grid
	noise float64
}

func (g *gen) pick(n int) int { return g.rng.Intn(n) }

// deck deals event kinds in exact proportions, shuffled afresh each round,
// so a run's traffic mix does not drift with the seed: counts[k] of every
// sum(counts) draws are kind k.
type deck struct {
	rng  *rand.Rand
	full []int
	left []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for k, n := range counts {
		for ; n > 0; n-- {
			d.full = append(d.full, k)
		}
	}
	return d
}

func (d *deck) draw() int {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.full...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	k := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return k
}

// between returns a uniform integer in [lo, hi].
func (g *gen) between(lo, hi int) int { return lo + g.rng.Intn(hi-lo+1) }

// round2 keeps generated floats short on the wire.
func round2(x float64) float64 { return math.Round(x*100) / 100 }

func (g *gen) key(dev service.DeviceSpec, kind string) service.ModelKey {
	return service.ModelKey{Device: dev.Preset, Seed: dev.Seed, Noise: dev.Noise,
		Lo: g.grid.Lo, Hi: g.grid.Hi, N: g.grid.N, Model: kind}
}

// request encodes v and wraps it with its metadata.
func request(ep, tenant string, v any, refs []keyRef, replay bool) *genReq {
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding generated %s request: %v", ep, err)) // generated values always encode
	}
	return &genReq{ep: ep, body: body, twin: -1, tenant: tenant, refs: refs, replay: replay}
}

// pair duplicates a request as an identical twin due at the same instant.
// In the generator's view the twin's keys are already seen.
func pair(r *genReq) []*genReq {
	t := *r
	t.refs = make([]keyRef, len(r.refs))
	for i, ref := range r.refs {
		t.refs[i] = keyRef{key: ref.key, state: refSeen}
	}
	return []*genReq{r, &t}
}

func (g *gen) partition(ep, tenant string, devs []service.DeviceSpec, refs []keyRef, replay bool) *genReq {
	req := &service.PartitionRequest{Tenant: tenant, Devices: devs, Grid: g.grid,
		D: g.between(1000, 4000*len(devs))}
	switch ep {
	case epPartitionNum:
		req.Algorithm = "numerical"
		req.Model = model.KindAkima
	case epPartitionComm:
		spec := commSpecs[g.pick(len(commSpecs))]
		spec.BytesPerUnit = float64(int(64) << g.pick(5))
		req.Comm = &spec
	}
	return request(ep, tenant, req, refs, replay)
}

func (g *gen) balance(tenant string) *genReq {
	n := g.between(2, 8)
	req := &service.BalanceRequest{Tenant: tenant, N: n, D: g.between(100*n, 40000)}
	speeds := make([]float64, n)
	for j := range speeds {
		speeds[j] = 0.5 + 3.5*g.rng.Float64()
	}
	for it := g.between(2, 6); it > 0; it-- {
		times := make([]float64, n)
		for j := range times {
			times[j] = round2(float64(req.D)/float64(n)/speeds[j]/1000*(0.9+0.2*g.rng.Float64())) + 0.01
		}
		req.Iterations = append(req.Iterations, times)
	}
	return request(epBalance, tenant, req, nil, true)
}

func (g *gen) rebalance(tenant string) *genReq {
	n := commRanks[g.pick(len(commRanks))]
	d := g.between(100*n, 40000)
	units := make([]int, n)
	left := d
	for j := 0; j < n-1; j++ {
		units[j] = 1 + g.rng.Intn(left-(n-j)+1)/2
		left -= units[j]
	}
	units[n-1] = left
	spec := commSpecs[g.pick(len(commSpecs))]
	req := &service.RebalanceRequest{Tenant: tenant, N: n, D: d, Units: units,
		Rounds: g.between(5, 80), UnitBytes: float64(int(4096) << g.pick(9)), Comm: &spec}
	speeds := make([]float64, n)
	for j := range speeds {
		speeds[j] = 0.5 + 3.5*g.rng.Float64()
	}
	for it := g.between(1, 4); it > 0; it-- {
		times := make([]float64, n)
		for j := range times {
			times[j] = round2(float64(units[j])/speeds[j]/1000*(0.9+0.2*g.rng.Float64())) + 0.01
		}
		req.Iterations = append(req.Iterations, times)
	}
	return request(epRebalance, tenant, req, nil, true)
}

func (g *gen) matpart(tenant string) *genReq {
	n := g.between(2, 16)
	areas := make([]float64, n)
	for j := range areas {
		areas[j] = round2(0.2 + 9.8*g.rng.Float64())
	}
	if g.rng.Float64() < 0.2 {
		areas[g.pick(n)] = 0 // an idle process: empty rectangle, no blocks
	}
	req := &service.MatpartRequest{Tenant: tenant, Areas: areas}
	if g.rng.Float64() < 0.75 {
		req.Grid = g.between(16, 96)
	}
	return request(epMatpart, tenant, req, nil, true)
}

// warmMix is the hot path: every model key and comm calibration the mix
// uses is filled in set-up, so timed traffic never sweeps, calibrates or
// touches the store.
type warmMix struct {
	gen
	devs [][]service.DeviceSpec // per tenant: 6 presets × 4 seeds
	mix  *deck
}

// Warm-mix event kinds, dealt per 100 events: 35% partitions (a fifth of
// them as identical pairs), 10% comm-aware, 10% numerical/Akima, 10%
// model, 10% balance, 10% rebalance, 15% matpart.
const (
	wmPartition = iota
	wmPartitionPair
	wmComm
	wmNumerical
	wmModel
	wmBalance
	wmRebalance
	wmMatpart
)

func newWarmMix(seed int64) *warmMix {
	rng := rand.New(rand.NewSource(seed))
	w := &warmMix{gen: gen{rng: rng, grid: service.Grid{Lo: 16, Hi: 5000, N: 20}, noise: 0.1},
		mix: newDeck(rng, 28, 7, 10, 10, 10, 10, 10, 15)}
	for t := 0; t < numTenants; t++ {
		var devs []service.DeviceSpec
		for _, p := range presets {
			for s := 0; s < 4; s++ {
				devs = append(devs, service.DeviceSpec{Preset: p, Seed: w.rng.Int63n(1 << 40), Noise: w.noise})
			}
		}
		w.devs = append(w.devs, devs)
	}
	return w
}

func (w *warmMix) fixture() []*genReq { return nil }

func (w *warmMix) warmup() []*genReq {
	var out []*genReq
	for t, devs := range w.devs {
		tenant := tenantName(t)
		for _, dev := range devs {
			for _, kind := range []string{model.KindPiecewise, model.KindAkima} {
				req := &service.MeasureRequest{Tenant: tenant, Device: dev, Grid: w.grid, Model: kind}
				out = append(out, request(epMeasure, tenant, req, []keyRef{{w.key(dev, kind), refNew}}, true))
			}
		}
	}
	for _, spec := range commSpecs {
		for _, n := range commRanks {
			spec := spec
			spec.BytesPerUnit = 256
			tenant := tenantName(0)
			devs, refs := w.choose(0, n, model.KindPiecewise)
			req := &service.PartitionRequest{Tenant: tenant, Devices: devs, Grid: w.grid, D: 1000 * n, Comm: &spec}
			out = append(out, request(epPartitionComm, tenant, req, refs, true))
		}
	}
	return out
}

// choose draws n distinct devices of tenant t; every one was filled in
// set-up, so all references are cache lookups.
func (w *warmMix) choose(t, n int, kind string) ([]service.DeviceSpec, []keyRef) {
	perm := w.rng.Perm(len(w.devs[t]))[:n]
	devs := make([]service.DeviceSpec, n)
	refs := make([]keyRef, n)
	for i, j := range perm {
		devs[i] = w.devs[t][j]
		refs[i] = keyRef{w.key(devs[i], kind), refSeen}
	}
	return devs, refs
}

func (w *warmMix) next() []*genReq {
	t := w.pick(numTenants)
	tenant := tenantName(t)
	switch k := w.mix.draw(); k {
	case wmPartition, wmPartitionPair:
		devs, refs := w.choose(t, w.between(2, 16), model.KindPiecewise)
		r := w.partition(epPartition, tenant, devs, refs, true)
		if k == wmPartitionPair {
			return pair(r)
		}
		return []*genReq{r}
	case wmComm:
		devs, refs := w.choose(t, commRanks[w.pick(len(commRanks))], model.KindPiecewise)
		return []*genReq{w.partition(epPartitionComm, tenant, devs, refs, true)}
	case wmNumerical:
		devs, refs := w.choose(t, w.between(2, 16), model.KindAkima)
		return []*genReq{w.partition(epPartitionNum, tenant, devs, refs, true)}
	case wmModel:
		kind := []string{model.KindPiecewise, model.KindAkima}[w.pick(2)]
		devs, refs := w.choose(t, 1, kind)
		req := &service.ModelRequest{Tenant: tenant, Device: devs[0], Grid: w.grid, Model: kind}
		return []*genReq{request(epModel, tenant, req, refs, true)}
	case wmBalance:
		return []*genReq{w.balance(tenant)}
	case wmRebalance:
		return []*genReq{w.rebalance(tenant)}
	default:
		return []*genReq{w.matpart(tenant)}
	}
}

// coldFill is model fill under load: most device keys are new, so fill
// (sweep, fit, spill, single-flight, eviction, store re-read) does most of
// the work. The store holds only what the warm-up filled.
type coldFill struct {
	gen
	mix      *deck // per 20 events: 2 dynpart, 9 partition, 9 measure
	pairs    *deck // per 20 events with a new key: 3 identical pairs
	nextSeed int64
	fills    []int                        // per tenant: cache fills so far
	keys     [][]service.DeviceSpec       // per tenant: every key filled, in first-fill order
	lastUse  []map[service.DeviceSpec]int // per tenant: fill count at the key's last reference
}

func newColdFill(seed int64) *coldFill {
	rng := rand.New(rand.NewSource(seed))
	// Heavy fills (a 40-size grid, 10% noise) keep sweeping, not the
	// store's file writes, the bulk of a fill's cost.
	c := &coldFill{gen: gen{rng: rng, grid: service.Grid{Lo: 16, Hi: 60000, N: 40}, noise: 0.1},
		mix: newDeck(rng, 2, 9, 9), pairs: newDeck(rng, 17, 3)}
	c.nextSeed = c.rng.Int63n(1 << 40)
	c.fills = make([]int, numTenants)
	c.keys = make([][]service.DeviceSpec, numTenants)
	for t := 0; t < numTenants; t++ {
		c.lastUse = append(c.lastUse, map[service.DeviceSpec]int{})
	}
	return c
}

func (c *coldFill) fixture() []*genReq { return nil }

// warmup fills every tenant's LRU past its capacity with measures of new
// keys, so the first timed request already meets the workload's steady
// state: full caches, evictions, and evicted keys to re-read from the
// store.
func (c *coldFill) warmup() []*genReq {
	var out []*genReq
	for t := 0; t < numTenants; t++ {
		tenant := tenantName(t)
		for i := 0; i < evictAfter; i++ {
			dev := c.fill(t)
			req := &service.MeasureRequest{Tenant: tenant, Device: dev, Grid: c.grid}
			out = append(out, request(epMeasure, tenant, req, []keyRef{{c.key(dev, model.KindPiecewise), refNew}}, true))
		}
	}
	return out
}

// fill draws a never-seen key for tenant t and counts its cache fill.
func (c *coldFill) fill(t int) service.DeviceSpec {
	dev := c.newDevice()
	c.fills[t]++
	c.keys[t] = append(c.keys[t], dev)
	c.lastUse[t][dev] = c.fills[t]
	return dev
}

func (c *coldFill) newDevice() service.DeviceSpec {
	c.nextSeed++
	return service.DeviceSpec{Preset: presets[c.pick(len(presets))], Seed: c.nextSeed, Noise: c.noise}
}

// ref draws one device reference of tenant t: 15% a key the LRU has
// evicted (it comes back from the store), 15% a recently filled key (a
// cache hit), the rest never seen before. taken keeps one request's
// devices distinct.
func (c *coldFill) ref(t int, taken map[service.DeviceSpec]bool) (service.DeviceSpec, refState) {
	x := c.rng.Float64()
	if keys := c.keys[t]; x < 0.30 && len(keys) > 0 {
		for try := 0; try < 8; try++ {
			dev, state := keys[len(keys)-1-c.pick(min(len(keys), 16))], refSeen
			ok := c.fills[t]-c.lastUse[t][dev] < service.DefaultCacheSize/2
			if x < 0.15 {
				dev, state = keys[c.pick(len(keys))], refStored
				ok = c.fills[t]-c.lastUse[t][dev] >= evictAfter
			}
			if !ok || taken[dev] {
				continue
			}
			if state == refStored {
				c.fills[t]++
			}
			c.lastUse[t][dev] = c.fills[t]
			return dev, state
		}
	}
	return c.fill(t), refNew
}

func (c *coldFill) next() []*genReq {
	t := c.pick(numTenants)
	tenant := tenantName(t)
	kind := c.mix.draw()
	if kind == 0 {
		devs := make([]service.DeviceSpec, c.between(2, 4))
		for i := range devs {
			devs[i] = c.newDevice()
		}
		req := &service.DynpartRequest{Tenant: tenant, Devices: devs, D: c.between(2000, 20000)}
		return []*genReq{request(epDynpart, tenant, req, nil, true)}
	}
	n := 1
	if kind == 1 {
		n = c.between(2, 8)
	}
	taken := map[service.DeviceSpec]bool{}
	devs := make([]service.DeviceSpec, n)
	refs := make([]keyRef, n)
	fresh := false
	for i := range devs {
		dev, state := c.ref(t, taken)
		taken[dev] = true
		devs[i] = dev
		refs[i] = keyRef{c.key(dev, model.KindPiecewise), state}
		fresh = fresh || state == refNew
	}
	var r *genReq
	if n == 1 {
		req := &service.MeasureRequest{Tenant: tenant, Device: devs[0], Grid: c.grid}
		r = request(epMeasure, tenant, req, refs, true)
	} else {
		r = c.partition(epPartition, tenant, devs, refs, true)
	}
	if fresh && c.pairs.draw() == 1 {
		return pair(r)
	}
	return []*genReq{r}
}

// restartTransfer restarts a transfer-enabled server over a store a prior
// server life wrote. The fixture holds more entries than the tenant caches
// have slots, so the preload itself evicts and partitions over stored keys
// re-read the store; measures of never-seen seeds warm-start by transfer.
// Each transfer fill reads the whole store for donors (about 90 ms over
// the 2000-entry fixture on the 2-core machine the benchmark was defined
// on), so their share — 5% — sets the workload's capacity and its p99.
type restartTransfer struct {
	gen
	mix      *deck                  // per 20 events: 19 partitions, 1 transfer measure
	stored   [][]service.DeviceSpec // per tenant: the fixture's keys
	used     []map[service.DeviceSpec]bool
	nextSeed int64
}

// fixturePerTenant × numTenants is the fixture's entry count: more than
// the 16 × 64 cache slots.
const fixturePerTenant = 125

func newRestartTransfer(seed int64) *restartTransfer {
	// A 40-size grid: transfer's default budget (a quarter of the grid)
	// must exceed its 4 initial probes, or every fill falls back.
	rng := rand.New(rand.NewSource(seed))
	r := &restartTransfer{gen: gen{rng: rng, grid: service.Grid{Lo: 16, Hi: 60000, N: 40}, noise: 0.03},
		mix: newDeck(rng, 19, 1)}
	r.nextSeed = r.rng.Int63n(1 << 40)
	for t := 0; t < numTenants; t++ {
		var devs []service.DeviceSpec
		for i := 0; i < fixturePerTenant; i++ {
			r.nextSeed++
			devs = append(devs, service.DeviceSpec{Preset: presets[i%len(presets)], Seed: r.nextSeed, Noise: r.noise})
		}
		r.stored = append(r.stored, devs)
		r.used = append(r.used, map[service.DeviceSpec]bool{})
	}
	return r
}

func (r *restartTransfer) fixture() []*genReq {
	var out []*genReq
	for t, devs := range r.stored {
		tenant := tenantName(t)
		for _, dev := range devs {
			req := &service.MeasureRequest{Tenant: tenant, Device: dev, Grid: r.grid}
			out = append(out, request(epMeasure, tenant, req, nil, true))
		}
	}
	return out
}

func (r *restartTransfer) warmup() []*genReq { return nil }

func (r *restartTransfer) next() []*genReq {
	t := r.pick(numTenants)
	tenant := tenantName(t)
	if r.mix.draw() == 1 {
		r.nextSeed++
		dev := service.DeviceSpec{Preset: presets[r.pick(len(presets))], Seed: r.nextSeed, Noise: r.noise}
		req := &service.MeasureRequest{Tenant: tenant, Device: dev, Grid: r.grid}
		refs := []keyRef{{r.key(dev, model.KindPiecewise), refTransfer}}
		return []*genReq{request(epMeasure, tenant, req, refs, false)}
	}
	perm := r.rng.Perm(fixturePerTenant)[:r.between(2, 8)]
	devs := make([]service.DeviceSpec, len(perm))
	refs := make([]keyRef, len(perm))
	for i, j := range perm {
		devs[i] = r.stored[t][j]
		state := refSeen
		if !r.used[t][devs[i]] {
			// First use in this run: the generator cannot tell whether the
			// preload kept it, so the traced run replays the store read.
			state = refStored
			r.used[t][devs[i]] = true
		}
		refs[i] = keyRef{r.key(devs[i], model.KindPiecewise), state}
	}
	return []*genReq{r.partition(epPartition, tenant, devs, refs, true)}
}
