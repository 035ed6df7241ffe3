package main

import (
	"fmt"
	"math"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// e2e holds a pass's end-to-end metrics and the sample counts behind them.
type e2e struct {
	latP50, latP99, maxRPS, cpuUS, allocs, heapMB, setupS float64

	openN, closedN int
	// windows is how many latency windows the open loop was split into;
	// windowN the smallest window's sample count, beyond99 how many of
	// its samples lie beyond its p99.
	windows, windowN, beyond99 int
}

// metrics lists the gated end-to-end metrics in report order, the ones
// BENCHMARK.json bounds. error_share is not among them: any failure fails
// the run, so it is 0 on every run that reports numbers, and it is printed
// with the run record instead. Neither is latency_p99_ms: on the 2-core
// VM the benchmark was defined on, host busy spells moved warm-mix's p99
// by 0.25–0.35 (interquartile range over median, ten seeds), more than any
// bound can hold. It is printed beside these and reported, unbounded,
// among the per-layer metrics.
func (e *e2e) metrics() []metric {
	return []metric{
		{"setup_s", "s", e.setupS},
		{"latency_p50_ms", "ms", e.latP50},
		{"max_rps", "req/s", e.maxRPS},
		{"cpu_us_per_req", "us", e.cpuUS},
		{"allocs_per_req", "count", e.allocs},
		{"heap_live_mb", "MB", e.heapMB},
	}
}

// all is metrics plus the unbounded p99.
func (e *e2e) all() []metric {
	return append(e.metrics(), metric{"latency_p99_ms", "ms", e.latP99})
}

// endToEnd derives the end-to-end metrics of a pass. Latency runs from
// each request's scheduled send time; a failed request counts as
// infinitely slow.
func (o *passOut) endToEnd(p *plan) (*e2e, error) {
	lat := make([]float64, len(p.open))
	for i, r := range o.open.res {
		lat[i] = math.Inf(1)
		if r.completed && !o.openFail[i] {
			lat[i] = ms(r.done - p.open[i].at)
		}
	}
	e := &e2e{openN: len(lat), closedN: o.closed.sent, windows: max(1, len(lat)/latencyWindow)}
	var p50s, p99s []float64
	for k := 0; k < e.windows; k++ {
		win := lat[k*len(lat)/e.windows : (k+1)*len(lat)/e.windows]
		p50, err := percentile(win, 0.50)
		if err != nil {
			return nil, fmt.Errorf("latency_p50_ms: %w", err)
		}
		p99, err := percentile(win, 0.99)
		if err != nil {
			return nil, fmt.Errorf("latency_p99_ms: %w (lengthen the run)", err)
		}
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		if k == 0 || len(win) < e.windowN {
			e.windowN = len(win)
		}
	}
	e.latP50, e.latP99 = median(p50s), median(p99s)
	e.beyond99 = e.windowN - int(math.Ceil(0.99*float64(e.windowN)))
	var cpus []float64
	for k := 1; k < len(o.open.cpu); k++ {
		a, b := o.open.cpu[k-1], o.open.cpu[k]
		if b.done > a.done {
			cpus = append(cpus, us(b.cpu-a.cpu)/float64(b.done-a.done))
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("no open-loop request completed")
	}
	e.cpuUS = median(cpus)
	e.allocs = float64(o.mallocs) / float64(o.open.cpu[len(o.open.cpu)-1].done)
	e.heapMB = float64(o.heapBytes) / (1 << 20)
	e.maxRPS = o.closedRate()
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	e.setupS = median(setups)
	return e, nil
}

// closedRate is the closed loop's successful completions per second.
func (o *passOut) closedRate() float64 {
	ok := 0
	for i := 0; i < o.closed.sent; i++ {
		if o.closed.res[i].completed && !o.closeFail[i] {
			ok++
		}
	}
	return float64(ok) / o.closed.elapsed.Seconds()
}

// spanMetrics maps each per-layer time metric to its span layer, unit
// and phase.
var spanMetrics = []struct {
	name  string
	unit  string
	layer layer
	phase uint8
}{
	{"service.decode_us", "us", lDecode, phaseOpen},
	{"service.encode_us", "us", lEncode, phaseOpen},
	{"service.batch_key_us", "us", lBatchKey, phaseOpen},
	{"service.wait_us", "us", lWait, phaseOpen},
	{"ring.lookup_us", "us", lRing, phaseOpen},
	{"core.sweep_ms", "ms", lSweep, phaseOpen},
	{"model.fit_us", "us", lFit, phaseOpen},
	{"modelstore.get_us", "us", lGet, phaseOpen},
	{"modelstore.put_us", "us", lPut, phaseOpen},
	{"modelstore.load_ms", "ms", lLoad, phaseSetup},
	{"modelstore.donor_pool_ms", "ms", lDonorPool, phaseOpen},
	{"transfer.acquire_ms", "ms", lAcquire, phaseOpen},
	{"partition.solve_us", "us", lSolve, phaseOpen},
	{"partition.comm_solve_us", "us", lCommSolve, phaseOpen},
	{"commmodel.calibrate_ms", "ms", lCalibrate, phaseSetup},
	{"dynamic.dynpart_ms", "ms", lDynpart, phaseOpen},
	{"dynamic.balance_us", "us", lBalance, phaseOpen},
	{"rebalance.decide_us", "us", lDecide, phaseOpen},
	{"matpart.arrange_us", "us", lArrange, phaseOpen},
}

// batchedEndpoints go through the server's batcher.
var batchedEndpoints = map[string]bool{epPartition: true, epPartitionComm: true, epPartitionNum: true,
	epDynpart: true, epBalance: true, epRebalance: true, epMatpart: true}

// perLayer derives the per-layer metrics: span medians and per-endpoint
// root spans from the traced pass's open loop, counts from the untraced
// pass's /stats deltas over the open loop (lead-in included), the
// generator's own figures, the untraced p99, and the traced pass's
// end-to-end metrics beside the untraced ones.
func perLayer(p *plan, plain, traced *passOut, plain99 float64, te *e2e) []metric {
	byLayer := map[uint8]map[layer][]float64{}
	rootByEp := map[string][]float64{}
	rootTotal := 0.0
	for _, ws := range traced.tr.spans {
		for _, s := range ws {
			if byLayer[s.phase] == nil {
				byLayer[s.phase] = map[layer][]float64{}
			}
			byLayer[s.phase][s.layer] = append(byLayer[s.phase][s.layer], float64(s.dur))
			if s.phase == phaseOpen && s.layer == lRoot {
				ep := p.open[s.req].ep
				rootByEp[ep] = append(rootByEp[ep], float64(s.dur))
				rootTotal += float64(s.dur)
			}
		}
	}
	var out []metric
	for _, sm := range spanMetrics {
		v := median(byLayer[sm.phase][sm.layer])
		if sm.unit == "ms" {
			v /= float64(time.Millisecond)
		} else {
			v /= float64(time.Microsecond)
		}
		out = append(out, metric{sm.name, sm.unit, v})
	}
	for _, ep := range endpoints {
		sum := 0.0
		for _, d := range rootByEp[ep] {
			sum += d
		}
		out = append(out,
			metric{"endpoint." + ep + ".p50_ms", "ms", median(rootByEp[ep]) / float64(time.Millisecond)},
			metric{"endpoint." + ep + ".share", "ratio", share(sum, rootTotal)})
	}

	d := plain.openSnap
	n := float64(plain.leadSent + plain.open.sent)
	batched := 0.0
	for _, r := range append(p.lead, p.open...) {
		if batchedEndpoints[r.ep] {
			batched++
		}
	}
	lookups := float64(d.CacheHits + d.CacheMisses + d.CacheCoalesced)
	runs := float64(d.TransferRuns + d.TransferFallbacks)
	out = append(out,
		metric{"batch.join_share", "ratio", share(float64(d.BatchJoined), float64(d.BatchSolves+d.BatchJoined))},
		metric{"batch.window_skip_share", "ratio", share(float64(d.BatchWindowSkips), batched)},
		metric{"cache.hit_share", "ratio", share(float64(d.CacheHits), lookups)},
		metric{"cache.misses_per_req", "count", float64(d.CacheMisses) / n},
		metric{"cache.coalesced_per_req", "count", float64(d.CacheCoalesced) / n},
		metric{"cache.evictions_per_req", "count", float64(d.CacheEvictions) / n},
		metric{"core.sweeps_per_req", "count", float64(d.Sweeps) / n},
		metric{"modelstore.hits_per_req", "count", float64(d.StoreHits) / n},
		metric{"modelstore.spills_per_req", "count", float64(d.StoreSpills) / n},
		metric{"transfer.probes_per_run", "count", share(float64(d.TransferProbes), runs)},
		metric{"transfer.fallback_share", "ratio", share(float64(d.TransferFallbacks), runs)},
		metric{"commmodel.calibrations", "count", float64(plain.setupSnap.CommCalibrations)},
	)

	late := make([]float64, len(p.open))
	dups, refs, fresh := 0.0, 0.0, 0.0
	for i, r := range p.open {
		late[i] = ms(plain.open.res[i].sent - r.at)
		if r.twin >= 0 {
			dups++
		}
		for _, ref := range r.refs {
			refs++
			if ref.state == refNew || ref.state == refTransfer {
				fresh++
			}
		}
	}
	lateP99, err := percentile(late, 0.99)
	if err != nil {
		lateP99 = median(late)
	}
	out = append(out,
		metric{"loadgen.late_p99_ms", "ms", lateP99},
		metric{"loadgen.dup_share", "ratio", share(dups, float64(len(p.open)))},
		metric{"loadgen.new_key_share", "ratio", share(fresh, refs)},
	)
	out = append(out, metric{"latency_p99_ms", "ms", plain99})
	for _, m := range te.all() {
		out = append(out, metric{"traced." + m.name, m.unit, m.value})
	}
	return out
}
