package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"fupermod/internal/service"
)

// plan is everything one run sends, built from the seed before any timing
// so the generator costs the timed phases nothing.
type plan struct {
	fixture []*genReq // the prior server life (restart-transfer only)
	warmup  []*genReq // set-up traffic, up to the workload's start state
	lead    []*genReq // the open loop's first second: checked, not measured
	open    []*genReq // open-loop traffic, each with its scheduled send time
	closed  []*genReq // closed-loop traffic, sent back to back until time runs out
	replay  []int     // open-loop indices replayed on a fresh server
}

// replaySample is how many open-loop requests the byte-for-byte replay
// check re-sends one at a time.
const replaySample = 40

// leadIn is the unmeasured start of the open loop. The first second after
// set-up carries transients of the process, not of the workload (on the
// machine the benchmark was defined on, a stall in it set the run's p99
// in most runs).
const leadIn = time.Second

// buildPlan generates a run's traffic: events at the workload's offered
// rate, either evenly spaced or Poisson (see workload.poisson), with the
// Poisson gaps drawn from their own stream so the request content does
// not depend on the schedule.
func buildPlan(w *workload, seed int64, openDur time.Duration, closedN int) *plan {
	src := w.source(seed)
	p := &plan{fixture: src.fixture(), warmup: src.warmup()}
	arrivals := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	gap := func() time.Duration {
		if w.poisson {
			return time.Duration(arrivals.ExpFloat64() / w.rate * float64(time.Second))
		}
		return time.Duration(float64(time.Second) / w.rate)
	}
	for at := time.Duration(0); at < leadIn; at += gap() {
		p.lead = appendEvent(p.lead, src.next(), at)
	}
	for at := time.Duration(0); at < openDur; at += gap() {
		p.open = appendEvent(p.open, src.next(), at)
	}
	for len(p.closed) < closedN {
		p.closed = appendEvent(p.closed, src.next(), 0)
	}
	var eligible []int
	for i, r := range p.open {
		if r.replay {
			eligible = append(eligible, i)
		}
	}
	pick := rand.New(rand.NewSource(seed ^ 0x7e91a7))
	for _, j := range pick.Perm(len(eligible))[:min(replaySample, len(eligible))] {
		p.replay = append(p.replay, eligible[j])
	}
	return p
}

func appendEvent(reqs []*genReq, ev []*genReq, at time.Duration) []*genReq {
	base := len(reqs)
	for i, r := range ev {
		r.at = at
		if len(ev) == 2 {
			r.twin = base + 1 - i
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// endpointURL holds one parsed URL per endpoint; requests share them
// read-only.
var endpointURL = func() map[string]*url.URL {
	urls := map[string]*url.URL{}
	for ep, path := range endpointPath {
		urls[ep] = &url.URL{Scheme: "http", Host: "e2ebench", Path: path}
	}
	return urls
}()

// client is one load worker. It reuses a single request value for every
// send and appends every answer to its recorder, so sending allocates
// nothing and the timed phases count only the server's work.
type client struct {
	rec  *recorder
	req  http.Request
	hdr  http.Header
	body bodyReader
}

// bodyReader is a request body that needs no per-request wrapper.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func newClient(arena int) *client {
	return &client{rec: newRecorder(arena), hdr: http.Header{}}
}

func (c *client) send(h http.Handler, r *genReq) (status, off, end int) {
	c.body.Reset(r.body)
	clear(c.hdr)
	c.req = http.Request{Method: http.MethodPost, URL: endpointURL[r.ep], Host: "e2ebench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: c.hdr,
		Body: &c.body, ContentLength: int64(len(r.body))}
	return c.rec.serve(h, &c.req)
}

// recorder is the in-process ResponseWriter: it appends every response
// body to one growing arena per worker, so recording an answer costs the
// timed phase no allocation beyond the arena's occasional growth.
type recorder struct {
	hdr    http.Header
	status int
	buf    []byte
}

func newRecorder(capacity int) *recorder {
	return &recorder{hdr: http.Header{}, buf: make([]byte, 0, capacity)}
}

func (rec *recorder) Header() http.Header { return rec.hdr }

func (rec *recorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
}

func (rec *recorder) Write(p []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	rec.buf = append(rec.buf, p...)
	return len(p), nil
}

// serve runs one request through the handler and returns where its body
// landed in the arena.
func (rec *recorder) serve(h http.Handler, req *http.Request) (status, off, end int) {
	clear(rec.hdr)
	rec.status = 0
	off = len(rec.buf)
	h.ServeHTTP(rec, req)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.status, off, len(rec.buf)
}

// result is one request's outcome. Times are offsets from the phase start.
type result struct {
	status    int
	worker    int
	off, end  int
	sent      time.Duration
	done      time.Duration
	completed bool
}

// phaseOut is a phase's results plus the arenas holding the bodies.
type phaseOut struct {
	res     []result
	arenas  [][]byte
	sent    int // requests sent: a prefix of the phase's list
	elapsed time.Duration
	cpu     []cpuSample // open loop: process CPU at window boundaries
}

// cpuSample is the process's CPU time and the requests completed so far at
// one instant of the open loop.
type cpuSample struct {
	cpu  time.Duration
	done int64
}

func (p *phaseOut) body(i int) []byte {
	r := p.res[i]
	return p.arenas[r.worker][r.off:r.end]
}

// bodyBytesHint sizes a worker's arena; it only saves growth copies.
const bodyBytesHint = 1024

// runOpen is the open loop: request i is due at reqs[i].at; at most
// `workers` are in flight, so a stall makes later requests late, and the
// lateness counts in their latency. The process CPU time is sampled at the
// boundaries of `windows` equal spans of the schedule.
func runOpen(h http.Handler, reqs []*genReq, workers int, tr *tracer, windows int) *phaseOut {
	out := &phaseOut{res: make([]result, len(reqs)), arenas: make([][]byte, workers), sent: len(reqs)}
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	out.cpu = append(out.cpu, cpuSample{cpuTime(), 0})
	if windows > 1 && len(reqs) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span := reqs[len(reqs)-1].at
			for j := 1; j < windows; j++ {
				time.Sleep(span*time.Duration(j)/time.Duration(windows) - time.Since(start))
				out.cpu = append(out.cpu, cpuSample{cpuTime(), completed.Load()})
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(len(reqs) / workers * bodyBytesHint)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				if d := reqs[i].at - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				status, off, end := c.send(h, reqs[i])
				done := time.Since(start)
				out.res[i] = result{status: status, worker: w, off: off, end: end, sent: sent, done: done, completed: true}
				completed.Add(1)
				if tr != nil {
					tr.request(w, i, reqs[i], c.rec.buf[off:end], done-sent)
				}
			}
			out.arenas[w] = c.rec.buf
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.cpu = append(out.cpu, cpuSample{cpuTime(), completed.Load()})
	return out
}

// runClosed is the closed loop: `workers` clients send back to back until
// the list is exhausted or limit (when positive) has passed.
func runClosed(h http.Handler, reqs []*genReq, workers int, limit time.Duration, tr *tracer) *phaseOut {
	out := &phaseOut{res: make([]result, len(reqs)), arenas: make([][]byte, workers)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(64 * bodyBytesHint)
			for limit <= 0 || time.Since(start) < limit {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				sent := time.Since(start)
				status, off, end := c.send(h, reqs[i])
				done := time.Since(start)
				out.res[i] = result{status: status, worker: w, off: off, end: end, sent: sent, done: done, completed: true}
				if tr != nil {
					tr.request(w, i, reqs[i], c.rec.buf[off:end], done-sent)
				}
			}
			out.arenas[w] = c.rec.buf
		}(w)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.sent = min(int(next.Load()), len(reqs))
	return out
}

// readStats reads /stats through the handler. It walks the whole store
// directory, so it is only called between phases.
func readStats(h http.Handler) (service.Snapshot, error) {
	req, err := http.NewRequest(http.MethodGet, "http://e2ebench/stats", nil)
	if err != nil {
		return service.Snapshot{}, err
	}
	rec := newRecorder(4096)
	status, _, _ := rec.serve(h, req)
	var snap service.Snapshot
	if status != http.StatusOK {
		return snap, fmt.Errorf("/stats: status %d: %s", status, rec.buf)
	}
	if err := json.Unmarshal(rec.buf, &snap); err != nil {
		return snap, fmt.Errorf("/stats: %w", err)
	}
	return snap, nil
}
