package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"fupermod/internal/core"
	"fupermod/internal/service"
)

// checkAnswer checks one response against its endpoint's invariants:
// every distribution has one part per device and its units sum to D,
// measure and model answers have one point per grid size, and matpart
// blocks tile the grid exactly.
func checkAnswer(r *genReq, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	v := newRequestValue(r.ep)
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("decoding the generated request: %w", err)
	}
	switch req := v.(type) {
	case *service.MeasureRequest:
		sizes := len(core.LogSizes(req.Grid.Lo, req.Grid.Hi, req.Grid.N))
		if r.ep == epModel {
			var resp service.ModelResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if len(resp.Points) != sizes || len(resp.Eval) != sizes {
				return fmt.Errorf("model: %d points and %d evaluations for %d grid sizes", len(resp.Points), len(resp.Eval), sizes)
			}
			return nil
		}
		var resp service.MeasureResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Points) != sizes {
			return fmt.Errorf("measure: %d points for %d grid sizes", len(resp.Points), sizes)
		}
		return nil
	case *service.PartitionRequest:
		var resp service.PartitionResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkParts("partition", resp.Parts, len(req.Devices), req.D)
	case *service.DynpartRequest:
		var resp service.DynpartResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkParts("dynpart", resp.Parts, len(req.Devices), req.D)
	case *service.BalanceRequest:
		var resp service.BalanceResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Iterations) != len(req.Iterations) {
			return fmt.Errorf("balance: %d proposals for %d iterations", len(resp.Iterations), len(req.Iterations))
		}
		for i, it := range resp.Iterations {
			if err := checkUnits(fmt.Sprintf("balance iteration %d", i), it.Units, req.N, req.D); err != nil {
				return err
			}
		}
		return checkUnits("balance", resp.Units, req.N, req.D)
	case *service.RebalanceRequest:
		var resp service.RebalanceResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkUnits("rebalance", resp.NewUnits, req.N, req.D)
	case *service.MatpartRequest:
		var resp service.MatpartResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		return checkMatpart(req, &resp)
	}
	return fmt.Errorf("no answer check for %T", v)
}

func checkParts(what string, parts []service.PartPayload, devices, d int) error {
	units := make([]int, len(parts))
	for i, p := range parts {
		units[i] = p.Units
	}
	return checkUnits(what, units, devices, d)
}

// checkUnits checks one distribution: n non-negative parts summing to d.
func checkUnits(what string, units []int, n, d int) error {
	if len(units) != n {
		return fmt.Errorf("%s: %d parts for %d devices", what, len(units), n)
	}
	sum := 0
	for i, u := range units {
		if u < 0 {
			return fmt.Errorf("%s: part %d has %d units", what, i, u)
		}
		sum += u
	}
	if sum != d {
		return fmt.Errorf("%s: units sum to %d, want D=%d", what, sum, d)
	}
	return nil
}

// checkMatpart checks one rectangle per process and, with a grid, that
// the blocks cover every cell of the grid exactly once.
func checkMatpart(req *service.MatpartRequest, resp *service.MatpartResponse) error {
	if len(resp.Rects) != len(req.Areas) {
		return fmt.Errorf("matpart: %d rectangles for %d processes", len(resp.Rects), len(req.Areas))
	}
	if req.Grid == 0 {
		return nil
	}
	n := req.Grid
	cover := make([]int, n*n)
	for _, b := range resp.Blocks {
		if b.Col < 0 || b.Row < 0 || b.Cols < 0 || b.Rows < 0 || b.Col+b.Cols > n || b.Row+b.Rows > n {
			return fmt.Errorf("matpart: block of process %d leaves the %d×%d grid", b.Proc, n, n)
		}
		for y := b.Row; y < b.Row+b.Rows; y++ {
			for x := b.Col; x < b.Col+b.Cols; x++ {
				cover[y*n+x]++
			}
		}
	}
	for i, c := range cover {
		if c != 1 {
			return fmt.Errorf("matpart: cell (%d,%d) covered %d times", i%n, i/n, c)
		}
	}
	return nil
}

// checkReplay compares an answer with the answer a fresh server gave the
// same bytes.
func checkReplay(got, want []byte) error {
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("replay differs from the run's answer at byte %d", i)
	}
	return nil
}

// checkPhase checks every sent request of a phase: its answer, and that
// identical twins got identical bytes. It returns which requests failed
// and one line per failure.
func checkPhase(name string, reqs []*genReq, out *phaseOut) ([]bool, []string) {
	failed := make([]bool, out.sent)
	var fails []string
	fail := func(i int, format string, args ...any) {
		failed[i] = true
		fails = append(fails, fmt.Sprintf("%s request %d (%s): ", name, i, reqs[i].ep)+fmt.Sprintf(format, args...))
	}
	for i := 0; i < out.sent; i++ {
		r := out.res[i]
		if !r.completed {
			fail(i, "no answer")
			continue
		}
		if err := checkAnswer(reqs[i], r.status, out.body(i)); err != nil {
			fail(i, "%v", err)
			continue
		}
		if j := reqs[i].twin; j > i && j < out.sent && out.res[j].completed && !bytes.Equal(out.body(i), out.body(j)) {
			fail(i, "identical twin %d got different bytes", j)
		}
	}
	return failed, fails
}

// selfCheck asserts the workload did what it exists to do, from /stats
// deltas: set-up is the snapshot after warm-up, timed the delta over both
// timed phases. A run that fails it reports failure, not numbers.
func selfCheck(w *workload, p *plan, setup, timed service.Snapshot) []string {
	var fails []string
	want := func(ok bool, format string, args ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf("self-check %s: "+format, append([]any{w.name}, args...)...))
		}
	}
	switch w.name {
	case "warm-mix":
		want(timed.Sweeps == 0, "timed phases ran %d sweeps, want 0", timed.Sweeps)
		want(timed.CommCalibrations == 0, "timed phases ran %d comm calibrations, want 0", timed.CommCalibrations)
		want(timed.StoreHits == 0 && timed.StoreSpills == 0 && timed.StoreErrors == 0,
			"timed phases read %d and wrote %d store entries, want 0", timed.StoreHits, timed.StoreSpills+timed.StoreErrors)
	case "cold-fill":
		want(timed.Sweeps > 0, "no sweeps")
		want(timed.CacheCoalesced > 0, "no coalesced fills")
		want(timed.CacheEvictions > 0, "no evictions")
		want(timed.StoreHits > 0, "no store hits")
	case "restart-transfer":
		want(setup.StoreLoaded == int64(len(p.fixture)), "preloaded %d entries, the fixture has %d", setup.StoreLoaded, len(p.fixture))
		want(timed.TransferRuns > 0, "no transfer runs")
	}
	return fails
}

// delta is b − a for every counter a self-check or count metric reads.
func delta(a, b service.Snapshot) service.Snapshot {
	return service.Snapshot{
		Requests: b.Requests - a.Requests,
		ShardCounters: service.ShardCounters{
			CacheHits:         b.CacheHits - a.CacheHits,
			CacheMisses:       b.CacheMisses - a.CacheMisses,
			CacheCoalesced:    b.CacheCoalesced - a.CacheCoalesced,
			CacheEvictions:    b.CacheEvictions - a.CacheEvictions,
			Sweeps:            b.Sweeps - a.Sweeps,
			StoreLoaded:       b.StoreLoaded - a.StoreLoaded,
			StoreHits:         b.StoreHits - a.StoreHits,
			StoreSpills:       b.StoreSpills - a.StoreSpills,
			StoreErrors:       b.StoreErrors - a.StoreErrors,
			TransferRuns:      b.TransferRuns - a.TransferRuns,
			TransferProbes:    b.TransferProbes - a.TransferProbes,
			TransferFallbacks: b.TransferFallbacks - a.TransferFallbacks,
			BatchSolves:       b.BatchSolves - a.BatchSolves,
			BatchJoined:       b.BatchJoined - a.BatchJoined,
			BatchWindowSkips:  b.BatchWindowSkips - a.BatchWindowSkips,
			CommCalibrations:  b.CommCalibrations - a.CommCalibrations,
		},
	}
}
