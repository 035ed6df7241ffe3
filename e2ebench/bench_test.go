package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"fupermod/internal/service"
)

// TestPlanDeterministic: a seed fixes the request bytes and the schedule
// of every phase; another seed changes them.
func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := buildPlan(w, 7, 2*time.Second, 50)
			b := buildPlan(w, 7, 2*time.Second, 50)
			other := buildPlan(w, 8, 2*time.Second, 50)
			same := func(x, y []*genReq) bool {
				if len(x) != len(y) {
					return false
				}
				for i := range x {
					if !bytes.Equal(x[i].body, y[i].body) || x[i].at != y[i].at || x[i].twin != y[i].twin {
						return false
					}
				}
				return true
			}
			for _, ph := range []struct {
				name           string
				a, b, other    []*genReq
				mayBeSameOther bool
			}{
				{"fixture", a.fixture, b.fixture, other.fixture, len(a.fixture) == 0},
				{"warmup", a.warmup, b.warmup, other.warmup, len(a.warmup) == 0},
				{"lead", a.lead, b.lead, other.lead, false},
				{"open", a.open, b.open, other.open, false},
				{"closed", a.closed, b.closed, other.closed, false},
			} {
				if !same(ph.a, ph.b) {
					t.Errorf("%s: seed 7 gave different requests on two builds", ph.name)
				}
				if !ph.mayBeSameOther && same(ph.a, ph.other) {
					t.Errorf("%s: seeds 7 and 8 gave identical requests", ph.name)
				}
			}
			if len(a.open) < int(w.rate*2) {
				t.Errorf("open loop has %d requests, want at least %d at %g req/s over 2 s", len(a.open), int(w.rate*2), w.rate)
			}
		})
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, err := percentile(xs, 0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990 with 10 samples beyond", got, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was not refused")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was not refused")
	}
	if got, err := percentile(xs[:20], 0.5); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %g, %v; want 10", got, err)
	}
}

func TestCheckAnswerRejectsWrongSum(t *testing.T) {
	req := request(epPartition, "t00", &service.PartitionRequest{Tenant: "t00", D: 100,
		Devices: []service.DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}}}, nil, true)
	answer := func(units ...int) []byte {
		resp := service.PartitionResponse{D: 100}
		for _, u := range units {
			resp.Parts = append(resp.Parts, service.PartPayload{Units: u})
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkAnswer(req, 200, answer(60, 40)); err != nil {
		t.Errorf("valid distribution rejected: %v", err)
	}
	if err := checkAnswer(req, 200, answer(60, 39)); err == nil || !strings.Contains(err.Error(), "sum to 99") {
		t.Errorf("units summing to 99 of D=100 accepted (err %v)", err)
	}
	if err := checkAnswer(req, 200, answer(100)); err == nil {
		t.Error("one part for two devices accepted")
	}
	if err := checkAnswer(req, 503, answer(60, 40)); err == nil {
		t.Error("non-2xx answer accepted")
	}
}

func TestCheckMatpartTiling(t *testing.T) {
	req := &service.MatpartRequest{Areas: []float64{1, 1}, Grid: 2}
	resp := &service.MatpartResponse{
		Rects:  make([]service.MatpartRect, 2),
		Blocks: []service.MatpartBlock{{Proc: 0, Cols: 1, Rows: 2}, {Proc: 1, Col: 1, Cols: 1, Rows: 2}},
	}
	if err := checkMatpart(req, resp); err != nil {
		t.Errorf("exact tiling rejected: %v", err)
	}
	resp.Blocks[1].Col = 0 // overlaps process 0, leaves column 1 bare
	if err := checkMatpart(req, resp); err == nil {
		t.Error("overlapping blocks accepted")
	}
}

func TestCheckReplayOneByte(t *testing.T) {
	want := []byte(`{"algorithm":"geometric","d":100}`)
	got := append([]byte(nil), want...)
	if err := checkReplay(got, want); err != nil {
		t.Errorf("identical replay rejected: %v", err)
	}
	got[14] ^= 1
	if err := checkReplay(got, want); err == nil || !strings.Contains(err.Error(), "byte 14") {
		t.Errorf("replay differing at byte 14 accepted (err %v)", err)
	}
	if err := checkReplay(want[:len(want)-1], want); err == nil {
		t.Error("truncated replay accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the workloads it names and the metrics it declares are exactly the ones
// the program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	check := func(what string, decl []declared, ms []metric) {
		var d, p []string
		for _, m := range decl {
			d = append(d, m.Name+" "+m.Unit)
		}
		for _, m := range ms {
			p = append(p, m.name+" "+m.unit)
		}
		if strings.Join(d, "\n") != strings.Join(p, "\n") {
			t.Errorf("%s metrics differ:\nBENCHMARK.json:\n%s\nprogram:\n%s", what, strings.Join(d, "\n"), strings.Join(p, "\n"))
		}
	}
	check("end_to_end", spec.EndToEnd, (&e2e{}).metrics())
	empty := &passOut{open: &phaseOut{}}
	check("per_layer", spec.PerLayer, perLayer(&plan{}, empty, &passOut{tr: &tracer{}}, 0, &e2e{}))
}

// TestTracedLoops drives a real server with both loops and the tracer on
// two workers: every answer passes its check, and every request leaves a
// root span.
func TestTracedLoops(t *testing.T) {
	w := workloads[1] // cold-fill: fills, pairs, store reads and dynpart
	p := buildPlan(w, 3, 200*time.Millisecond, 30)
	p.warmup = p.warmup[:40]
	s, err := service.New(service.Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr, err := newTracer(2, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, ph := range []struct {
		name string
		reqs []*genReq
		run  func() *phaseOut
	}{
		{"set-up", p.warmup, func() *phaseOut { return runClosed(h, p.warmup, 2, 0, tr) }},
		{"open", p.open, func() *phaseOut { tr.phase = phaseOpen; return runOpen(h, p.open, 2, tr, 3) }},
		{"closed", p.closed, func() *phaseOut { tr.phase = phaseClosed; return runClosed(h, p.closed, 2, 0, tr) }},
	} {
		out := ph.run()
		if _, fails := checkPhase(ph.name, ph.reqs, out); len(fails) > 0 {
			t.Errorf("%s: %v", ph.name, fails)
		}
	}
	roots := map[uint8]int{}
	for _, ws := range tr.spans {
		for _, s := range ws {
			if s.layer == lRoot {
				roots[s.phase]++
			}
		}
	}
	if roots[phaseSetup] != len(p.warmup) || roots[phaseOpen] != len(p.open) || roots[phaseClosed] != len(p.closed) {
		t.Errorf("root spans per phase %v, want %d/%d/%d", roots, len(p.warmup), len(p.open), len(p.closed))
	}
}
