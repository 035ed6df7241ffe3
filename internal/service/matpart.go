package service

import (
	"sort"
	"sync/atomic"

	"fupermod/internal/matpart"
)

// /v1/matpart serves the 2D column-based matrix arrangement (Beaumont et
// al., the FuPerMod paper's reference [2]): given one relative area per
// process — typically the unit shares a 1D partition endpoint returned —
// it arranges one rectangle per process in the unit square minimising the
// total half-perimeter, i.e. the communication volume of the parallel
// matrix multiplication. Like /v1/balance and /v1/rebalance the solve is a
// pure function of the request, so identical requests produce identical
// bytes on any server of a fleet, and concurrent identical requests
// batch under the op-prefixed "mat|" key.

// MaxMatpartGrid bounds the optional block-grid side of a matpart request.
const MaxMatpartGrid = 4096

// MatpartRequest asks for the optimal 2D arrangement of one rectangle per
// process with the given relative areas.
type MatpartRequest struct {
	Tenant string `json:"tenant"`
	// Areas holds one non-negative relative area per process — the share
	// of the matrix each process should own. Zero-area processes are
	// excluded from the arrangement (empty rectangle, no blocks).
	Areas []float64 `json:"areas"`
	// Grid, when positive, additionally discretises the arrangement onto
	// a Grid×Grid block grid and returns the per-process block rectangles.
	Grid int `json:"grid,omitempty"`
}

// MatpartColumn is one vertical column of the arrangement: its horizontal
// extent and the processes stacked in it, bottom to top.
type MatpartColumn struct {
	X     float64 `json:"x"`
	W     float64 `json:"w"`
	Procs []int   `json:"procs"`
}

// MatpartRect is one process's rectangle in the unit square.
type MatpartRect struct {
	Proc int     `json:"proc"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	W    float64 `json:"w"`
	H    float64 `json:"h"`
}

// MatpartBlock is one process's rectangle on the discretised block grid.
type MatpartBlock struct {
	Proc int `json:"proc"`
	Col  int `json:"col"`
	Row  int `json:"row"`
	Cols int `json:"cols"`
	Rows int `json:"rows"`
}

// MatpartResponse returns the column arrangement, the per-process
// geometry, and the communication-volume summary. It is a pure function
// of the request.
type MatpartResponse struct {
	// N is the process count, Active how many had positive area.
	N      int `json:"n"`
	Active int `json:"active"`
	// HalfPerimeter is Σᵢ (wᵢ + hᵢ), the arrangement's communication
	// weight; OneDHalfPerimeter is the naive full-height-strip baseline
	// (1 + Active) the arrangement improves on.
	HalfPerimeter     float64 `json:"half_perimeter"`
	OneDHalfPerimeter float64 `json:"one_d_half_perimeter"`
	// Columns is the arrangement itself: vertical columns left to right,
	// each listing its stacked processes bottom to top.
	Columns []MatpartColumn `json:"columns"`
	// Rects is the continuous geometry, one entry per process in process
	// order; zero-area processes have empty rectangles.
	Rects []MatpartRect `json:"rects"`
	// Grid echoes the requested block-grid side; Blocks is the exact
	// tiling of that grid, present only when Grid > 0.
	Grid   int            `json:"grid,omitempty"`
	Blocks []MatpartBlock `json:"blocks,omitempty"`
}

var matpartOp = op[MatpartRequest]{
	name:    "mat",
	tenant:  func(r *MatpartRequest) *string { return &r.Tenant },
	runs:    func(s *serverStats) *atomic.Int64 { return &s.MatpartRuns },
	prepare: prepareMatpart,
}

// prepareMatpart validates an arrangement request. The solve is pure
// computation: one DP plus the grid discretisation.
func prepareMatpart(_ *Server, req *MatpartRequest) (func() (any, error), string, error) {
	if err := checkCount("process", len(req.Areas)); err != nil {
		return nil, "", err
	}
	anyPositive := false
	for i, a := range req.Areas {
		if !nonNegative(a) {
			return nil, "", badRequest("areas[%d] = %g must be finite and non-negative", i, a)
		}
		anyPositive = anyPositive || a > 0
	}
	if !anyPositive {
		return nil, "", badRequest("all areas are zero: nothing to arrange")
	}
	if req.Grid < 0 || req.Grid > MaxMatpartGrid {
		return nil, "", badRequest("grid %d must be in [0, %d]", req.Grid, MaxMatpartGrid)
	}
	return func() (any, error) { return solveMatpart(req) }, "", nil
}

// solveMatpart is the pure library path of the endpoint: arrange, derive
// the column grouping from the geometry, compare against the 1D baseline,
// and optionally discretise. The cross-replica differential calls exactly
// this sequence directly.
func solveMatpart(req *MatpartRequest) (*MatpartResponse, error) {
	rects, perim, err := matpart.Partition(req.Areas)
	if err != nil {
		return nil, err
	}
	oneD, err := matpart.OneDPerimeter(req.Areas)
	if err != nil {
		return nil, err
	}
	resp := &MatpartResponse{
		N:                 len(req.Areas),
		HalfPerimeter:     perim,
		OneDHalfPerimeter: oneD,
		Rects:             make([]MatpartRect, len(rects)),
		Columns:           matpartColumns(rects),
	}
	for i, r := range rects {
		resp.Rects[i] = MatpartRect{Proc: r.Proc, X: r.X, Y: r.Y, W: r.W, H: r.H}
		if req.Areas[i] > 0 {
			resp.Active++
		}
	}
	if req.Grid > 0 {
		blocks, err := matpart.PartitionGrid(req.Areas, req.Grid)
		if err != nil {
			return nil, err
		}
		resp.Grid = req.Grid
		resp.Blocks = make([]MatpartBlock, len(blocks))
		for i, b := range blocks {
			resp.Blocks[i] = MatpartBlock{Proc: b.Proc, Col: b.Col, Row: b.Row, Cols: b.Cols, Rows: b.Rows}
		}
	}
	return resp, nil
}

// matpartColumns recovers the column grouping from the continuous
// geometry: active rectangles sharing an X coordinate form one column
// (Partition lays columns out at exact cumulative offsets), ordered left
// to right with processes bottom to top.
func matpartColumns(rects []matpart.Rect) []MatpartColumn {
	var act []matpart.Rect
	for _, r := range rects {
		if r.W > 0 && r.H > 0 {
			act = append(act, r)
		}
	}
	sort.Slice(act, func(i, j int) bool {
		if act[i].X != act[j].X {
			return act[i].X < act[j].X
		}
		return act[i].Y < act[j].Y
	})
	var cols []MatpartColumn
	for _, r := range act {
		if n := len(cols); n > 0 && cols[n-1].X == r.X {
			cols[n-1].Procs = append(cols[n-1].Procs, r.Proc)
			continue
		}
		cols = append(cols, MatpartColumn{X: r.X, W: r.W, Procs: []int{r.Proc}})
	}
	return cols
}
