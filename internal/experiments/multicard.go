package experiments

import (
	"fmt"

	"bitcolor/internal/sim"
)

// MultiCardRow is one (dataset, cards) scale-out measurement.
type MultiCardRow struct {
	Dataset          string
	Cards            int
	BoundaryFraction float64
	InteriorCycles   int64
	BoundaryCycles   int64
	TotalCycles      int64
	Speedup          float64 // vs 1 card
}

// MultiCardResult is the scale-out extension study: partition the graph
// over K simulated boards, color interiors in parallel and the boundary
// sequentially. Index-local graphs scale; DBG-reordered power-law graphs
// drown in boundary work — the quantitative limit of naive multi-board
// BitColor.
type MultiCardResult struct {
	Rows []MultiCardRow
}

// MultiCard sweeps K ∈ {1,2,4} per dataset at P=4 per card. The
// partition is taken on the *raw* vertex layout (road networks keep
// their spatial locality; a deployment would DBG-reorder within each
// part), because partition quality — not degree order — is what the
// scale-out study measures.
func MultiCard(ctx *Context) (*MultiCardResult, error) {
	res := &MultiCardResult{}
	for _, d := range ctx.Datasets {
		prepared, err := d.Build(ctx.Seed)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", d.Abbrev, err)
		}
		cfg := sim.DefaultConfig(4)
		cfg.CacheVertices = ctx.CacheVerticesFor(d, prepared.NumVertices())
		var base int64
		for _, cards := range []int{1, 2, 4} {
			r, err := sim.RunMultiCard(prepared, cfg, cards)
			if err != nil {
				return nil, fmt.Errorf("%s cards=%d: %w", d.Abbrev, cards, err)
			}
			if cards == 1 {
				base = r.TotalCycles
			}
			row := MultiCardRow{
				Dataset:        d.Abbrev,
				Cards:          cards,
				InteriorCycles: r.InteriorCycles,
				BoundaryCycles: r.BoundaryCycles,
				TotalCycles:    r.TotalCycles,
			}
			if prepared.NumVertices() > 0 {
				row.BoundaryFraction = float64(r.BoundaryVertices) / float64(prepared.NumVertices())
			}
			if r.TotalCycles > 0 {
				row.Speedup = float64(base) / float64(r.TotalCycles)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Print writes the scale-out table.
func (r *MultiCardResult) Print(ctx *Context) {
	t := Table{
		Title:  "Extension: multi-card scale-out (P=4 per card; interior parallel, boundary sequential)",
		Header: []string{"Graph", "Cards", "Boundary", "Interior cyc", "Boundary cyc", "Total", "Speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, fmt.Sprint(row.Cards), pct(row.BoundaryFraction),
			fmt.Sprint(row.InteriorCycles), fmt.Sprint(row.BoundaryCycles),
			fmt.Sprint(row.TotalCycles), f2(row.Speedup)+"x")
	}
	t.Render(ctx)
}
