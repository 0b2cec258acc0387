package experiments

import (
	"fmt"
	"runtime"
	"time"

	"bitcolor/internal/coloring"
	"bitcolor/internal/metrics"
)

// DCTRow is one dataset × worker-count measurement of the single-pass
// DCT engine against the two speculative host engines.
type DCTRow struct {
	Dataset string
	Workers int
	// DCT is the owner-computes single-pass engine; Par the fused
	// bit-wise speculative engine; Spec classic Gebremedhin–Manne.
	DCTTime, ParTime, SpecTime    time.Duration
	DCTStats, ParStats, SpecStats metrics.RunStats
	DCTColors, ParColors          int
	SpecColors                    int
	// Deterministic records whether the DCT coloring was byte-identical
	// to the sequential bit-wise greedy on the same (DBG) order — the
	// engine's structural guarantee, re-verified per measurement.
	Deterministic bool
	// Edges is the directed adjacency entry count, for ns/edge records.
	Edges int64
}

// DCTResult is the conflict-handling ablation on the host: what does
// replacing speculate-and-repair with defer-and-forward (the paper's
// Data Conflict Table, §4.3) cost or save at equal worker counts? The
// speculative engines may finish a round faster but pay repair rounds
// and lose determinism; the DCT engine does exactly one pass and always
// reproduces sequential greedy.
type DCTResult struct {
	Rows []DCTRow
	// SpeedupVsPar is the geometric-mean DCT advantage over the fused
	// bit-wise speculative engine at the highest worker count (>1 means
	// DCT is faster).
	SpeedupVsPar float64
	// SpeedupVsSpec is the same against classic GM speculation.
	SpeedupVsSpec float64
}

// DCT measures the three engines across the worker sweep on every
// context dataset, verifying the DCT determinism guarantee as it goes.
func DCT(ctx *Context) (*DCTResult, error) {
	res := &DCTResult{}
	dct, okD := coloring.Lookup("dct")
	par, okP := coloring.Lookup("parallelbitwise")
	spec, okS := coloring.Lookup("speculative")
	if !okD || !okP || !okS {
		return nil, fmt.Errorf("dct: host engines missing from registry")
	}
	sweep := hostParWorkerSweep()
	var vsPar, vsSpec []float64
	for _, d := range ctx.Datasets {
		_, prepared, err := ctx.BuildPrepared(d)
		if err != nil {
			return nil, err
		}
		ref, err := coloring.BitwiseGreedy(ctx.RunCtx(), prepared, coloring.MaxColorsDefault, true)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", d.Abbrev, err)
		}
		for i, w := range sweep {
			row := DCTRow{Dataset: d.Abbrev, Workers: w, Edges: prepared.NumEdges()}
			opts := coloring.Options{Workers: w}
			start := time.Now()
			dctRes, dctSt, err := dct.Run(ctx.RunCtx(), prepared, opts)
			if err != nil {
				return nil, fmt.Errorf("%s dct: %w", d.Abbrev, err)
			}
			row.DCTTime = time.Since(start)
			row.DCTStats, row.DCTColors = dctSt, dctRes.NumColors
			row.Deterministic = true
			for v := range ref.Colors {
				if dctRes.Colors[v] != ref.Colors[v] {
					row.Deterministic = false
					break
				}
			}
			if !row.Deterministic {
				return nil, fmt.Errorf("%s w=%d: dct coloring diverged from sequential greedy", d.Abbrev, w)
			}
			start = time.Now()
			parRes, parSt, err := par.Run(ctx.RunCtx(), prepared, opts)
			if err != nil {
				return nil, fmt.Errorf("%s parallelbitwise: %w", d.Abbrev, err)
			}
			row.ParTime = time.Since(start)
			row.ParStats, row.ParColors = parSt, parRes.NumColors
			start = time.Now()
			specRes, specSt, err := spec.Run(ctx.RunCtx(), prepared, opts)
			if err != nil {
				return nil, fmt.Errorf("%s speculative: %w", d.Abbrev, err)
			}
			row.SpecTime = time.Since(start)
			row.SpecStats, row.SpecColors = specSt, specRes.NumColors
			if i == len(sweep)-1 {
				vsPar = append(vsPar, metrics.Speedup(row.ParTime, row.DCTTime))
				vsSpec = append(vsSpec, metrics.Speedup(row.SpecTime, row.DCTTime))
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.SpeedupVsPar = metrics.GeoMean(vsPar)
	res.SpeedupVsSpec = metrics.GeoMean(vsSpec)
	return res, nil
}

// Print writes the conflict-handling ablation table.
func (r *DCTResult) Print(ctx *Context) {
	t := Table{
		Title: "Conflict handling ablation: single-pass DCT forwarding vs speculate-and-repair (equal workers, DBG order)",
		Header: []string{"Graph", "W", "dct_ms", "bw_ms", "gm_ms", "dct_vs_bw",
			"deferred", "retries", "ring_pk", "bw_repairs", "dct_colors", "bw_colors"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, fmt.Sprint(row.Workers),
			fmt.Sprintf("%.2f", row.DCTTime.Seconds()*1e3),
			fmt.Sprintf("%.2f", row.ParTime.Seconds()*1e3),
			fmt.Sprintf("%.2f", row.SpecTime.Seconds()*1e3),
			fmt.Sprintf("%.2fx", metrics.Speedup(row.ParTime, row.DCTTime)),
			fmt.Sprint(row.DCTStats.Deferred), fmt.Sprint(row.DCTStats.DeferRetries),
			fmt.Sprint(row.DCTStats.ForwardRingPeak),
			fmt.Sprint(row.ParStats.ConflictsRepaired),
			fmt.Sprint(row.DCTColors), fmt.Sprint(row.ParColors))
	}
	t.Render(ctx)
	fmt.Fprintf(ctx.Out,
		"geomean dct speedup at max workers: %.2fx vs parallelbitwise, %.2fx vs speculative; every dct run matched sequential greedy exactly\n",
		r.SpeedupVsPar, r.SpeedupVsSpec)
	if runtime.NumCPU() == 1 {
		fmt.Fprintln(ctx.Out,
			"note: single-CPU host — multi-worker rows time-slice on one core, so they measure forwarding overhead, not parallel speedup; W=1 rows are the like-for-like comparison")
	}
}

// BenchRecords converts the ablation rows to the machine-readable form,
// one record per engine per row.
func (r *DCTResult) BenchRecords() []BenchRecord {
	recs := make([]BenchRecord, 0, 3*len(r.Rows))
	for _, row := range r.Rows {
		edges := float64(row.Edges)
		recs = append(recs,
			BenchRecord{
				Dataset: row.Dataset, Engine: "dct", Workers: row.Workers,
				Colors: row.DCTColors, WallNanos: row.DCTTime.Nanoseconds(),
				NsPerEdge: float64(row.DCTTime.Nanoseconds()) / edges,
			},
			BenchRecord{
				Dataset: row.Dataset, Engine: "parallelbitwise", Workers: row.Workers,
				Colors: row.ParColors, WallNanos: row.ParTime.Nanoseconds(),
				NsPerEdge: float64(row.ParTime.Nanoseconds()) / edges,
			},
			BenchRecord{
				Dataset: row.Dataset, Engine: "speculative", Workers: row.Workers,
				Colors: row.SpecColors, WallNanos: row.SpecTime.Nanoseconds(),
				NsPerEdge: float64(row.SpecTime.Nanoseconds()) / edges,
			})
	}
	return recs
}
