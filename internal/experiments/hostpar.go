package experiments

import (
	"fmt"
	"runtime"
	"time"

	"bitcolor/internal/coloring"
	"bitcolor/internal/metrics"
)

// HostParRow is one dataset × worker-count measurement of the three
// host-parallel engines.
type HostParRow struct {
	Dataset string
	Workers int
	// Spec is classic Gebremedhin–Manne (index order, re-round repair);
	// Par is the fused bit-wise engine (degree-order dynamic dispatch,
	// in-place repair); DCT is the single-pass owner-computes engine
	// (defer and forward, the paper's Data Conflict Table, §4.3).
	SpecTime, ParTime, DCTTime       time.Duration
	SpecStats, ParStats              metrics.RunStats
	SpecColors, ParColors, DCTColors int
	// Edges is the directed adjacency entry count, for ns/edge records.
	Edges int64
}

// HostParResult is the host-side multicore baseline study: how the
// bit-wise speculative engine scales against classic GM speculation,
// and what replacing speculate-and-repair with defer-and-forward (DCT)
// costs or saves at equal worker counts. This is the CPU number the
// accelerator's Fig 13 speedups should be judged against on modern
// multicore hosts.
type HostParResult struct {
	Rows []HostParRow
	// AvgSpeedup is the geometric-mean ParTime advantage over SpecTime
	// at the highest worker count.
	AvgSpeedup float64
}

// hostParWorkerSweep is the worker counts measured per dataset.
func hostParWorkerSweep() []int {
	sweep := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		sweep = append(sweep, p)
	}
	return sweep
}

// HostPar measures the three host-parallel engines across the worker
// sweep.
func HostPar(ctx *Context) (*HostParResult, error) {
	res := &HostParResult{}
	var speedups []float64
	sweep := hostParWorkerSweep()
	// The engines resolve through the registry — the same dispatch path
	// the public API and CLIs use.
	spec, okS := coloring.Lookup("speculative")
	par, okP := coloring.Lookup("parallelbitwise")
	dct, okD := coloring.Lookup("dct")
	if !okS || !okP || !okD {
		return nil, fmt.Errorf("hostpar: parallel engines missing from registry")
	}
	for _, d := range ctx.Datasets {
		_, prepared, err := ctx.BuildPrepared(d)
		if err != nil {
			return nil, err
		}
		for i, w := range sweep {
			row := HostParRow{Dataset: d.Abbrev, Workers: w, Edges: prepared.NumEdges()}
			opts := coloring.Options{Workers: w}
			start := time.Now()
			specRes, specSt, err := spec.Run(ctx.RunCtx(), prepared, opts)
			if err != nil {
				return nil, fmt.Errorf("%s speculative: %w", d.Abbrev, err)
			}
			row.SpecTime = time.Since(start)
			row.SpecStats, row.SpecColors = specSt, specRes.NumColors
			start = time.Now()
			parRes, parSt, err := par.Run(ctx.RunCtx(), prepared, opts)
			if err != nil {
				return nil, fmt.Errorf("%s parallelbitwise: %w", d.Abbrev, err)
			}
			row.ParTime = time.Since(start)
			row.ParStats, row.ParColors = parSt, parRes.NumColors
			start = time.Now()
			dctRes, _, err := dct.Run(ctx.RunCtx(), prepared, opts)
			if err != nil {
				return nil, fmt.Errorf("%s dct: %w", d.Abbrev, err)
			}
			row.DCTTime = time.Since(start)
			row.DCTColors = dctRes.NumColors
			if i == len(sweep)-1 {
				speedups = append(speedups, metrics.Speedup(row.SpecTime, row.ParTime))
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.AvgSpeedup = metrics.GeoMean(speedups)
	return res, nil
}

// Print writes the host-parallel comparison table.
func (r *HostParResult) Print(ctx *Context) {
	t := Table{
		Title: "Host-parallel engines: GM re-round speculation vs fused bit-wise in-place repair vs single-pass DCT (time, rounds, repairs, colors)",
		Header: []string{"Graph", "W", "gm_ms", "bw_ms", "dct_ms", "bw_speedup",
			"gm_rounds", "bw_rounds", "gm_repairs", "bw_repairs", "gm_colors", "bw_colors"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, fmt.Sprint(row.Workers),
			fmt.Sprintf("%.2f", row.SpecTime.Seconds()*1e3),
			fmt.Sprintf("%.2f", row.ParTime.Seconds()*1e3),
			fmt.Sprintf("%.2f", row.DCTTime.Seconds()*1e3),
			fmt.Sprintf("%.2fx", metrics.Speedup(row.SpecTime, row.ParTime)),
			fmt.Sprint(row.SpecStats.Rounds), fmt.Sprint(row.ParStats.Rounds),
			fmt.Sprint(row.SpecStats.ConflictsRepaired), fmt.Sprint(row.ParStats.ConflictsRepaired),
			fmt.Sprint(row.SpecColors), fmt.Sprint(row.ParColors))
	}
	t.Render(ctx)
	fmt.Fprintf(ctx.Out, "geomean bit-wise speedup at max workers: %.2fx\n", r.AvgSpeedup)
}

// BenchRecords converts the comparison rows to the machine-readable
// form, one record per engine per row.
func (r *HostParResult) BenchRecords() []BenchRecord {
	recs := make([]BenchRecord, 0, 3*len(r.Rows))
	for _, row := range r.Rows {
		edges := float64(row.Edges)
		recs = append(recs,
			BenchRecord{
				Dataset: row.Dataset, Engine: "speculative", Workers: row.Workers,
				Colors: row.SpecColors, WallNanos: row.SpecTime.Nanoseconds(),
				NsPerEdge: float64(row.SpecTime.Nanoseconds()) / edges,
			},
			BenchRecord{
				Dataset: row.Dataset, Engine: "parallelbitwise", Workers: row.Workers,
				Colors: row.ParColors, WallNanos: row.ParTime.Nanoseconds(),
				NsPerEdge: float64(row.ParTime.Nanoseconds()) / edges,
			},
			BenchRecord{
				Dataset: row.Dataset, Engine: "dct", Workers: row.Workers,
				Colors: row.DCTColors, WallNanos: row.DCTTime.Nanoseconds(),
				NsPerEdge: float64(row.DCTTime.Nanoseconds()) / edges,
			})
	}
	return recs
}
