package experiments

import (
	"fmt"
	"runtime"
	"time"

	"bitcolor/internal/cache"
	"bitcolor/internal/coloring"
	"bitcolor/internal/metrics"
)

// LocalityRow is one dataset × (DBG on/off) × (gather on/off) arm of the
// memory-locality ablation on the fused bit-wise host engine.
type LocalityRow struct {
	Dataset string
	// DBG marks the arm running on the reordered, edge-sorted graph;
	// Gather marks the blocked color-gather + PUV memory path.
	DBG, Gather bool
	Workers     int
	Time        time.Duration
	NsPerEdge   float64
	Colors      int
	Stats       metrics.RunStats
	// HotCoverage is the fraction of directed adjacency entries whose
	// destination sits under the hot-tier threshold v_t (the analytic
	// HDC coverage of this arm's graph).
	HotCoverage float64
}

// LocalityResult is the software rendering of the paper's Fig 11 memory
// ablation: the same engine measured with and without DBG preprocessing
// and with and without the MGR/HDC/PUV-style gather, isolating how much
// of the host speedup is memory layout rather than ALU.
type LocalityResult struct {
	Rows []LocalityRow
	// GatherSpeedup is the geometric-mean time advantage of the gather
	// over the naive path on the DBG-preprocessed arm.
	GatherSpeedup float64
	// DBGSpeedup is the geometric-mean advantage of DBG preprocessing
	// with the gather on.
	DBGSpeedup float64
}

// Locality measures the 2×2 ablation on every context dataset.
func Locality(ctx *Context) (*LocalityResult, error) {
	res := &LocalityResult{}
	eng, ok := coloring.Lookup("parallelbitwise")
	if !ok {
		return nil, fmt.Errorf("locality: parallelbitwise missing from registry")
	}
	workers := runtime.GOMAXPROCS(0)
	var gatherSpeedups, dbgSpeedups []float64
	for _, d := range ctx.Datasets {
		raw, prepared, err := ctx.BuildPrepared(d)
		if err != nil {
			return nil, err
		}
		vt := ctx.CacheVerticesFor(d, raw.NumVertices())
		times := map[[2]bool]time.Duration{}
		for _, dbg := range []bool{false, true} {
			g := raw
			if dbg {
				g = prepared
			}
			for _, gather := range []bool{false, true} {
				row := LocalityRow{Dataset: d.Abbrev, DBG: dbg, Gather: gather, Workers: workers}
				start := time.Now()
				out, st, err := eng.Run(ctx.RunCtx(), g, coloring.Options{
					Workers:       workers,
					DisableGather: !gather,
					// The ablation's gather arm must actually run the gather
					// even on the low-degree road datasets the adaptive
					// heuristic would switch off.
					ForceGather: gather,
					HotVertices: vt,
				})
				if err != nil {
					return nil, fmt.Errorf("%s dbg=%v gather=%v: %w", d.Abbrev, dbg, gather, err)
				}
				row.Time = time.Since(start)
				row.NsPerEdge = float64(row.Time.Nanoseconds()) / float64(g.NumEdges())
				row.Colors = out.NumColors
				row.Stats = st
				if gather {
					row.HotCoverage = cache.CoverageRatio(g.Offsets, g.Edges, st.HotThreshold)
				}
				times[[2]bool{dbg, gather}] = row.Time
				res.Rows = append(res.Rows, row)
			}
		}
		gatherSpeedups = append(gatherSpeedups,
			metrics.Speedup(times[[2]bool{true, false}], times[[2]bool{true, true}]))
		dbgSpeedups = append(dbgSpeedups,
			metrics.Speedup(times[[2]bool{false, true}], times[[2]bool{true, true}]))
	}
	res.GatherSpeedup = metrics.GeoMean(gatherSpeedups)
	res.DBGSpeedup = metrics.GeoMean(dbgSpeedups)
	return res, nil
}

// Print writes the locality ablation table.
func (r *LocalityResult) Print(ctx *Context) {
	t := Table{
		Title: "Memory-locality ablation: parallel bit-wise engine × (DBG, blocked gather) — software MGR/HDC/PUV",
		Header: []string{"Graph", "DBG", "Gather", "W", "ms", "ns/edge", "colors",
			"hot%", "merge%", "pruned", "hdc_cov"},
	}
	for _, row := range r.Rows {
		hot, merge, pruned, cov := "-", "-", "-", "-"
		if row.Gather {
			hot = pct(row.Stats.Gather.HotRatio())
			merge = pct(row.Stats.Gather.MergeRatio())
			pruned = fmt.Sprint(row.Stats.Gather.PrunedTail)
			cov = pct(row.HotCoverage)
		}
		t.AddRow(row.Dataset, onOff(row.DBG), onOff(row.Gather), fmt.Sprint(row.Workers),
			fmt.Sprintf("%.2f", row.Time.Seconds()*1e3), f2(row.NsPerEdge),
			fmt.Sprint(row.Colors), hot, merge, pruned, cov)
	}
	t.Render(ctx)
	fmt.Fprintf(ctx.Out, "geomean gather speedup (DBG graphs): %.2fx; geomean DBG speedup (gather on): %.2fx\n",
		r.GatherSpeedup, r.DBGSpeedup)
}

// BenchRecords converts the ablation rows to the machine-readable form.
func (r *LocalityResult) BenchRecords() []BenchRecord {
	recs := make([]BenchRecord, 0, len(r.Rows))
	for _, row := range r.Rows {
		recs = append(recs, BenchRecord{
			Dataset:   row.Dataset,
			Engine:    "parallelbitwise",
			Variant:   fmt.Sprintf("dbg=%s,gather=%s", onOff(row.DBG), onOff(row.Gather)),
			Workers:   row.Workers,
			Colors:    row.Colors,
			WallNanos: row.Time.Nanoseconds(),
			NsPerEdge: row.NsPerEdge,
		})
	}
	return recs
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
