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
// sweep. Each cell is the median of hostRuns interleaved runs of the
// row's three arms; colors and stats are the last run's.
func HostPar(ctx *Context) (*HostParResult, error) {
	res := &HostParResult{}
	var speedups []float64
	sweep := hostParWorkerSweep()
	// The engines resolve through the registry — the same dispatch path
	// the public API and CLIs use.
	var engines [3]coloring.EngineInfo // speculative, parallelbitwise, dct
	for e, name := range []string{"speculative", "parallelbitwise", "dct"} {
		info, ok := coloring.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("hostpar: %s missing from registry", name)
		}
		engines[e] = info
	}
	for _, d := range ctx.Datasets {
		_, prepared, err := ctx.BuildPrepared(d)
		if err != nil {
			return nil, err
		}
		for i, w := range sweep {
			opts := coloring.Options{Workers: w}
			var (
				stats  [3]metrics.RunStats
				colors [3]int
				arms   [3]func() error
			)
			for e, info := range engines {
				arms[e] = func() error {
					res, st, err := info.Run(ctx.RunCtx(), prepared, opts)
					if err != nil {
						return fmt.Errorf("%s %s: %w", d.Abbrev, info.Name, err)
					}
					stats[e], colors[e] = st, res.NumColors
					return nil
				}
			}
			times, err := interleavedMedians(hostRuns, arms[:]...)
			if err != nil {
				return nil, err
			}
			row := HostParRow{
				Dataset: d.Abbrev, Workers: w, Edges: prepared.NumEdges(),
				SpecTime: times[0], ParTime: times[1], DCTTime: times[2],
				SpecStats: stats[0], ParStats: stats[1],
				SpecColors: colors[0], ParColors: colors[1], DCTColors: colors[2],
			}
			if i == len(sweep)-1 {
				speedups = append(speedups, metrics.Speedup(row.SpecTime, row.ParTime))
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.AvgSpeedup = metrics.GeoMean(speedups)
	return res, nil
}

// hostRuns is how many interleaved runs of a row's arms the hostpar and
// locality experiments time per cell. Chosen from the spread of four
// full-size hostpar runs on a 2-CPU host, as the ratio of a cell's
// slowest run to its fastest across the four: at one run per cell the
// 90th-percentile cell read 4.2× and the worst 61× (a 69 ms GD dct w=2
// cell against 1.1–1.8 ms); at 5 runs 1.65× and 1.94×; at 11, 1.56× and
// 9.5× (a 0.5 ms EF cell whose process stayed slow for most of its
// rounds); at 21, 1.81× and 2.10×. Past five runs what spread remains
// lies between processes, so 21 buys only a longer span of rounds on
// the fastest cells; a full-size run then takes about 15 s.
const hostRuns = 21

// interleavedMedians runs each arm runs times (an odd count), rotating
// which arm goes first every round so all arms sample the same host
// states, and returns each arm's median time: one slow run — a GC pause,
// a speed flip of the host — cannot set a cell. The first error stops
// the timing.
func interleavedMedians(runs int, arms ...func() error) ([]time.Duration, error) {
	times := make([][]time.Duration, len(arms))
	for a := range times {
		times[a] = make([]time.Duration, runs)
	}
	for r := 0; r < runs; r++ {
		for j := range arms {
			a := (r + j) % len(arms)
			start := time.Now()
			if err := arms[a](); err != nil {
				return nil, err
			}
			times[a][r] = time.Since(start)
		}
	}
	medians := make([]time.Duration, len(arms))
	for a, ts := range times {
		medians[a] = median(ts)
	}
	return medians, nil
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
