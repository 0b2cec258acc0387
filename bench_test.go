package bitcolor

// One testing.B benchmark per table and figure of the paper's evaluation
// (§5), on the reduced-size datasets so `go test -bench=.` completes in
// seconds. The full-size experiment suite with paper-style tables is
// `go run ./cmd/benchsuite`; EXPERIMENTS.md records its output against
// the paper's numbers.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"bitcolor/internal/experiments"
)

// benchCtx returns a quiet reduced-size experiment context.
func benchCtx() *experiments.Context {
	return experiments.NewSmallContext(io.Discard)
}

// BenchmarkFig3a regenerates the stage breakdown of basic greedy
// (paper Fig 3(a): 39.2% / 46.5% / 14.2%).
func BenchmarkFig3a(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3a(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.AvgStage1, "stage1_%")
	}
}

// BenchmarkFig3b regenerates the neighborhood overlap ratios
// (paper Fig 3(b): average 4.96%).
func BenchmarkFig3b(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3b(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Average, "overlap_%")
	}
}

// BenchmarkTable2 regenerates the preprocessing-vs-coloring timing
// (paper Table 2: reordering is the small fraction).
func BenchmarkTable2(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11 regenerates the single-BWPE optimization ablation
// (paper Fig 11: 88.6% DRAM / 66.9% compute / 82.9% total reduction).
func BenchmarkFig11(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.AvgTotalReduction, "total_reduction_%")
		b.ReportMetric(100*r.AvgDRAMReduction, "dram_reduction_%")
	}
}

// BenchmarkFig12 regenerates the parallel scaling sweep
// (paper Fig 12: 3.92x-7.01x at 16 BWPEs).
func BenchmarkFig12(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgP16, "avg_p16_speedup")
	}
}

// BenchmarkTable4 regenerates the color-count comparison
// (paper Table 4: 9.3% average reduction).
func BenchmarkTable4(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.AvgReduction, "color_reduction_%")
	}
}

// BenchmarkFig13 regenerates the CPU/GPU/FPGA comparison
// (paper Fig 13: 54.9x over CPU, 2.71x over GPU on average).
func BenchmarkFig13(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgSpeedupCPU, "x_vs_cpu")
		b.ReportMetric(r.AvgSpeedupGPU, "x_vs_gpu")
	}
}

// BenchmarkFig14 regenerates the resource/frequency sweep
// (paper Fig 14: 51.1% REG, 47.8% LUT, 96.7% BRAM at P16, >200 MHz).
func BenchmarkFig14(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(ctx)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Usages[len(r.Usages)-1]
		b.ReportMetric(100*last.BRAMFrac, "p16_bram_%")
	}
}

// BenchmarkCacheAblation regenerates the §4.4 multi-port cache BRAM
// comparison (proposed = 2/P of the LVT design).
func BenchmarkCacheAblation(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.CacheAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[len(r.Rows)-1].Ratio, "p16_bram_ratio")
	}
}

// BenchmarkAcceleratorEndToEnd measures one full P16 simulated run on a
// GD-like social graph — the headline single-number benchmark.
func BenchmarkAcceleratorEndToEnd(b *testing.B) {
	g, err := Generate("GD", 1)
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := Preprocess(g)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig(16)
	cfg.CacheVertices = prepared.NumVertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(prepared, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MCVps, "simulated_MCV/s")
	}
}

// BenchmarkSoftwareBitwise measures the pure-software Algorithm 2 as a
// host-side reference point.
func BenchmarkSoftwareBitwise(b *testing.B) {
	g, err := Generate("GD", 1)
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := Preprocess(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Color(prepared, ColorOptions{Engine: EngineBitwise}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBitwise measures the host-parallel bit-wise engine
// across a worker sweep on two Table 3 stand-ins (a power-law social
// graph and a bounded-degree road network), reporting colors used and
// ns/edge so it compares directly against BenchmarkSoftwareBitwise.
func BenchmarkParallelBitwise(b *testing.B) {
	sweep := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		sweep = append(sweep, p)
	}
	for _, ds := range []string{"GD", "RC"} {
		g, err := Generate(ds, 1)
		if err != nil {
			b.Fatal(err)
		}
		prepared, err := Preprocess(g)
		if err != nil {
			b.Fatal(err)
		}
		edges := float64(prepared.NumEdges())
		for _, w := range sweep {
			b.Run(fmt.Sprintf("%s/workers=%d", ds, w), func(b *testing.B) {
				b.ReportAllocs()
				var colors int
				for i := 0; i < b.N; i++ {
					res, _, err := ColorParallel(prepared, ColorOptions{
						Engine: EngineParallelBitwise, Workers: w,
					})
					if err != nil {
						b.Fatal(err)
					}
					colors = res.NumColors
				}
				b.ReportMetric(float64(colors), "colors")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edges, "ns/edge")
			})
		}
	}
}

// BenchmarkParallelBitwiseObserved is BenchmarkParallelBitwise at 1
// worker with a live Observer attached — comparing its ns/edge against
// the nil-observer GD/workers=1 arm measures what the observability
// layer costs on the hot path (the benchguard_test.go guard bounds it
// at 2%).
func BenchmarkParallelBitwiseObserved(b *testing.B) {
	g, err := Generate("GD", 1)
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := Preprocess(g)
	if err != nil {
		b.Fatal(err)
	}
	edges := float64(prepared.NumEdges())
	o := NewObserver()
	ctx := WithObserver(context.Background(), o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ColorContext(ctx, prepared, ColorOptions{
			Engine: EngineParallelBitwise, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edges, "ns/edge")
	b.ReportMetric(float64(o.SpanCount("round"))/float64(b.N), "round_spans/run")
}

// BenchmarkParallelBitwiseNoGather is the memory-path ablation arm of
// BenchmarkParallelBitwise: the same engine at 1 worker with the blocked
// color-gather and PUV pruning disabled, so the two benchmarks bracket
// what the software MGR/HDC/PUV path is worth.
func BenchmarkParallelBitwiseNoGather(b *testing.B) {
	for _, ds := range []string{"GD", "RC"} {
		g, err := Generate(ds, 1)
		if err != nil {
			b.Fatal(err)
		}
		prepared, err := Preprocess(g)
		if err != nil {
			b.Fatal(err)
		}
		edges := float64(prepared.NumEdges())
		b.Run(ds, func(b *testing.B) {
			b.ReportAllocs()
			var colors int
			for i := 0; i < b.N; i++ {
				res, _, err := ColorParallel(prepared, ColorOptions{
					Engine: EngineParallelBitwise, Workers: 1, DisableGather: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				colors = res.NumColors
			}
			b.ReportMetric(float64(colors), "colors")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edges, "ns/edge")
		})
	}
}

// BenchmarkPreprocess measures the preprocessing pipeline: the CSR
// build, then the DBG relabel.
func BenchmarkPreprocess(b *testing.B) {
	g, err := Generate("GD", 1)
	if err != nil {
		b.Fatal(err)
	}
	var edges []Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < u {
				edges = append(edges, Edge{U: VertexID(v), V: u})
			}
		}
	}
	for i := 0; i < b.N; i++ {
		built, err := NewGraph(g.NumVertices(), edges)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Preprocess(built); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerality regenerates the §2.4 same-substrate comparison.
func BenchmarkGenerality(b *testing.B) {
	ctx := benchCtx()
	ctx.Datasets = ctx.Datasets[:4]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Generality(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgSpeedup, "greedy_over_jp")
	}
}

// BenchmarkRelaxedDispatch regenerates the dispatch-discipline ablation.
func BenchmarkRelaxedDispatch(b *testing.B) {
	ctx := benchCtx()
	ctx.Datasets = ctx.Datasets[:4]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Relaxed(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiCard regenerates the scale-out extension study.
func BenchmarkMultiCard(b *testing.B) {
	ctx := benchCtx()
	ctx.Datasets = ctx.Datasets[:4]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiCard(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSweep regenerates the HVC capacity sensitivity.
func BenchmarkCacheSweep(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CacheSweep(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLRUvsHDC regenerates the §3.2.2 cache-policy comparison.
func BenchmarkLRUvsHDC(b *testing.B) {
	ctx := benchCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LRUvsHDC(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
