package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func smallCtx() (*Context, *bytes.Buffer) {
	var buf bytes.Buffer
	ctx := NewSmallContext(&buf)
	// Keep test runtime down: four datasets spanning the categories.
	keep := map[string]bool{"EF": true, "CD": true, "RC": true, "CL": true}
	var ds = ctx.Datasets[:0]
	for _, d := range ctx.Datasets {
		if keep[d.Abbrev] {
			ds = append(ds, d)
		}
	}
	ctx.Datasets = ds
	return ctx, &buf
}

func TestFig3a(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Fig3a(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ctx.Datasets) {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		sum := row.Stage0 + row.Stage1 + row.Stage2
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s shares sum %.3f", row.Dataset, sum)
		}
	}
	// Fig 3(a) headline: Stage 1 dominates on average, Stage 2 smallest.
	if r.AvgStage1 < r.AvgStage2 || r.AvgStage2 > r.AvgStage0 {
		t.Fatalf("breakdown shape off: %.2f/%.2f/%.2f", r.AvgStage0, r.AvgStage1, r.AvgStage2)
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Fig 3(a)") {
		t.Fatal("print missing title")
	}
}

func TestFig3b(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Fig3b(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Low overlap is the paper's observation (avg 4.96%); synthetic
	// graphs should stay well under 25%.
	if r.Average > 0.25 {
		t.Fatalf("average overlap %.3f implausibly high", r.Average)
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "overlap") {
		t.Fatal("print missing content")
	}
}

func TestTable2(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Coloring <= 0 {
			t.Fatalf("%s: no coloring time", row.Dataset)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("print missing title")
	}
}

func TestFig11(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Fig11(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if len(row.Cells) != len(Fig11Steps) {
			t.Fatalf("%s has %d cells", row.Dataset, len(row.Cells))
		}
		// BSL is normalized to 1; the final step must be below 1.
		if row.Cells[0].TotalNorm != 1 {
			t.Fatalf("%s BSL norm %f", row.Dataset, row.Cells[0].TotalNorm)
		}
		final := row.Cells[len(row.Cells)-1]
		if final.TotalNorm >= 1 {
			t.Fatalf("%s full-opt total norm %.2f not < 1", row.Dataset, final.TotalNorm)
		}
	}
	if r.AvgTotalReduction <= 0.2 {
		t.Fatalf("average total reduction %.2f too small (paper: 0.83)", r.AvgTotalReduction)
	}
	if r.AvgDRAMReduction <= 0.3 {
		t.Fatalf("average DRAM reduction %.2f too small (paper: 0.89)", r.AvgDRAMReduction)
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Fig 11") {
		t.Fatal("print missing title")
	}
}

func TestFig12(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Fig12(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Speedups[0] != 1 {
			t.Fatalf("%s P1 speedup %f", row.Dataset, row.Speedups[0])
		}
		last := row.Speedups[len(row.Speedups)-1]
		if last <= 1 {
			t.Fatalf("%s P16 speedup %.2f not > 1", row.Dataset, last)
		}
		if last >= 16 {
			t.Fatalf("%s P16 speedup %.2f superlinear", row.Dataset, last)
		}
	}
	if r.MinP16 <= 1 || r.MaxP16 >= 16 {
		t.Fatalf("P16 range [%.2f, %.2f] out of plausible bounds", r.MinP16, r.MaxP16)
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Fig 12") {
		t.Fatal("print missing title")
	}
}

func TestTable4(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Table4(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Baseline <= 0 || row.Sorted <= 0 {
			t.Fatalf("%s zero color counts", row.Dataset)
		}
	}
	// DBG ordering should not *increase* the average color count.
	if r.AvgReduction < -0.05 {
		t.Fatalf("average reduction %.3f negative", r.AvgReduction)
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Table 4") {
		t.Fatal("print missing title")
	}
}

func TestFig13(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Fig13(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.SpeedupVsCPU <= 1 {
			t.Fatalf("%s: FPGA not faster than CPU (%.2fx)", row.Dataset, row.SpeedupVsCPU)
		}
	}
	// Paper shape: FPGA beats CPU by a large factor and beats GPU on
	// average; FPGA energy efficiency dominates.
	if r.AvgSpeedupCPU < 5 {
		t.Fatalf("avg CPU speedup %.1fx too small (paper 54.9x)", r.AvgSpeedupCPU)
	}
	if r.AvgSpeedupGPU <= 1 {
		t.Fatalf("avg GPU speedup %.2fx not > 1 (paper 2.71x)", r.AvgSpeedupGPU)
	}
	if r.AvgFPGAKCVpj <= r.AvgGPUKCVpj || r.AvgFPGAKCVpj <= r.AvgCPUKCVpj {
		t.Fatal("energy ordering broken")
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Fig 13") {
		t.Fatal("print missing title")
	}
}

func TestFig14AndCacheAblation(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Fig14(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Usages) != 5 {
		t.Fatalf("sweep %d points", len(r.Usages))
	}
	r.Print(ctx)
	a, err := CacheAblation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range a.Rows[1:] {
		if row.Ratio >= 1 {
			t.Fatalf("P=%d proposed/LVT ratio %.2f not < 1", row.Parallelism, row.Ratio)
		}
	}
	if a.Rows[len(a.Rows)-1].LVTFitsU200 {
		t.Fatal("LVT at P16 should not fit")
	}
	a.Print(ctx)
	if !strings.Contains(buf.String(), "Fig 14") {
		t.Fatal("print missing title")
	}
}

func TestLocalityAblation(t *testing.T) {
	ctx, buf := smallCtx()
	ctx.Datasets = ctx.Datasets[:2]
	r, err := Locality(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("got %d rows, want 2 datasets x 4 arms", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Gather {
			if row.Stats.Gather.Reads() == 0 {
				t.Fatalf("%s dbg=%v: gather arm classified no reads", row.Dataset, row.DBG)
			}
			if row.HotCoverage <= 0 || row.HotCoverage > 1 {
				t.Fatalf("%s dbg=%v: implausible hot coverage %f", row.Dataset, row.DBG, row.HotCoverage)
			}
			if row.DBG && row.Stats.Gather.PrunedTail == 0 {
				t.Fatalf("%s: PUV pruned nothing on the DBG arm", row.Dataset)
			}
		} else if row.Stats.Gather.Reads() != 0 {
			t.Fatalf("%s dbg=%v: gather-off arm recorded reads", row.Dataset, row.DBG)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Memory-locality ablation") {
		t.Fatal("print missing title")
	}
	recs := r.BenchRecords()
	if len(recs) != len(r.Rows) {
		t.Fatalf("got %d records for %d rows", len(recs), len(r.Rows))
	}
}

func TestExecDispatchExperiment(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := ExecDispatch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (workers 1, 2, 4)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Ratio <= 0 || row.InlineTime <= 0 || row.ExecTime <= 0 {
			t.Fatalf("degenerate measurement: %+v", row)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "dispatch overhead") {
		t.Fatal("print missing title")
	}
	if recs := r.BenchRecords(); len(recs) != 2*len(r.Rows) {
		t.Fatalf("got %d records for %d rows", len(recs), len(r.Rows))
	}
}

func TestRunnerRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{
		"cacheablation", "cachesweep", "conflicts", "dramsweep", "e2e",
		"exec", "fig11", "fig12", "fig13", "fig14", "fig3a", "fig3b",
		"generality", "hostpar", "locality", "lruvshdc", "multicard",
		"quality", "relaxed", "scorecard", "table2", "table3", "table4",
	}
	desc := Descriptions()
	for _, n := range names {
		if desc[n] == "" {
			t.Errorf("experiment %q has no description for the -exp listing", n)
		}
	}
	if len(desc) != len(names) {
		t.Errorf("Descriptions has %d entries for %d experiments", len(desc), len(names))
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(names), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	ctx, buf := smallCtx()
	// Even smaller: two datasets for the integrated smoke test.
	ctx.Datasets = ctx.Datasets[:2]
	if err := RunAll(ctx); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig3a", "fig12", "Table 4", "Fig 13", "cacheablation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
}

func TestCacheSweep(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := CacheSweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// More cache never hurts, and full residency beats no cache.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.Fraction != 0 || first.TotalNorm != 1 {
		t.Fatalf("baseline row wrong: %+v", first)
	}
	if last.TotalCycles >= first.TotalCycles {
		t.Fatal("full cache not faster than no cache")
	}
	if last.HitRate < 0.99 {
		t.Fatalf("full residency hit rate %.2f", last.HitRate)
	}
	// Degree skew: a 1/16 cache should absorb a disproportionate share.
	for _, row := range r.Rows {
		if row.Fraction == 1.0/16 && row.HitRate < 2*row.Fraction {
			t.Fatalf("1/16 cache hit rate %.2f shows no skew exploitation", row.HitRate)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "HVC capacity") {
		t.Fatal("print missing")
	}
}

func TestDRAMSweep(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := DRAMSweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The optimizations' speedup grows with memory latency.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Speedup <= r.Rows[i-1].Speedup {
			t.Fatalf("speedup not increasing with latency: %+v", r.Rows)
		}
	}
	for _, row := range r.Rows {
		if row.Speedup <= 1 {
			t.Fatalf("full opts slower than BSL at multiplier %.1f", row.Multiplier)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "DRAM speed-grade") {
		t.Fatal("print missing")
	}
}

func TestConflictAnalysis(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := ConflictAnalysis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2*len(ctx.Datasets) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Conflicts at P16 should exceed conflicts at P2 on every dataset
	// (a wider in-flight window can only defer more).
	byDataset := map[string]map[int]ConflictRow{}
	for _, row := range r.Rows {
		if byDataset[row.Dataset] == nil {
			byDataset[row.Dataset] = map[int]ConflictRow{}
		}
		byDataset[row.Dataset][row.Parallelism] = row
	}
	for ds, rows := range byDataset {
		if rows[16].EdgesDeferred < rows[2].EdgesDeferred {
			t.Errorf("%s: P16 deferred %d < P2 deferred %d",
				ds, rows[16].EdgesDeferred, rows[2].EdgesDeferred)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "conflict deferrals") {
		t.Fatal("print missing")
	}
}

func TestGenerality(t *testing.T) {
	ctx, buf := smallCtx()
	ctx.Datasets = ctx.Datasets[:2]
	r, err := Generality(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.SpeedupVsJP <= 1 {
			t.Errorf("%s: greedy not faster than JP on same substrate (%.2fx)",
				row.Dataset, row.SpeedupVsJP)
		}
		if row.JPEdgeOps <= row.GreedyEdgeOps {
			t.Errorf("%s: JP edge ops %d not above greedy %d",
				row.Dataset, row.JPEdgeOps, row.GreedyEdgeOps)
		}
	}
	if r.AvgSpeedup <= 1 {
		t.Fatalf("avg speedup %.2f", r.AvgSpeedup)
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "generality") {
		t.Fatal("print missing")
	}
}

func TestRelaxedExperiment(t *testing.T) {
	ctx, buf := smallCtx()
	ctx.Datasets = ctx.Datasets[:2]
	r, err := Relaxed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.StrictCycles <= 0 || row.RelaxedCycles <= 0 {
			t.Fatalf("%s: missing cycles", row.Dataset)
		}
		if row.NetRelaxedCycles < row.RelaxedCycles {
			t.Fatalf("%s: repair cost negative", row.Dataset)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "relaxed") {
		t.Fatal("print missing")
	}
}

func TestQuality(t *testing.T) {
	ctx, buf := smallCtx()
	ctx.Datasets = ctx.Datasets[:2]
	r, err := Quality(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if len(row.Counts) != len(QualityAlgorithms) {
			t.Fatalf("%s: %d counts for %d algorithms", row.Dataset, len(row.Counts), len(QualityAlgorithms))
		}
		// DSATUR never uses dramatically more colors than greedy.
		ds, gr := row.Counts[QualityColumn("dsatur")], row.Counts[QualityColumn("greedy")]
		if ds > gr+3 {
			t.Fatalf("%s: dsatur %d vs greedy %d", row.Dataset, ds, gr)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "quality") {
		t.Fatal("print missing")
	}
}

func TestHostPar(t *testing.T) {
	ctx, buf := smallCtx()
	ctx.Datasets = ctx.Datasets[:2]
	r, err := HostPar(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sweep := hostParWorkerSweep()
	if len(r.Rows) != 2*len(sweep) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), 2*len(sweep))
	}
	for _, row := range r.Rows {
		if row.SpecColors <= 0 || row.ParColors <= 0 || row.DCTColors <= 0 {
			t.Fatalf("%s W%d: colors %d/%d/%d", row.Dataset, row.Workers,
				row.SpecColors, row.ParColors, row.DCTColors)
		}
		if row.SpecStats.Rounds < 1 || row.ParStats.Rounds < 1 {
			t.Fatalf("%s W%d: rounds %d/%d", row.Dataset, row.Workers,
				row.SpecStats.Rounds, row.ParStats.Rounds)
		}
		// Single-worker runs never conflict.
		if row.Workers == 1 && (row.SpecStats.ConflictsRepaired != 0 || row.ParStats.ConflictsRepaired != 0) {
			t.Fatalf("%s W1 repaired conflicts", row.Dataset)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Host-parallel") || !strings.Contains(buf.String(), "dct_ms") {
		t.Fatal("print missing")
	}
	if recs := r.BenchRecords(); len(recs) != 3*len(r.Rows) {
		t.Fatalf("got %d records for %d rows", len(recs), len(r.Rows))
	}
}

func TestTable3(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Table3(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ctx.Datasets) {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.StandinNodes <= 0 || row.StandinEdges <= 0 {
			t.Fatalf("%s: empty stand-in", row.Abbrev)
		}
		if row.PaperNodes < row.StandinNodes {
			t.Fatalf("%s: stand-in larger than paper original", row.Abbrev)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("print missing")
	}
}

func TestHuman(t *testing.T) {
	cases := map[int64]string{
		12: "12", 4_100: "4.1K", 1_806_100_000: "1.8B", 34_700_000: "34.7M",
	}
	for n, want := range cases {
		if got := human(n); got != want {
			t.Fatalf("human(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestMultiCardExperiment(t *testing.T) {
	ctx, buf := smallCtx()
	ctx.Datasets = ctx.Datasets[:2]
	r, err := MultiCard(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Cards == 1 {
			if row.Speedup != 1 || row.BoundaryFraction != 0 {
				t.Fatalf("1-card row wrong: %+v", row)
			}
		} else if row.BoundaryFraction <= 0 {
			t.Fatalf("%s cards=%d: zero boundary", row.Dataset, row.Cards)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "multi-card") {
		t.Fatal("print missing")
	}
}

func TestLRUvsHDC(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := LRUvsHDC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.LRUHit < 0 || row.LRUHit > 1 || row.HDCHit < 0 || row.HDCHit > 1 {
			t.Fatalf("%s: hit rates out of range: %+v", row.Dataset, row)
		}
	}
	// On the skewed CL stand-in, HDC must beat LRU at equal capacity —
	// the §3.2.2 argument.
	for _, row := range r.Rows {
		if row.Dataset == "CL" && row.Advantage <= 0 {
			t.Fatalf("CL: HDC %.3f not above LRU %.3f", row.HDCHit, row.LRUHit)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "cache policy") {
		t.Fatal("print missing")
	}
}

func TestScorecard(t *testing.T) {
	ctx, buf := smallCtx()
	r, err := Scorecard(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 10 {
		t.Fatalf("only %d claims graded", len(r.Rows))
	}
	// On the test-size datasets every structural claim must hold.
	for _, row := range r.Rows {
		if !row.Holds {
			t.Errorf("claim failed: %s (paper %s, measured %s)", row.Claim, row.Paper, row.Measured)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "scorecard") {
		t.Fatal("print missing")
	}
}

func TestE2EExperiment(t *testing.T) {
	ctx, buf := smallCtx()
	ctx.Datasets = ctx.Datasets[:2]
	r, err := E2E(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2*len(e2eFormats) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), 2*len(e2eFormats))
	}
	for _, row := range r.Rows {
		if row.Colors <= 0 || row.Bytes <= 0 || row.LoadRatio <= 0 {
			t.Fatalf("%s %s: empty measurement %+v", row.Dataset, row.Format, row)
		}
		if row.Format == "bcsr-v3" && runtime.GOOS == "linux" && !row.Mapped {
			t.Errorf("%s: one-shard v3 load did not map", row.Dataset)
		}
	}
	for _, format := range e2eFormats {
		if r.GeoRatio[format] <= 0 {
			t.Fatalf("missing geomean for %s", format)
		}
	}
	r.Print(ctx)
	if !strings.Contains(buf.String(), "End-to-end load path") {
		t.Fatal("print missing title")
	}
	recs := r.BenchRecords()
	if len(recs) != len(r.Rows) {
		t.Fatalf("got %d records for %d rows", len(recs), len(r.Rows))
	}
	for _, rec := range recs {
		if rec.LoadNanos <= 0 || rec.ColorNanos <= 0 || rec.LoadRatio <= 0 {
			t.Fatalf("missing e2e breakdown in record %+v", rec)
		}
	}
}
