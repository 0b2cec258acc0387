package metrics

import (
	"math"
	"testing"
	"time"
)

func TestMCVps(t *testing.T) {
	if v := MCVps(2_000_000, time.Second); v != 2 {
		t.Fatalf("MCVps = %f, want 2", v)
	}
	if MCVps(5, 0) != 0 {
		t.Fatal("zero duration not handled")
	}
}

func TestKCVpj(t *testing.T) {
	// 1M vertices in 1s at 100W → 10 KCV/J.
	if v := KCVpj(1_000_000, time.Second, 100); math.Abs(v-10) > 1e-9 {
		t.Fatalf("KCVpj = %f, want 10", v)
	}
	if KCVpj(1, time.Second, 0) != 0 || KCVpj(1, 0, 10) != 0 {
		t.Fatal("degenerate inputs not handled")
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(10*time.Second, 2*time.Second); s != 5 {
		t.Fatalf("speedup = %f", s)
	}
	if Speedup(time.Second, 0) != 0 {
		t.Fatal("zero target not handled")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean = %f, want 4", g)
	}
	if g := GeoMean([]float64{3, 0, -1}); math.Abs(g-3) > 1e-9 {
		t.Fatalf("geomean with junk = %f, want 3", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean != 0")
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %f", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean != 0")
	}
}

func TestParallelStats(t *testing.T) {
	s := RunStats{
		Workers:           4,
		Rounds:            3,
		ConflictsFound:    12,
		ConflictsRepaired: 9,
		VerticesPerWorker: []int64{100, 100, 100, 100},
	}
	if s.TotalVertices() != 400 {
		t.Fatalf("total = %d", s.TotalVertices())
	}
	if im := s.Imbalance(); math.Abs(im-1) > 1e-9 {
		t.Fatalf("balanced imbalance = %f, want 1", im)
	}
	s.VerticesPerWorker = []int64{300, 50, 25, 25}
	// max 300 over mean 100 → 3.0.
	if im := s.Imbalance(); math.Abs(im-3) > 1e-9 {
		t.Fatalf("skewed imbalance = %f, want 3", im)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
	var zero RunStats
	if zero.Imbalance() != 0 || zero.TotalVertices() != 0 {
		t.Fatal("zero stats not handled")
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	// No per-worker record at all (sequential engines).
	if im := (RunStats{Workers: 0}).Imbalance(); im != 0 {
		t.Fatalf("no-workers imbalance = %f, want 0", im)
	}
	// Per-worker slice present but all zero (engine aborted before any
	// block claim): mean is 0, which must not divide.
	if im := (RunStats{Workers: 2, VerticesPerWorker: []int64{0, 0}}).Imbalance(); im != 0 {
		t.Fatalf("zero-work imbalance = %f, want 0", im)
	}
	// A single worker is by definition perfectly balanced.
	if im := (RunStats{Workers: 1, VerticesPerWorker: []int64{42}}).Imbalance(); math.Abs(im-1) > 1e-9 {
		t.Fatalf("single-worker imbalance = %f, want 1", im)
	}
	// One worker got everything: max/mean == workers.
	if im := (RunStats{Workers: 4, VerticesPerWorker: []int64{80, 0, 0, 0}}).Imbalance(); math.Abs(im-4) > 1e-9 {
		t.Fatalf("one-sided imbalance = %f, want 4", im)
	}
}

func TestMergeRatioEdgeCases(t *testing.T) {
	// No reads at all (gather disabled): both ratios must stay finite.
	var g GatherStats
	if g.MergeRatio() != 0 || g.HotRatio() != 0 {
		t.Fatalf("zero-read ratios = %f/%f, want 0/0", g.MergeRatio(), g.HotRatio())
	}
	// All reads hot: no cold-tier denominator, MergeRatio must be 0 (not
	// NaN), HotRatio exactly 1.
	g = GatherStats{HotReads: 10}
	if g.MergeRatio() != 0 {
		t.Fatalf("hot-only MergeRatio = %f, want 0", g.MergeRatio())
	}
	if g.HotRatio() != 1 {
		t.Fatalf("hot-only HotRatio = %f, want 1", g.HotRatio())
	}
	// One cold load, no merges: 0; all follow-ups merged: 3/4.
	g = GatherStats{ColdBlockLoads: 1}
	if g.MergeRatio() != 0 {
		t.Fatalf("single-load MergeRatio = %f, want 0", g.MergeRatio())
	}
	g = GatherStats{MergedReads: 3, ColdBlockLoads: 1}
	if r := g.MergeRatio(); math.Abs(r-0.75) > 1e-9 {
		t.Fatalf("MergeRatio = %f, want 0.75", r)
	}
	if g.Reads() != 4 {
		t.Fatalf("Reads = %d, want 4", g.Reads())
	}
	if g.String() == "" {
		t.Fatal("empty String")
	}
}

func TestBlocksAndSteals(t *testing.T) {
	// No block telemetry: everything 0.
	var zero RunStats
	if zero.TotalBlocks() != 0 || zero.FairShareBlocks() != 0 || zero.Steals() != 0 {
		t.Fatal("zero stats block accounting not 0")
	}
	// Perfect split: fair share met exactly, no steals.
	s := RunStats{Workers: 4, BlocksPerWorker: []int64{5, 5, 5, 5}}
	if s.TotalBlocks() != 20 {
		t.Fatalf("TotalBlocks = %d, want 20", s.TotalBlocks())
	}
	if s.FairShareBlocks() != 5 {
		t.Fatalf("FairShareBlocks = %d, want 5", s.FairShareBlocks())
	}
	if s.Steals() != 0 {
		t.Fatalf("balanced Steals = %d, want 0", s.Steals())
	}
	// Skewed dynamic dispatch: fair share ceil(20/4)=5, worker 0 claimed
	// 11 → 6 steals, worker 1 claimed 7 → 2 steals.
	s.BlocksPerWorker = []int64{11, 7, 1, 1}
	if s.Steals() != 8 {
		t.Fatalf("skewed Steals = %d, want 8", s.Steals())
	}
	// Non-divisible total: ceil rounds the fair share up.
	s.BlocksPerWorker = []int64{3, 3, 3, 1}
	if s.FairShareBlocks() != 3 {
		t.Fatalf("ceil FairShareBlocks = %d, want 3", s.FairShareBlocks())
	}
	if s.Steals() != 0 {
		t.Fatalf("ceil Steals = %d, want 0", s.Steals())
	}
	// Single worker can never steal from itself.
	s = RunStats{Workers: 1, BlocksPerWorker: []int64{9}}
	if s.FairShareBlocks() != 9 || s.Steals() != 0 {
		t.Fatalf("single-worker fair/steals = %d/%d, want 9/0", s.FairShareBlocks(), s.Steals())
	}
}

func TestNewComparison(t *testing.T) {
	c := NewComparison("EF", 1_000_000, 10*time.Second, time.Second, 200*time.Millisecond)
	if c.SpeedupVsCPU != 50 {
		t.Fatalf("vs CPU = %f", c.SpeedupVsCPU)
	}
	if c.SpeedupVsGPU != 5 {
		t.Fatalf("vs GPU = %f", c.SpeedupVsGPU)
	}
	if c.FPGAMCVps <= c.GPUMCVps || c.GPUMCVps <= c.CPUMCVps {
		t.Fatal("throughput ordering broken")
	}
	// Energy: FPGA wins by both speed and power.
	if c.FPGAKCVpj <= c.GPUKCVpj || c.FPGAKCVpj <= c.CPUKCVpj {
		t.Fatal("energy ordering broken")
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}
