// Package metrics computes the evaluation metrics of §5.3: MCV/s
// throughput (million colored vertices per second), KCV/J energy
// efficiency (kilo colored vertices per joule) and speedup tables.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Power draws used for the energy metric, in watts. The paper does not
// publish its power methodology; these are the board-level figures of the
// platforms in §5.1 (Xeon Silver 4114 TDP, Titan V board power, U200
// in-service draw). EXPERIMENTS.md discusses how this choice affects the
// absolute KCV/J values while preserving the paper's ordering
// (FPGA ≫ GPU > CPU).
const (
	CPUPowerWatts  = 85.0
	GPUPowerWatts  = 250.0
	FPGAPowerWatts = 30.0
)

// MCVps returns million colored vertices per second.
func MCVps(vertices int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(vertices) / d.Seconds() / 1e6
}

// KCVpj returns kilo colored vertices per joule at the given power draw.
func KCVpj(vertices int, d time.Duration, watts float64) float64 {
	if d <= 0 || watts <= 0 {
		return 0
	}
	joules := watts * d.Seconds()
	return float64(vertices) / joules / 1e3
}

// Speedup returns base/target (how many times faster target is than
// base).
func Speedup(base, target time.Duration) float64 {
	if target <= 0 {
		return 0
	}
	return float64(base) / float64(target)
}

// GeoMean returns the geometric mean of positive samples; zero and
// negative samples are skipped (matching how the paper averages
// per-dataset speedups).
func GeoMean(xs []float64) float64 {
	prod := 1.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Mean returns the arithmetic mean of samples (0 for none).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GatherStats describes the memory-locality behaviour of a blocked
// color-gather run — the software analogue of the accelerator's memory
// counters. HotReads are neighbor colors served by the hot tier (index
// below v_t, the HVC/HDC analog, §3.2.2); MergedReads stayed within the
// worker's last-touched 64-color block (the DRAM read-merging analog,
// MGR); ColdBlockLoads are fresh block fetches; PrunedTail counts sorted
// adjacency entries skipped by uncolored-vertex pruning's tail break
// (PUV).
//
// The speculative engines and the multi-shard sharded kernels count
// every read. The DCT kernels (dct, and sharded at one shard) count once
// per colored vertex: its reads and pruned tail, with the reads at or
// above v_t classified in order against the worker's last-block
// register. Their counts equal per-read counting at one worker; at more
// they leave out replayed reads (DeferRetries counts those), and the
// merged/cold split depends on which worker colored which vertex.
type GatherStats struct {
	HotReads       int64
	MergedReads    int64
	ColdBlockLoads int64
	PrunedTail     int64
	// AutoDisabled records that the engine switched the gather off on its
	// own because the graph's average degree was below the adaptive
	// threshold (road-network regime: classification overhead beats the
	// locality win). False when the gather ran, was explicitly disabled,
	// or was explicitly forced on.
	AutoDisabled bool
}

// Add accumulates another worker's counters into g.
func (g *GatherStats) Add(o GatherStats) {
	g.HotReads += o.HotReads
	g.MergedReads += o.MergedReads
	g.ColdBlockLoads += o.ColdBlockLoads
	g.PrunedTail += o.PrunedTail
	g.AutoDisabled = g.AutoDisabled || o.AutoDisabled
}

// Reads returns the total number of neighbor color reads classified.
func (g GatherStats) Reads() int64 {
	return g.HotReads + g.MergedReads + g.ColdBlockLoads
}

// MergeRatio returns the fraction of cold-tier reads served by the
// last-loaded block (the read-merging rate); 0 with no cold-tier reads.
func (g GatherStats) MergeRatio() float64 {
	cold := g.MergedReads + g.ColdBlockLoads
	if cold == 0 {
		return 0
	}
	return float64(g.MergedReads) / float64(cold)
}

// HotRatio returns the fraction of all reads served by the hot tier;
// 0 with no reads.
func (g GatherStats) HotRatio() float64 {
	total := g.Reads()
	if total == 0 {
		return 0
	}
	return float64(g.HotReads) / float64(total)
}

func (g GatherStats) String() string {
	return fmt.Sprintf("reads=%d (hot %.1f%%, merged %.1f%% of cold), pruned=%d",
		g.Reads(), 100*g.HotRatio(), 100*g.MergeRatio(), g.PrunedTail)
}

// RunStats is the unified per-run statistics record every registered
// coloring engine fills (the EngineFunc contract in internal/coloring).
// Engines without a subsystem leave its fields zero-valued: sequential
// engines report neither workers nor rounds, the round-based parallel
// engines (Jones–Plassmann, Luby) fill Workers/Rounds only, and the
// speculative host engines additionally fill the conflict, work-split
// and gather counters — the software analogue of the per-PE counters the
// accelerator simulator reports.
type RunStats struct {
	// Workers is the number of goroutines that ran the engine.
	Workers int
	// Rounds counts speculation/detection sweeps until the coloring was
	// conflict-free (1 = the first speculation never conflicted; 0 = the
	// graph was empty).
	Rounds int
	// ConflictsFound counts equal-colored adjacent pairs observed from
	// the losing endpoint during detection.
	ConflictsFound int64
	// ConflictsRepaired counts vertices re-colored to resolve conflicts.
	ConflictsRepaired int64
	// VerticesPerWorker[w] is how many speculation-phase vertices worker
	// w claimed from the shared cursor, summed over all rounds.
	VerticesPerWorker []int64
	// BlocksPerWorker[w] is how many dispatch blocks worker w claimed
	// from the shared cursor across speculation and repair sweeps — the
	// dynamic-dispatch telemetry behind the imbalance and steal numbers.
	BlocksPerWorker []int64
	// Gather aggregates the blocked color-gather's locality counters
	// across workers; zero when the engine ran with the gather disabled.
	// The DCT kernels add them per colored vertex (see GatherStats).
	Gather GatherStats
	// HotThreshold is the gather's hot-tier boundary v_t (0 = disabled).
	HotThreshold uint32
	// Deferred counts vertices the DCT engine parked on a forwarding ring
	// because a lower-indexed neighbor's color had not been published yet
	// (zero for the speculative engines — they never defer, they repair).
	Deferred int64
	// DeferRetries counts coloring attempts replayed from the forwarding
	// rings; a drained vertex that hits another pending neighbor re-parks,
	// so DeferRetries >= Deferred resolved on the first replay.
	DeferRetries int64
	// SpinWaits counts fallback busy-wait yields the DCT workers took
	// when a forwarding ring was full or a final drain pass resolved
	// nothing.
	SpinWaits int64
	// ForwardRingPeak is the maximum forwarding-ring occupancy any worker
	// reached — how deep the worst wait chain got relative to the bounded
	// ring capacity.
	ForwardRingPeak int
	// Shards is the partition count of a sharded run (0 for the unsharded
	// engines; 1 when the sharded engine degenerated to the plain DCT
	// path). The fields below are filled only when Shards > 0.
	Shards int
	// BoundaryVertices counts vertices with at least one cross-shard
	// neighbor (the undirected rule partition.Assignment.BoundaryVertices
	// and the multi-card simulator use), regardless of edge orientation.
	BoundaryVertices int
	// CutEdges counts undirected edges whose endpoints land in different
	// shards — the partition quality number the boundary phase pays for.
	CutEdges int64
	// CrossShardDefers counts vertices pushed to the boundary frontier
	// because a lower-indexed neighbor lives in another shard (the direct
	// cross-shard cause; structural, so identical across timings). Always
	// 0 out of core: the ordered stream has no frontier.
	CrossShardDefers int64
	// FrontierVertices is the boundary-frontier size the second phase
	// colored: CrossShardDefers plus the in-shard cascade behind them.
	// Always 0 out of core.
	FrontierVertices int
	// ShardVertices[s] counts the vertices shard s colored during the
	// interior phase (frontier vertices are excluded — they are colored
	// in the boundary phase). Whenever Shards > 0 it holds exactly Shards
	// entries, the one-shard and out-of-core runs included.
	ShardVertices []int64
	// ShardDurations[s] is the wall time of shard s's interior phase (the
	// slowest of its workers; out of core, timed from the moment the
	// shard is mapped). Whenever Shards > 0 it holds exactly Shards
	// entries, like ShardVertices.
	ShardDurations []time.Duration
	// ResidentShards is the bounded-residency limit of an out-of-core
	// streamed run (0 for in-core runs): at most this many shard payloads
	// were mapped at once.
	ResidentShards int
	// PeakMappedBytes is the high-water mark of mapped shard-section
	// bytes during an out-of-core streamed run (0 for in-core runs) —
	// the number the bounded-residency invariant is asserted on.
	PeakMappedBytes int64
}

// TotalVertices sums the per-worker speculation counts.
func (s RunStats) TotalVertices() int64 {
	var sum int64
	for _, v := range s.VerticesPerWorker {
		sum += v
	}
	return sum
}

// Imbalance is the max/mean ratio of per-worker vertex counts: 1.0 is a
// perfect split, higher means some workers dragged the tail. Returns 0
// when no work was recorded.
func (s RunStats) Imbalance() float64 {
	total := s.TotalVertices()
	if total == 0 || len(s.VerticesPerWorker) == 0 {
		return 0
	}
	var max int64
	for _, v := range s.VerticesPerWorker {
		if v > max {
			max = v
		}
	}
	mean := float64(total) / float64(len(s.VerticesPerWorker))
	return float64(max) / mean
}

// TotalBlocks sums the per-worker dispatch block claims.
func (s RunStats) TotalBlocks() int64 {
	var sum int64
	for _, b := range s.BlocksPerWorker {
		sum += b
	}
	return sum
}

// FairShareBlocks is the per-worker block count a static split would
// have assigned: ceil(total blocks / workers). 0 when no blocks were
// claimed or no per-worker counts were recorded.
func (s RunStats) FairShareBlocks() int64 {
	total := s.TotalBlocks()
	if total == 0 || len(s.BlocksPerWorker) == 0 {
		return 0
	}
	w := int64(len(s.BlocksPerWorker))
	return (total + w - 1) / w
}

// Steals counts dispatch blocks claimed beyond the static fair share,
// summed over workers — how much work the dynamic cursor moved away
// from a hypothetical static partition. 0 means the dynamic dispatch
// degenerated to the static split.
func (s RunStats) Steals() int64 {
	fair := s.FairShareBlocks()
	var steals int64
	for _, b := range s.BlocksPerWorker {
		if b > fair {
			steals += b - fair
		}
	}
	return steals
}

func (s RunStats) String() string {
	return fmt.Sprintf("workers=%d rounds=%d conflicts=%d/%d repaired, imbalance=%.2f",
		s.Workers, s.Rounds, s.ConflictsFound, s.ConflictsRepaired, s.Imbalance())
}

// Comparison is one row of the Fig 13 table.
type Comparison struct {
	Dataset                       string
	CPUTime, GPUTime, FPGATime    time.Duration
	SpeedupVsCPU, SpeedupVsGPU    float64
	CPUMCVps, GPUMCVps, FPGAMCVps float64
	CPUKCVpj, GPUKCVpj, FPGAKCVpj float64
}

// NewComparison derives all metrics from the three measured times.
func NewComparison(dataset string, vertices int, cpu, gpu, fpga time.Duration) Comparison {
	return Comparison{
		Dataset:      dataset,
		CPUTime:      cpu,
		GPUTime:      gpu,
		FPGATime:     fpga,
		SpeedupVsCPU: Speedup(cpu, fpga),
		SpeedupVsGPU: Speedup(gpu, fpga),
		CPUMCVps:     MCVps(vertices, cpu),
		GPUMCVps:     MCVps(vertices, gpu),
		FPGAMCVps:    MCVps(vertices, fpga),
		CPUKCVpj:     KCVpj(vertices, cpu, CPUPowerWatts),
		GPUKCVpj:     KCVpj(vertices, gpu, GPUPowerWatts),
		FPGAKCVpj:    KCVpj(vertices, fpga, FPGAPowerWatts),
	}
}

func (c Comparison) String() string {
	return fmt.Sprintf("%s: cpu=%v gpu=%v fpga=%v (%.1fx vs cpu, %.2fx vs gpu)",
		c.Dataset, c.CPUTime, c.GPUTime, c.FPGATime, c.SpeedupVsCPU, c.SpeedupVsGPU)
}
