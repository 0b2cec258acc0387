package coloring

import (
	"sync/atomic"

	"bitcolor/internal/cache"
	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/obs"
	"bitcolor/internal/partition"
)

// The blocked color-gather is the host-side analog of the paper's memory
// system (§3.2.2). The accelerator wins as much from its memory path as
// from the bit-wise ALU: sorted adjacency lets the Color Loader merge
// neighbor color reads that fall in the same DRAM burst (MGR), the
// high-degree color cache serves vertices below v_t on-chip (HDC), and
// uncolored-vertex pruning skips the sorted adjacency tail of
// not-yet-colored neighbors (PUV). In software the same three mechanisms
// map to: walking sorted adjacency in 64-color blocks so consecutive
// reads hit the same cache lines, a per-worker last-block register that
// classifies repeat-block reads as merged, a hot tier boundary v_t
// (reusing the HVC sizing from internal/cache) under which reads count
// as cache hits, and an early break at the first neighbor index greater
// than the current vertex. The counters feed metrics.GatherStats so the
// locality ablation can relate the software numbers to Fig 11.

// colorBlockShift sizes a gather block at 64 colors: 64 x 16-bit paper
// colors is one 128-byte DRAM burst, and with this repo's 32-bit shared
// color words it spans two adjacent 128-byte cache lines.
const colorBlockShift = 6

// Options is the engine-independent option set of the EngineFunc registry
// contract. Every registered engine reads MaxColors; the randomized
// engines read Seed; the parallel engines read Workers; the host-parallel
// speculative engines additionally read the gather fields. Engines ignore
// options that do not apply to them.
type Options struct {
	// MaxColors bounds the palette (<=0: MaxColorsDefault).
	MaxColors int
	// Seed feeds the randomized engines (Jones–Plassmann, Luby).
	Seed int64
	// Workers bounds the goroutine count (<=0: GOMAXPROCS).
	Workers int
	// DisableGather switches off the blocked color-gather and PUV tail
	// pruning, restoring the naive per-neighbor random-access path — the
	// baseline arm of the locality ablation. The DCT kernels read the
	// same way either way; there it only drops the gather report.
	DisableGather bool
	// ForceGather keeps the blocked color-gather on even when the
	// adaptive heuristic would switch it off (average degree below
	// adaptiveGatherMinDegree). Ignored when DisableGather is set.
	ForceGather bool
	// HotVertices overrides the hot-tier threshold v_t (0: automatic via
	// cache.HotThreshold).
	HotVertices int
	// Shards is the sharded engine's partition count (<=1: a single
	// shard, which degenerates to the plain DCT path). Other engines
	// ignore it.
	Shards int
	// PartitionStrategy selects how the sharded engine partitions the
	// graph: "" or "ranges" for contiguous index ranges,
	// "labelprop" for the balanced label-propagation refinement.
	PartitionStrategy string
	// Partition, when set, is a precomputed assignment the sharded
	// engine uses instead of partitioning — the cache path a BCSR v3
	// file feeds. It is honored only when its K equals the effective
	// shard count and it covers the graph; otherwise the engine
	// partitions as usual.
	Partition *partition.Assignment
	// OutOfCore routes the sharded engine to the bounded-residency
	// streaming executor; requires ShardFile. Other engines ignore it.
	OutOfCore bool
	// MaxResidentShards bounds how many shard payloads the streaming
	// executor keeps mapped at once (<=0: 1; clamped to the file's shard
	// count).
	MaxResidentShards int
	// ShardFile is the open BCSR v3 handle an out-of-core run streams
	// from. The graph argument of such a run is ignored and may be nil:
	// the registry sizes and records the run by the handle's vertex and
	// edge counts, and all payload reads go through the handle.
	ShardFile *graph.ShardedFile
	// Obs is the optional run-scoped observability sink. The registry's
	// instrumentation decorator fills it (from the caller or the
	// context); a nil observer is the zero-overhead default.
	Obs *obs.Observer
	// Span is the enclosing engine span (set by the instrumentation
	// decorator alongside Obs); the speculative engines hang their
	// per-round spans off it. All span methods are nil-safe.
	Span *obs.Span
	// Scratch, when it matches the run (engine name and effective worker
	// count), supplies pooled buffers and per-worker state so repeated
	// runs allocate nothing in steady state. A mismatched or nil Scratch
	// is ignored and the engine allocates as before.
	Scratch *Scratch
	// Pool, when set, is the shared bounded worker pool this run admits
	// through: the registry's admission decorator acquires the engine's
	// worker demand before running (FIFO, blocking) and releases it
	// after, shrinking Workers when the pool granted less. Nil runs
	// unbounded, exactly as before the pool existed.
	Pool *exec.Pool
	// Run is this invocation's record in the live run registry (set by
	// the admission decorator when an observer is present, nil
	// otherwise). Engines attach their counter ShardSet to it before
	// spawning workers and publish the current round at sweep
	// boundaries; every method is nil-safe, so unobserved runs pay only
	// nil checks.
	Run *obs.RunRecord
}

// streamed reports whether the run streams out of core from ShardFile.
func (o Options) streamed() bool { return o.OutOfCore && o.ShardFile != nil }

// maxColors resolves the palette bound, applying the default.
func (o Options) maxColors() int {
	if o.MaxColors <= 0 {
		return MaxColorsDefault
	}
	return o.MaxColors
}

// adaptiveGatherMinDegree is the average-degree floor (directed
// adjacency entries per vertex) below which the gather hurts more than
// it helps: on road-network-shaped graphs (degree ~2–4) almost every
// 64-color block load serves a single neighbor, so the per-read
// classification overhead exceeds the locality and PUV savings — the
// honest regression the PR 2 locality ablation recorded on RT/RP.
const adaptiveGatherMinDegree = 8

// gatherDecision resolves whether a run uses the blocked color-gather:
// an explicit DisableGather always wins, an explicit ForceGather bypasses
// the heuristic, and otherwise the gather switches itself off on graphs
// whose average degree is below adaptiveGatherMinDegree. autoDisabled
// reports the heuristic (not an explicit option) made the off decision,
// for metrics.GatherStats.AutoDisabled.
func gatherDecision(g *graph.CSR, opts Options) (enabled, autoDisabled bool) {
	if opts.DisableGather {
		return false, false
	}
	if opts.ForceGather {
		return true, false
	}
	n := g.NumVertices()
	if n > 0 && g.NumEdges() < int64(n)*adaptiveGatherMinDegree {
		return false, true
	}
	return true, false
}

// gather is one worker's locality-aware view of the shared color array.
// It is not safe for concurrent use; every worker owns one. Read
// classifications land in the worker's padded counter shard (obs.Shard),
// which the engine folds into metrics.RunStats after the workers join.
type gather struct {
	shared    []uint32
	vt        uint32 // hot-tier threshold v_t
	lastBlock int64  // last cold-tier 64-color block touched
	sh        *obs.Shard
}

// init (re)points a gather at the live color array, counting into shard
// sh. hotVertices <= 0 selects the automatic HVC-derived threshold.
// Value-initialization keeps the gather embeddable in pooled per-worker
// scratch without a per-run allocation.
func (ga *gather) init(shared []uint32, hotVertices int, sh *obs.Shard) {
	vt := uint32(hotVertices)
	if hotVertices <= 0 {
		vt = cache.HotThreshold(len(shared))
	} else if hotVertices > len(shared) {
		vt = uint32(len(shared))
	}
	*ga = gather{shared: shared, vt: vt, lastBlock: -1, sh: sh}
}

// tally adds one colored vertex's gather counts to the worker's shard:
// the DCT kernels' once-per-vertex replacement for load's per-read
// counting. adj is v's list and k the kernel's PUV break index
// (len(adj) when nothing was pruned). On a sorted list the reads are
// adj[:k] and the pruned tail adj[k:]; when v < v_t every read is
// hot-tier, so the whole tally is two additions. Otherwise the reads at
// or above v_t are classified in order against the last-block register,
// as load would have classified them, and an unsorted list (no break)
// skips the higher-indexed entries the kernel skipped.
func (ga *gather) tally(v graph.VertexID, adj []graph.VertexID, k int, sorted bool) {
	if sorted {
		ga.sh.Add(obs.CtrPrunedTail, int64(len(adj)-k))
		if v < ga.vt {
			ga.sh.Add(obs.CtrHotReads, int64(k))
			return
		}
	}
	var hot, merged, cold int64
	for _, u := range adj[:k] {
		switch {
		case u > v:
		case u < ga.vt:
			hot++
		case int64(u>>colorBlockShift) == ga.lastBlock:
			merged++
		default:
			ga.lastBlock = int64(u >> colorBlockShift)
			cold++
		}
	}
	ga.sh.Add(obs.CtrHotReads, hot)
	ga.sh.Add(obs.CtrMergedReads, merged)
	ga.sh.Add(obs.CtrColdBlockLoads, cold)
}

// load returns u's live color and classifies the access as hot-tier,
// merged-within-block, or a cold block load. Small enough to inline into
// the engines' per-neighbor loops.
func (ga *gather) load(u graph.VertexID) uint32 {
	c := atomic.LoadUint32(&ga.shared[u])
	if u < ga.vt {
		ga.sh.Inc(obs.CtrHotReads)
	} else if b := int64(u >> colorBlockShift); b == ga.lastBlock {
		ga.sh.Inc(obs.CtrMergedReads)
	} else {
		ga.lastBlock = b
		ga.sh.Inc(obs.CtrColdBlockLoads)
	}
	return c
}
