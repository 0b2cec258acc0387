package bitcolor

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"bitcolor/internal/coloring"
	"bitcolor/internal/exec"
	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
	"bitcolor/internal/partition"
	"bitcolor/internal/reorder"
	"bitcolor/internal/resources"
	"bitcolor/internal/sim"
)

// Graph is a compressed-sparse-row graph (paper §2.1).
type Graph = graph.CSR

// Edge is one undirected edge.
type Edge = graph.Edge

// VertexID is a dense vertex index.
type VertexID = graph.VertexID

// Result is a coloring outcome.
type Result = coloring.Result

// SimConfig parameterizes the accelerator simulator.
type SimConfig = sim.Config

// SimResult is a simulated accelerator run.
type SimResult = sim.Result

// ResourceUsage is one point of the FPGA resource model.
type ResourceUsage = resources.Usage

// MaxColorsDefault is the paper's palette size (1024).
const MaxColorsDefault = coloring.MaxColorsDefault

// ForwardRingCap is EngineDCT's per-worker forwarding-ring bound: how
// many vertices a worker may park (the scan window it may run ahead of
// its slowest dependency) before it falls back to an inline wait.
// RunStats.ForwardRingPeak reports against this bound.
const ForwardRingCap = coloring.ForwardRingCap

// NewGraph builds an undirected simple graph over n vertices; self loops
// and duplicate edges are dropped, adjacency lists come out sorted.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdgeList(n, edges)
}

// On-disk graph format names, as sniffed by OpenGraphFile and used as
// the "format" label on the bitcolor_graph_load_* metric families.
const (
	// FormatEdgeList is a SNAP-style whitespace edge list.
	FormatEdgeList = graph.FormatEdgeList
	// FormatBCSR1 is the retired v1 binary CSR format, still read by
	// copying.
	FormatBCSR1 = graph.FormatBCSR1
	// FormatBCSR2 is the retired v2 binary CSR format (aligned offsets
	// and edges behind a checksummed header), still read by copying.
	FormatBCSR2 = graph.FormatBCSR2
	// FormatBCSR3 is the shard-major binary CSR v3 format, the only one
	// SaveGraph and SaveGraphV3 write: per-shard sections behind a
	// persisted partition assignment. A one-shard file opens zero-copy; a
	// multi-shard one also opens for bounded-residency out-of-core
	// coloring.
	FormatBCSR3 = graph.FormatBCSR3
	// FormatDIMACS is a DIMACS coloring instance (".col"), recognized by
	// extension rather than content.
	FormatDIMACS = "dimacs"
)

// LoadGraph reads a graph from disk into private memory: SNAP-style
// edge lists, DIMACS coloring instances (".col") or any BCSR binary
// (v1, v2 or v3), sniffed as OpenGraphFile sniffs them. A mapped
// one-shard v3 graph is copied out before the mapping is released; use
// OpenGraphFile to keep it mapped instead.
func LoadGraph(path string) (*Graph, error) {
	h, _, err := openGraphFile(path)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	if h.m != nil {
		return h.m.Graph().Clone(), nil
	}
	return h.g, nil
}

// SaveGraph writes the graph as a one-shard BCSR v3 file, which
// OpenGraphFile maps zero-copy. Like SaveGraphV3 it is atomic: the file
// appears complete or not at all.
func SaveGraph(path string, g *Graph) error {
	return graph.SaveCSRFile(path, g)
}

// SaveGraphV3 writes the graph in the shard-major binary CSR v3 format:
// it partitions g into `shards` parts with the given EngineSharded
// strategy (PartitionRanges or PartitionLabelProp; "" defaults to
// ranges), and persists the assignment alongside per-shard sections so
// a later open — in core or out of core — skips partitioning entirely
// (the content-hash partition cache). The write is atomic.
func SaveGraphV3(path string, g *Graph, shards int, strategy string) error {
	a, err := coloring.BuildPartition(g, shards, strategy)
	if err != nil {
		return err
	}
	code, err := partition.StrategyCode(strategy)
	if err != nil {
		return err
	}
	return graph.SaveBinaryV3File(path, g, a.Parts, a.K, code)
}

// GraphHandle is an opened on-disk graph together with whatever backs
// it. For a one-shard BCSR v3 file the CSR sections alias the mapped
// file and Close unmaps them — the Graph must not be used after Close
// (the handle panics on Graph() to make that bug loud). A multi-shard
// v3 file keeps its shard file open until Close; for every other format
// Close is a no-op and the Graph is ordinary heap memory.
type GraphHandle struct {
	g      *Graph
	m      *graph.MappedCSR
	sf     *graph.ShardedFile
	format string
}

// Graph returns the loaded graph. It panics if the handle was mapped
// and has been closed, or if the handle was opened out of core (no
// materialized CSR exists — color through ColorHandle instead).
func (h *GraphHandle) Graph() *Graph {
	if h.m != nil {
		return h.m.Graph()
	}
	if h.g == nil && h.sf != nil {
		panic("bitcolor: out-of-core handle has no materialized graph; color it with ColorHandle or open it with OpenGraphFile")
	}
	return h.g
}

// Format reports the sniffed on-disk format (FormatEdgeList,
// FormatBCSR1, FormatBCSR2, FormatBCSR3 or FormatDIMACS).
func (h *GraphHandle) Format() string { return h.format }

// Mapped reports whether the graph's payload aliases an mmap'd region
// (true only for one-shard BCSR v3 files on platforms where mapping
// succeeded).
func (h *GraphHandle) Mapped() bool { return h.m != nil && h.m.Mapped() }

// OutOfCore reports whether the handle streams from a BCSR v3 file
// without a materialized CSR (opened via OpenGraphFileOutOfCore).
func (h *GraphHandle) OutOfCore() bool { return h.sf != nil && h.g == nil && h.m == nil }

// NumShards returns the partition count persisted in the handle's BCSR
// v3 file (0 for every other format).
func (h *GraphHandle) NumShards() int {
	if h.sf == nil {
		return 0
	}
	return h.sf.Shards()
}

// PartitionStrategy returns the partition strategy persisted in the
// handle's BCSR v3 file (PartitionRanges or PartitionLabelProp; "" for
// every other format).
func (h *GraphHandle) PartitionStrategy() string {
	if h.sf == nil {
		return ""
	}
	name, err := partition.StrategyName(h.sf.Strategy())
	if err != nil {
		return ""
	}
	return name
}

// ShardMapStats snapshots a BCSR v3 handle's shard-mapping activity:
// sections mapped and retired, current and peak resident payload bytes.
type ShardMapStats = graph.ShardMapStats

// ShardStats snapshots the handle's shard-mapping counters (zero for
// non-v3 formats) — the residency telemetry behind the out-of-core
// invariant. An open one-shard handle holds its in-core mapping in
// them: Maps 1, Unmaps 0, and ResidentBytes equal to the shard's
// section bytes. An in-core multi-shard handle shows one map and one
// unmap per shard after the open, which copied every shard's lists
// into its graph, and nothing resident. Either adds whatever an
// out-of-core run on the handle has mapped. After Close, Maps equals
// Unmaps and ResidentBytes is 0.
func (h *GraphHandle) ShardStats() ShardMapStats {
	if h.sf == nil {
		return ShardMapStats{}
	}
	return h.sf.Stats()
}

// Close releases the handle's resources (unmapping the file when
// mapped, closing the shard file when one backs the handle).
// Idempotent; safe on handles for unmapped formats.
func (h *GraphHandle) Close() error {
	if h == nil {
		return nil
	}
	var err error
	if h.m != nil {
		err = h.m.Close()
	}
	if h.sf != nil {
		if cerr := h.sf.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// OpenGraphFile opens a graph for reading, sniffing the on-disk format
// from content: a one-shard BCSR v3 file is mmap'd and used zero-copy
// (read into a private copy on platforms without mmap), a multi-shard
// v3 file is reassembled in core by mapping each shard once and copying
// its lists, with its persisted partition kept for EngineSharded, BCSR
// v1/v2 and edge lists go through the copying readers, and ".col" files
// parse as DIMACS. Close the handle when done with the graph.
func OpenGraphFile(path string) (*GraphHandle, error) {
	return OpenGraphFileContext(context.Background(), path)
}

// OpenGraphFileContext is OpenGraphFile under a context: an Observer
// attached via WithObserver records a "graph/load" span and the
// bitcolor_graph_load_* metric families (mapped v3 loads are labeled
// "bcsr-v3-mapped" to separate them from copied ones).
func OpenGraphFileContext(ctx context.Context, path string) (*GraphHandle, error) {
	o := obs.FromContext(ctx)
	sp := o.StartSpan("graph/load").Attr("path", path)
	var bytes int64
	if st, err := os.Stat(path); err == nil {
		bytes = st.Size()
	}
	start := time.Now()
	h, label, err := openGraphFile(path)
	d := time.Since(start)
	if h != nil && h.Mapped() {
		label += "-mapped"
	}
	sp.Attr("format", label).Attr("bytes", bytes)
	if err != nil {
		sp.Attr("error", err.Error())
	} else {
		g := h.Graph()
		sp.Attr("vertices", int64(g.NumVertices())).Attr("edges", g.NumEdges())
	}
	sp.End()
	o.RecordGraphLoad(label, bytes, d, err)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// openGraphFile is the format dispatch behind OpenGraphFile. The
// returned format names what the path sniffed as, for metric labeling —
// it is meaningful even when the load itself failed ("unknown" only
// when the sniff could not run at all).
func openGraphFile(path string) (*GraphHandle, string, error) {
	if strings.HasSuffix(path, ".col") {
		f, err := os.Open(path)
		if err != nil {
			return nil, FormatDIMACS, err
		}
		defer f.Close()
		g, err := graph.ReadDIMACS(f)
		if err != nil {
			return nil, FormatDIMACS, err
		}
		return &GraphHandle{g: g, format: FormatDIMACS}, FormatDIMACS, nil
	}
	format, err := graph.SniffFormat(path)
	if err != nil {
		return nil, "unknown", err
	}
	switch format {
	case FormatBCSR3:
		// One shard is the whole CSR, mapped in place; more shards are
		// each mapped once and copied into one CSR. Either way the shard
		// file stays open, so EngineSharded runs reuse the persisted
		// partition.
		sf, err := graph.OpenShardedFile(path)
		if err != nil {
			return nil, format, err
		}
		h := &GraphHandle{sf: sf, format: format}
		if sf.Shards() == 1 {
			h.m, err = sf.MapCSR()
		} else {
			h.g, err = sf.Materialize()
		}
		if err != nil {
			sf.Close()
			return nil, format, err
		}
		return h, format, nil
	case FormatBCSR2:
		g, err := graph.LoadBinaryV2File(path)
		if err != nil {
			return nil, format, err
		}
		return &GraphHandle{g: g, format: format}, format, nil
	case FormatBCSR1:
		g, err := graph.LoadBinaryFile(path)
		if err != nil {
			return nil, format, err
		}
		return &GraphHandle{g: g, format: format}, format, nil
	default:
		g, err := graph.LoadEdgeListFile(path)
		if err != nil {
			return nil, format, err
		}
		return &GraphHandle{g: g, format: format}, format, nil
	}
}

// OpenGraphFileOutOfCore opens a BCSR v3 shard-major file for
// bounded-residency streaming: only the header, partition assignment
// and shard directory become resident — the O(E) adjacency stays on
// disk until an out-of-core EngineSharded run maps it shard by shard.
// The handle has no materialized graph (Graph() panics); color it with
// ColorHandle, and Close it when done.
func OpenGraphFileOutOfCore(path string) (*GraphHandle, error) {
	return OpenGraphFileOutOfCoreContext(context.Background(), path)
}

// OpenGraphFileOutOfCoreContext is OpenGraphFileOutOfCore under a
// context: an Observer attached via WithObserver records the load span
// and the bitcolor_graph_load_* families, exactly like the eager open.
func OpenGraphFileOutOfCoreContext(ctx context.Context, path string) (*GraphHandle, error) {
	o := obs.FromContext(ctx)
	sp := o.StartSpan("graph/load").Attr("path", path).Attr("mode", "outofcore")
	var bytes int64
	if st, err := os.Stat(path); err == nil {
		bytes = st.Size()
	}
	start := time.Now()
	h, label, err := openGraphFileOutOfCore(path)
	d := time.Since(start)
	sp.Attr("format", label).Attr("bytes", bytes)
	if err != nil {
		sp.Attr("error", err.Error())
	} else {
		sp.Attr("vertices", int64(h.sf.NumVertices())).Attr("edges", h.sf.NumEdges()).
			Attr("shards", int64(h.sf.Shards()))
	}
	sp.End()
	o.RecordGraphLoad(label, bytes, d, err)
	if err != nil {
		return nil, err
	}
	return h, nil
}

func openGraphFileOutOfCore(path string) (*GraphHandle, string, error) {
	format, err := graph.SniffFormat(path)
	if err != nil {
		return nil, "unknown", err
	}
	if format != FormatBCSR3 {
		return nil, format, fmt.Errorf("bitcolor: out-of-core open needs a BCSR v3 shard-major file (write one with SaveGraphV3 or `preprocess -shards K`); %s sniffed as %s", path, format)
	}
	sf, err := graph.OpenShardedFile(path)
	if err != nil {
		return nil, format, err
	}
	return &GraphHandle{sf: sf, format: format}, format, nil
}

// Generate builds one of the paper's datasets (Table 3 abbreviation:
// EF, GD, CD, CA, CL, RC, RP, RT, CO, CF) as a scaled synthetic stand-in.
func Generate(abbrev string, seed int64) (*Graph, error) {
	d, err := gen.ByAbbrev(abbrev)
	if err != nil {
		return nil, err
	}
	return d.Build(seed)
}

// Datasets lists the Table 3 abbreviations.
func Datasets() []string { return gen.Abbrevs() }

// Preprocess applies the paper's preprocessing: degree-based-grouping
// reordering (descending degree), which leaves every adjacency list
// ascending. The returned graph is what the accelerator expects; colors
// assigned to it map back to the original IDs through the permutation
// available from PreprocessWithPermutation.
func Preprocess(g *Graph) (*Graph, error) {
	out, _, err := PreprocessWithPermutation(g)
	return out, err
}

// PreprocessWithPermutation is Preprocess returning the vertex renaming:
// NewID[old] gives the reordered index of an original vertex.
func PreprocessWithPermutation(g *Graph) (*Graph, []VertexID, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	out, p := reorder.DBG(g)
	return out, p.NewID, nil
}

// Engine selects a software coloring algorithm.
type Engine int

// The implemented software engines.
const (
	// EngineGreedy is the paper's Algorithm 1 (flag-array color scan).
	EngineGreedy Engine = iota
	// EngineBitwise is the paper's Algorithm 2 with uncolored-vertex
	// pruning: identical colors to EngineGreedy, O(1) Stage 1.
	EngineBitwise
	// EngineDSATUR is Brélaz's saturation heuristic.
	EngineDSATUR
	// EngineWelshPowell colors in descending-degree order.
	EngineWelshPowell
	// EngineSmallestLast colors in degeneracy order.
	EngineSmallestLast
	// EngineJonesPlassmann is parallel independent-set coloring (the
	// GPU baseline's algorithm).
	EngineJonesPlassmann
	// EngineLubyMIS extracts one maximal independent set per color.
	EngineLubyMIS
	// EngineRLF is Leighton's Recursive Largest First: best quality of
	// the implemented heuristics, highest cost.
	EngineRLF
	// EngineSpeculative is Gebremedhin–Manne shared-memory parallel
	// coloring: speculate, detect conflicts, retry — the multicore host
	// baseline.
	EngineSpeculative
	// EngineParallelBitwise fuses the bit-wise color state of Algorithm 2
	// into the speculative parallel framework, with degree-aware dynamic
	// dispatch and in-place conflict repair — the fastest host engine and
	// the multicore reference for accelerator speedup claims.
	EngineParallelBitwise
	// EngineDCT is the host port of the accelerator's conflict-avoidance
	// scheme (contributions 5–7): owner-computes pattern-p dispatch
	// (worker i colors vertices i, i+P, …, in index order) with
	// cross-worker color forwarding through bounded per-worker rings —
	// the Data Conflict Table in software. It completes in exactly one
	// pass with zero repairs and produces a coloring byte-identical to
	// EngineGreedy at every worker count.
	EngineDCT
	// EngineSharded is the host rendering of the paper's multi-card
	// scale-out: the graph is partitioned into ShardCount parts (contiguous
	// ranges by default, label propagation via PartitionStrategy), every
	// shard colors its interior concurrently with the DCT owner-computes
	// loop, and the boundary frontier — vertices whose coloring depends on
	// another shard — is resolved in one bounded second phase under the
	// same lower-index-wins rule. Byte-identical to EngineGreedy at every
	// (shards × workers) combination; one shard degenerates to EngineDCT.
	EngineSharded
)

// Engines returns every implemented software engine, in registry
// (= declaration) order. The list is derived from the internal/coloring
// engine registry, so a newly registered engine appears here, in
// ParseEngine and in every CLI automatically.
func Engines() []Engine {
	infos := coloring.Engines()
	out := make([]Engine, len(infos))
	for i := range infos {
		out[i] = Engine(i)
	}
	return out
}

// String names the engine (the registry name used by the CLIs).
func (e Engine) String() string {
	if info, ok := coloring.LookupIndex(int(e)); ok {
		return info.Name
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Info returns the registry metadata for the engine: name, whether it is
// parallel and/or seeded, which run statistics it emits, and a one-line
// description.
func (e Engine) Info() (EngineInfo, bool) {
	return coloring.LookupIndex(int(e))
}

// EngineInfo is the registry's description of one engine.
type EngineInfo = coloring.EngineInfo

// EngineNames returns the registered engine names in registry order —
// what ParseEngine accepts and the CLIs advertise.
func EngineNames() []string { return coloring.EngineNames() }

// ParseEngine resolves an engine name as used by the CLIs.
func ParseEngine(name string) (Engine, error) {
	if i := coloring.Index(name); i >= 0 {
		return Engine(i), nil
	}
	return 0, fmt.Errorf("bitcolor: unknown engine %q (have %s)",
		name, strings.Join(coloring.EngineNames(), ", "))
}

// ColorOptions configure Color.
type ColorOptions struct {
	// Engine selects the algorithm (default EngineBitwise).
	Engine Engine
	// MaxColors bounds the palette (default MaxColorsDefault).
	MaxColors int
	// Seed feeds the randomized engines (JP, Luby).
	Seed int64
	// Workers bounds the parallel engines' goroutine count (JP,
	// Speculative, ParallelBitwise; <=0: GOMAXPROCS).
	Workers int
	// DisableGather switches the host-parallel engines (Speculative,
	// ParallelBitwise, DCT) off the blocked color-gather and PUV tail
	// pruning back onto the naive random-access memory path — the
	// baseline arm of the locality ablation. When neither DisableGather
	// nor ForceGather is set, the engines decide adaptively: graphs with
	// average degree below 8 (the road-network regime, where per-read
	// classification overhead beats the locality win) run with the gather
	// off, and RunStats.Gather.AutoDisabled records the decision.
	DisableGather bool
	// ForceGather keeps the blocked color-gather on even when the
	// adaptive average-degree heuristic would switch it off. Ignored when
	// DisableGather is set.
	ForceGather bool
	// HotVertices overrides the gather's hot-tier threshold v_t (0:
	// automatic sizing from the HVC capacity model).
	HotVertices int
	// ShardCount is EngineSharded's partition count (<=1: a single shard,
	// which runs the plain DCT path). Other engines ignore it.
	ShardCount int
	// PartitionStrategy selects how EngineSharded partitions the graph:
	// PartitionRanges ("" or "ranges", the zero-cost contiguous default)
	// or PartitionLabelProp ("labelprop", balanced label propagation for
	// a smaller edge cut at a preprocessing cost).
	PartitionStrategy string
	// OutOfCore streams an EngineSharded run from the handle's BCSR v3
	// file instead of a materialized CSR — only ColorHandle honors it,
	// and only on a v3-backed handle whose partition is index-ordered
	// ranges (any other fails before a shard is mapped; OpenGraphFile
	// colors such a file in core). Implied by an OpenGraphFileOutOfCore
	// handle.
	OutOfCore bool
	// MaxResidentShards bounds how many shard payloads an out-of-core
	// run keeps mapped at once (<=0: one — strictest residency; clamped
	// to the file's shard count).
	MaxResidentShards int
	// Observer is an explicit run-scoped observability sink. It takes
	// precedence over an Observer attached to the context via
	// WithObserver; nil falls back to the context (and then to no
	// observation at all, at the cost of one branch per run).
	Observer *Observer
	// Scratch lends the engine pooled working state (from AcquireScratch)
	// so repeated runs against a cached graph do zero steady-state heap
	// allocation. A Scratch acquired for a different engine, worker count
	// or graph size class is silently ignored; nil keeps the engines'
	// allocate-per-run behavior. Results from a scratch-backed run are
	// only valid until the Scratch's next run or Release.
	Scratch *Scratch
	// Pool admits the run through a shared bounded worker pool (see
	// NewPool): the run blocks — FIFO, respecting ctx — until its worker
	// demand is free, so N concurrent ColorContext/Pipeline calls
	// sharing one Pool never oversubscribe the host. When the pool is
	// smaller than the demand the run gets the whole pool and shrinks
	// its worker count to match. Nil runs unbounded, as before.
	Pool *Pool
}

// Pool is a bounded pool of worker slots shared by concurrent coloring
// runs — the admission layer a multi-tenant coloring service sits on.
// Create one with NewPool, hand it to every run via ColorOptions.Pool
// (Pipeline's Color step passes it through), and concurrent runs queue
// FIFO for their goroutine budget instead of oversubscribing the host.
// A nil *Pool is valid and admits everything immediately.
type Pool = exec.Pool

// NewPool builds a Pool admitting at most maxWorkers concurrently held
// worker slots across all runs that share it (<=0: GOMAXPROCS).
func NewPool(maxWorkers int) *Pool { return exec.NewPool(maxWorkers) }

// Scratch is a pooled arena of engine working state — color buffers,
// bit sets, codecs, forwarding rings and counter shards — keyed by
// (engine, workers, graph size class). Acquire one per serving loop,
// pass it through ColorOptions.Scratch, and Release it when done; see
// AcquireScratch.
type Scratch = coloring.Scratch

// AcquireScratch returns a pooled (or fresh) Scratch for repeated runs
// of engine e at the given worker count on g. The worker count is
// normalized the way the engine itself normalizes it (sequential
// engines pin it to 1, parallel ones default to GOMAXPROCS and cap at
// the vertex count), so the handle matches the run. A Scratch must not
// back two runs concurrently.
func AcquireScratch(e Engine, workers int, g *Graph) *Scratch {
	return coloring.AcquireScratch(e.String(), workers, g.NumVertices())
}

// RunStats is the unified per-run statistics record every engine fills:
// rounds, conflicts found and repaired, the per-worker work split, and
// the gather's memory-path classification. Engines without a subsystem
// leave the corresponding fields zero-valued (see the field docs in
// internal/metrics).
type RunStats = metrics.RunStats

// GatherStats classifies the blocked color-gather's neighbor reads:
// hot-tier hits under v_t, merged same-block reads, cold block loads
// and PUV-pruned tail entries — the software mirror of the paper's
// HDC/MGR/PUV counters.
type GatherStats = metrics.GatherStats

// engineOptions maps the public ColorOptions onto the registry's
// engine-independent option set.
func (opts ColorOptions) engineOptions() coloring.Options {
	return coloring.Options{
		MaxColors:         opts.MaxColors,
		Seed:              opts.Seed,
		Workers:           opts.Workers,
		DisableGather:     opts.DisableGather,
		ForceGather:       opts.ForceGather,
		HotVertices:       opts.HotVertices,
		Shards:            opts.ShardCount,
		PartitionStrategy: opts.PartitionStrategy,
		MaxResidentShards: opts.MaxResidentShards,
		Obs:               opts.Observer,
		Scratch:           opts.Scratch,
		Pool:              opts.Pool,
	}
}

// EngineSharded's partition strategies, as accepted by
// ColorOptions.PartitionStrategy and the CLIs' -partition flag.
const (
	// PartitionRanges partitions by contiguous index ranges.
	PartitionRanges = coloring.PartitionRanges
	// PartitionLabelProp refines the range partition with balanced label
	// propagation to shrink the edge cut.
	PartitionLabelProp = coloring.PartitionLabelProp
)

// ColorContext runs a software coloring engine on g under ctx and returns
// the verified proper coloring together with the engine's run statistics.
// This is the single dispatch path: every engine resolves through the
// registry, so no statistics are ever dropped and cancellation/deadlines
// on ctx abort the run promptly with ctx.Err().
func ColorContext(ctx context.Context, g *Graph, opts ColorOptions) (*Result, RunStats, error) {
	info, ok := coloring.LookupIndex(int(opts.Engine))
	if !ok {
		return nil, RunStats{}, fmt.Errorf("bitcolor: unknown engine %v", opts.Engine)
	}
	res, st, err := info.Run(ctx, g, opts.engineOptions())
	return verified(opts, g, nil, res, st, err)
}

// verified checks a finished run's coloring against g, or against the
// shard file sf of a streamed run, and wraps a failure with the engine's
// name; a run that already failed passes through.
func verified(opts ColorOptions, g *Graph, sf *graph.ShardedFile, res *Result, st RunStats, err error) (*Result, RunStats, error) {
	if err != nil {
		return nil, st, err
	}
	workers := verifyWorkers(opts, st)
	if sf != nil {
		err = coloring.VerifyShardedParallel(sf, res.Colors, workers)
	} else {
		err = coloring.VerifyParallel(g, res.Colors, workers)
	}
	if err != nil {
		return nil, st, fmt.Errorf("bitcolor: engine %v produced an invalid coloring: %w", opts.Engine, err)
	}
	return res, st, nil
}

// verifyWorkers is how many goroutines verify a finished run: the run's
// own worker count, so the check costs one O(E) pass split like the
// engine's. Under a Pool it is one — the calling goroutine — because the
// pool bounds engine workers and its grant is already released.
func verifyWorkers(opts ColorOptions, st RunStats) int {
	if opts.Pool != nil {
		return 1
	}
	return st.Workers
}

// ColorHandle runs a software coloring engine against an opened graph
// handle. It is ColorHandleContext without cancellation.
func ColorHandle(h *GraphHandle, opts ColorOptions) (*Result, RunStats, error) {
	return ColorHandleContext(context.Background(), h, opts)
}

// ColorHandleContext is the handle-aware dispatch: on a BCSR v3 handle
// it reuses the persisted partition for EngineSharded runs (the
// content-hash partition cache — partitioning time drops to zero and
// bitcolor_partition_cache_hits_total counts the hit), and with
// OutOfCore set (or a handle opened via OpenGraphFileOutOfCore) it
// streams a range-partitioned file's shards in index order under the
// bounded-residency executor, verifying the result shard by shard
// without ever materializing the CSR. Handles of every other format run
// exactly as ColorContext.
func ColorHandleContext(ctx context.Context, h *GraphHandle, opts ColorOptions) (*Result, RunStats, error) {
	info, ok := coloring.LookupIndex(int(opts.Engine))
	if !ok {
		return nil, RunStats{}, fmt.Errorf("bitcolor: unknown engine %v", opts.Engine)
	}
	sharded := int(opts.Engine) == int(EngineSharded)
	if opts.OutOfCore || h.OutOfCore() {
		if h.sf == nil {
			return nil, RunStats{}, fmt.Errorf("bitcolor: out-of-core coloring needs a BCSR v3 handle (this one is %s)", h.Format())
		}
		if !sharded {
			return nil, RunStats{}, fmt.Errorf("bitcolor: out-of-core coloring requires EngineSharded, not %v", opts.Engine)
		}
		o := opts.Observer
		if o == nil {
			o = obs.FromContext(ctx)
		}
		eopts := opts.engineOptions()
		eopts.OutOfCore = true
		eopts.ShardFile = h.sf
		// The engine reads adjacency exclusively through the shard file,
		// and the registry sizes the run by its counts: no graph.
		before := h.sf.Stats()
		res, st, err := info.Run(ctx, nil, eopts)
		after := h.sf.Stats()
		o.RecordShardMap(after.Maps-before.Maps, after.Unmaps-before.Unmaps, after.PeakResidentBytes)
		return verified(opts, nil, h.sf, res, st, err)
	}
	g := h.Graph()
	if sharded && h.sf != nil {
		if a, name, ok := cachedPartition(h.sf, &opts); ok {
			o := opts.Observer
			if o == nil {
				o = obs.FromContext(ctx)
			}
			o.RecordPartitionCache(name)
			eopts := opts.engineOptions()
			eopts.Partition = a
			res, st, err := info.Run(ctx, g, eopts)
			return verified(opts, g, nil, res, st, err)
		}
	}
	return ColorContext(ctx, g, opts)
}

// cachedPartition decides whether the handle's persisted assignment can
// stand in for partitioning this run: the requested shard count and
// strategy must match the file (unset values adopt the file's). opts is
// updated in place so the engine sees the effective configuration.
func cachedPartition(sf *graph.ShardedFile, opts *ColorOptions) (*partition.Assignment, string, bool) {
	name, err := partition.StrategyName(sf.Strategy())
	if err != nil {
		return nil, "", false
	}
	switch opts.ShardCount {
	case 0:
		opts.ShardCount = sf.Shards()
	case sf.Shards():
	default:
		return nil, "", false
	}
	switch opts.PartitionStrategy {
	case "":
		opts.PartitionStrategy = name
	case name:
	default:
		return nil, "", false
	}
	return &partition.Assignment{Parts: sf.Parts(), K: sf.Shards()}, name, true
}

// Color runs a software coloring engine on g and returns a verified
// proper coloring. It is ColorContext without cancellation and with the
// statistics dropped; use ColorContext when either matters.
func Color(g *Graph, opts ColorOptions) (*Result, error) {
	res, _, err := ColorContext(context.Background(), g, opts)
	return res, err
}

// Verify checks that colors is a proper coloring of g.
func Verify(g *Graph, colors []uint16) error { return coloring.Verify(g, colors) }

// ImproveOptions configure Improve.
type ImproveOptions struct {
	// IteratedRounds of Culberson iterated greedy (0 skips the phase).
	IteratedRounds int
	// KempePasses of Kempe-chain top-color elimination.
	KempePasses int
	// TabuIters enables a TabuCol color-count reduction with this many
	// moves per attempted k (0 skips the phase).
	TabuIters int
	// Equitable rebalances class sizes after reduction.
	Equitable bool
	// MaxColors bounds the palette (default MaxColorsDefault).
	MaxColors int
	// Seed feeds the randomized phases.
	Seed int64
}

// Improve post-processes a proper coloring without ever increasing its
// color count: iterated greedy re-coloring, Kempe-chain elimination of
// the top color, and optional equitable rebalancing.
func Improve(g *Graph, initial *Result, opts ImproveOptions) (*Result, error) {
	return ImproveContext(context.Background(), g, initial, opts)
}

// ImproveContext is Improve under a context: the iterated-greedy rounds
// poll ctx and a cancelled run returns ctx.Err().
func ImproveContext(ctx context.Context, g *Graph, initial *Result, opts ImproveOptions) (*Result, error) {
	if err := coloring.Verify(g, initial.Colors); err != nil {
		return nil, fmt.Errorf("bitcolor: Improve needs a proper initial coloring: %w", err)
	}
	if opts.MaxColors <= 0 {
		opts.MaxColors = MaxColorsDefault
	}
	cur := initial
	if opts.IteratedRounds > 0 {
		improved, err := coloring.IteratedGreedy(ctx, g, cur, opts.IteratedRounds, opts.Seed, opts.MaxColors)
		if err != nil {
			return nil, err
		}
		cur = improved
	}
	for i := 0; i < opts.KempePasses; i++ {
		next := coloring.KempeReduce(g, cur)
		if next.NumColors == cur.NumColors {
			cur = next
			break
		}
		cur = next
	}
	if opts.TabuIters > 0 {
		cur = coloring.TabuColReduce(g, cur, opts.Seed, opts.TabuIters)
	}
	if opts.Equitable {
		cur = coloring.Equitable(g, cur, 1)
	}
	if err := coloring.Verify(g, cur.Colors); err != nil {
		return nil, fmt.Errorf("bitcolor: Improve produced an invalid coloring: %w", err)
	}
	return cur, nil
}

// DefaultSimConfig is the paper's accelerator configuration with P
// engines (power of two, up to 16 on the U200).
func DefaultSimConfig(parallelism int) SimConfig { return sim.DefaultConfig(parallelism) }

// Simulate runs the BitColor accelerator simulator on g. The graph
// should come from Preprocess; Simulate verifies the result before
// returning it.
func Simulate(g *Graph, cfg SimConfig) (*SimResult, error) { return sim.Run(g, cfg) }

// EstimateResources evaluates the FPGA resource model at the given
// parallelism (Fig 14).
func EstimateResources(parallelism int) (ResourceUsage, error) {
	return resources.DefaultModel().Estimate(parallelism)
}

// SimulateJonesPlassmann runs independent-set coloring on the BitColor
// substrate (same engines, cache and channels; synchronous rounds
// instead of the conflict table) — the §2.4 comparison point. The
// returned result carries round and edge-work counts.
func SimulateJonesPlassmann(g *Graph, cfg SimConfig, seed int64) (*sim.RoundsResult, error) {
	return sim.RunJonesPlassmann(g, cfg, seed)
}

// Dynamic maintains a proper coloring of a growing graph (streaming
// vertex/edge insertion with local repair).
type Dynamic = coloring.DynamicColoring

// NewDynamic starts an empty dynamic coloring with the given palette
// bound (<=0 uses MaxColorsDefault).
func NewDynamic(maxColors int) *Dynamic {
	return coloring.NewDynamicColoring(maxColors)
}

// SimulateBFS runs level-synchronous BFS on the BitColor substrate —
// the generality demonstration of §2.4: the high-degree cache and read
// merging apply to any per-vertex-state traversal, not just coloring.
func SimulateBFS(g *Graph, cfg SimConfig, source VertexID) (*sim.BFSResult, error) {
	return sim.RunBFS(g, cfg, source)
}
