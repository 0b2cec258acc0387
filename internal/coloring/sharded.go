package coloring

import (
	"context"
	"fmt"
	"slices"
	"time"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/partition"
)

// ShardedOpts is the host rendering of the paper's multi-card scale-out:
// the graph is partitioned into `shards` parts (the per-FPGA subgraphs),
// every shard colors its *interior* concurrently with the DCT
// owner-computes loop over its own vertex list, and the vertices whose
// coloring depends on another shard — the boundary frontier — are
// colored in one bounded second phase by the same loop. Cross-shard
// edges therefore never force a global round barrier: there is exactly
// one barrier in the whole run, between the interior and frontier
// phases.
//
// The frontier is a property of the graph and the partition, found by
// partition.ClassifyInto in the sweep that counts the cut: a vertex joins
// it when a lower-indexed neighbor lies in another shard (the cross
// cause RunStats.CrossShardDefers counts) or is on the frontier itself
// (the in-shard cascade). So every lower-indexed neighbor of an interior
// vertex is an interior vertex of its own shard, and both phases run
// DCT's attempt kernel unchanged: the interior lanes hand frontier
// vertices to the second phase and never read another shard's colors,
// and the frontier phase colors the frontier in ascending index order
// after the barrier has finished every interior color. A vertex is
// colored only when every lower-indexed neighbor has its final color,
// so the result is byte-identical to sequential greedy at every
// (shards × workers) combination.
const (
	// PartitionRanges selects contiguous index-range partitioning (the
	// zero-cost default, what a naive multi-card deployment gets).
	PartitionRanges = "ranges"
	// PartitionLabelProp selects the balanced label-propagation
	// refinement, trading a preprocessing sweep for a smaller edge cut.
	PartitionLabelProp = "labelprop"
)

// Label-propagation parameters of the sharded engine: enough sweeps to
// converge on the Table 3 stand-ins, with the balance slack the
// partition tests established.
const (
	shardLabelPropRounds = 10
	shardLabelPropSlack  = 0.15
)

// BuildPartition builds the sharded engine's partition for a graph
// without running it — the entry the BCSR v3 writer uses so a persisted
// assignment matches what ShardedOpts would have computed for the same
// (shards, strategy). Shards are clamped exactly as ShardedOpts clamps
// them.
func BuildPartition(g *graph.CSR, shards int, strategy string) (*partition.Assignment, error) {
	n := g.NumVertices()
	if shards <= 0 {
		shards = 1
	}
	if n > 0 && shards > n {
		shards = n
	}
	return shardedPartition(g, shards, strategy, nil)
}

// shardedPartition resolves the partition strategy and builds the
// assignment, reusing the Scratch's parts buffer when one backs the run.
func shardedPartition(g *graph.CSR, shards int, strategy string, sc *Scratch) (*partition.Assignment, error) {
	parts := sc.partsBuf(g.NumVertices())
	switch strategy {
	case "", PartitionRanges:
		return partition.RangesInto(g, shards, parts)
	case PartitionLabelProp:
		return partition.LabelPropagationInto(g, shards, shardLabelPropRounds, shardLabelPropSlack, parts)
	}
	return nil, fmt.Errorf("coloring: unknown partition strategy %q (have %q, %q)",
		strategy, PartitionRanges, PartitionLabelProp)
}

// ShardedOpts runs the sharded engine: opts.Shards parts (<=1 degenerates
// to the plain DCT path, so the sharding layer costs the single-shard
// case nothing), opts.Workers goroutines per shard in the interior phase
// and the same worker count over the frontier. With OutOfCore and a
// ShardFile it streams the file's range shards instead (shardedStream)
// and ignores g, which may be nil. Cancellation, palette exhaustion and
// scratch reuse follow the DCT engine's contract.
func ShardedOpts(ctx context.Context, g *graph.CSR, maxColors int, opts Options) (*Result, metrics.RunStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, metrics.RunStats{}, err
	}
	if opts.streamed() {
		return shardedStream(ctx, maxColors, opts)
	}
	n := g.NumVertices()
	workers := resolveWorkers(opts.Workers, n)
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	if n > 0 && shards > n {
		shards = n
	}
	sc := opts.Scratch
	if !sc.fits("sharded", workers) {
		sc = nil
	}
	if shards <= 1 || n == 0 {
		// One shard has no boundary: the interior phase *is* the whole
		// run, and running it through dctRun keeps the single-shard path
		// exactly as fast (and, at one worker, exactly as allocation-free)
		// as EngineDCT — the benchguard pins this.
		start := time.Now()
		res, st, err := dctRun(ctx, g, maxColors, opts, sc, workers)
		st.Shards = 1
		verts, durs := sc.perWorkerBuf(2, 1), sc.durBuf(1, 1)
		if verts == nil {
			verts, durs = make([]int64, 1), make([]time.Duration, 1)
		}
		verts[0], durs[0] = st.TotalVertices(), time.Since(start)
		st.ShardVertices, st.ShardDurations = verts, durs
		return res, st, err
	}

	// A precomputed assignment (the BCSR v3 partition-cache path) replaces
	// the partitioning sweep when it matches this run's shape; anything
	// else falls through to partitioning as usual.
	a := opts.Partition
	if a == nil || a.K != shards || len(a.Parts) != n {
		var err error
		a, err = shardedPartition(g, shards, opts.PartitionStrategy, sc)
		if err != nil {
			return nil, metrics.RunStats{}, err
		}
	}
	parts := a.Parts
	frontier, onFrontier := sc.frontierBufs(n)
	cl := partition.ClassifyInto(g, a, frontier, onFrontier)
	// Range shards (a nondecreasing parts vector) are ID ranges, walked
	// by RunRange; any other partition needs its ascending vertex lists.
	ranged := slices.IsSorted(parts)
	var lists [][]graph.VertexID
	if !ranged {
		lists = graph.VertexLists(parts, a.K, sc.orderBuf(n))
	}

	// One lane per interior goroutine: shards × workers of them. The
	// interior and frontier OwnerLoops refresh their live mirrors at the
	// poll checkpoints, so /debug/runs sees per-lane progress across all
	// shards × workers.
	flat := shards * workers
	f := newFrame(opts, sc, n, flat, maxColors, ForwardRingCap)
	f.gather, f.gatherAuto = gatherDecision(g, opts)
	st := metrics.RunStats{
		Workers:          workers,
		Shards:           shards,
		BoundaryVertices: cl.Boundary,
		CutEdges:         cl.CutEdges,
		CrossShardDefers: cl.CrossDefers,
		FrontierVertices: len(cl.Frontier),
	}
	shared, sorted, tally := f.shared, g.EdgesSorted(), f.gather
	run := newOwnerRun(ctx, opts.Obs, shared)

	// Interior phase: shards × workers goroutines; goroutine (s, w) owns
	// positions w, w+P, … of shard s's ascending vertices — the DCT
	// owner-computes schedule applied per shard — and hands its frontier
	// vertices to the second phase.
	phaseStart := time.Now()
	laneDur := f.laneDurs()
	exec.Go(flat, func(idx int) {
		defer func() { laneDur[idx] = time.Since(phaseStart) }()
		shard, w := idx/workers, idx%workers
		s := f.ws[idx]
		loop := run.loop(s, func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
			if cl.OnFrontier(v) {
				return 0, exec.Handed
			}
			return dctAttempt(s, shared, v, g.Neighbors(v), sorted, tally)
		})
		if ranged {
			lo, _ := slices.BinarySearch(parts, int32(shard))
			hi, _ := slices.BinarySearch(parts, int32(shard+1))
			s.err = loop.RunRange(lo+w, workers, hi)
		} else {
			s.err = loop.RunList(lists[shard], w, workers)
		}
	})

	// Interior vertex counts are folded per shard before the frontier
	// phase reuses the low lanes.
	f.foldShards(&st, laneDur, shards, workers)
	if err := f.err(); err != nil {
		f.fold(&st)
		return nil, st, err
	}

	// Frontier phase, after the barrier: the DCT loop over the frontier
	// in ascending index order. Every interior color is final, so a wait
	// can only be on a lower frontier vertex.
	if fw := min(workers, len(cl.Frontier)); fw > 0 {
		exec.Go(fw, func(w int) {
			s := f.ws[w] // reuses the lane's scratch and ring, both drained
			loop := run.loop(s, func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
				return dctAttempt(s, shared, v, g.Neighbors(v), sorted, tally)
			})
			s.err = loop.RunList(cl.Frontier, w, fw)
		})
	}

	f.fold(&st)
	if err := f.err(); err != nil {
		return nil, st, err
	}
	// One interior pass plus its bounded frontier resolution form the
	// engine's single round, mirroring the DCT round-span convention.
	if rsp := oneRound(opts, n, &st); rsp != nil {
		rsp.Attr("shards", int64(shards)).Attr("frontier", int64(st.FrontierVertices)).
			Attr("cross_shard_defers", st.CrossShardDefers).
			Attr("cut_edges", st.CutEdges).End()
	}
	return f.finish(), st, nil
}
