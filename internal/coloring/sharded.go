package coloring

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
	"bitcolor/internal/partition"
)

// ShardedOpts is the host rendering of the paper's multi-card scale-out:
// the graph is partitioned into `shards` parts (the per-FPGA subgraphs),
// every shard colors its *interior* concurrently with the proven DCT
// owner-computes loop over its own vertex list, and the vertices whose
// coloring depends on another shard — the boundary frontier — are
// resolved in one bounded second phase using the same lower-index-wins
// engine.Defers orientation. Cross-shard edges therefore never force a
// global round barrier: there is exactly one barrier in the whole run,
// between the interior and frontier phases.
//
// Phase one publishes a mark sentinel instead of a color for any vertex
// that cannot be finished shard-locally: a vertex with a lower-indexed
// neighbor in another shard is marked outright (the structural cross
// cause), and a vertex whose lower-indexed in-shard neighbor was marked
// cascades onto the frontier behind it. A vertex is colored in phase one
// only when *every* lower-indexed neighbor already has its final color,
// and phase two colors the frontier in ascending index order under the
// same rule — so the fixpoint is unique and the result is byte-identical
// to sequential greedy at every (shards × workers) combination. Frontier
// membership is structural (cross-shard adjacency plus its in-shard
// cascade), not a race outcome, so RunStats.FrontierVertices and
// CrossShardDefers are deterministic too.
//
// Within phase one, shards are fully independent: a worker never reads a
// cross-shard color (the parts test precedes the load), so the only
// cross-shard communication in the whole engine is the frontier phase
// reading colors the barrier already ordered.
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

// shardMark is the "deferred to the boundary frontier" sentinel in the
// shared color array. Real colors are uint16 (≤ 65535), so the sentinel
// can never collide; like a real color it is non-zero, so the DCT-style
// "published" checks (shared[u] != 0) treat a mark as progress and no
// phase-one wait can hang on a vertex that went to the frontier.
const shardMark = ^uint32(0)

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
	cl := partition.Classify(g, a)
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
	}
	shared, sorted, useGather := f.shared, g.EdgesSorted(), f.gather
	run := newOwnerRun(ctx, opts.Obs, shared)

	// attemptInterior colors v when every lower-indexed neighbor already
	// has its final color, marks it onto the frontier when a lower
	// neighbor is cross-shard (checked structurally, before any load, so
	// shards never read each other's colors) or in-shard but marked, and
	// defers on the first still-pending in-shard neighbor otherwise. The
	// scan never stops early at a pending or marked neighbor — a later
	// cross-shard neighbor must still win, or CrossShardDefers would
	// depend on timing.
	attemptInterior := func(s *workerScratch, v graph.VertexID, pv int32) (graph.VertexID, exec.Outcome) {
		s.state.Reset()
		adj := g.Neighbors(v)
		var firstPending graph.VertexID
		pending, cascade := false, false
		for i, u := range adj {
			if u > v {
				if !sorted {
					continue
				}
				if useGather {
					s.sh.Add(obs.CtrPrunedTail, int64(len(adj)-i))
				}
				break
			}
			if parts[u] != pv {
				atomic.StoreUint32(&shared[v], shardMark)
				s.sh.Inc(obs.CtrCrossDefers)
				return 0, exec.Handed
			}
			var c uint32
			if useGather {
				c = s.ga.load(u)
			} else {
				c = atomic.LoadUint32(&shared[u])
			}
			switch c {
			case shardMark:
				cascade = true
			case 0:
				if !pending {
					firstPending, pending = u, true
				}
			default:
				s.state.OrColorNum(c)
			}
		}
		if cascade {
			atomic.StoreUint32(&shared[v], shardMark)
			return 0, exec.Handed
		}
		if pending {
			return firstPending, exec.Deferred
		}
		pick, _ := s.codec.FirstFree(s.state)
		if pick == 0 {
			return 0, exec.Failed
		}
		atomic.StoreUint32(&shared[v], uint32(pick))
		s.sh.Inc(obs.CtrVertices)
		return 0, exec.Colored
	}

	// Interior phase: shards × workers goroutines; goroutine (s, w) owns
	// positions w, w+P, … of shard s's ascending vertices — the DCT
	// owner-computes schedule applied per shard. A mark is progress too
	// (it is nonzero): the awaited vertex went to the frontier, and the
	// replay cascades the parked vertex after it instead of waiting
	// forever.
	phaseStart := time.Now()
	laneDur := f.laneDurs()
	exec.Go(flat, func(idx int) {
		defer func() { laneDur[idx] = time.Since(phaseStart) }()
		shard, w := idx/workers, idx%workers
		pv := int32(shard)
		s := f.ws[idx]
		loop := run.loop(s, func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
			return attemptInterior(s, v, pv)
		})
		if ranged {
			lo, _ := slices.BinarySearch(parts, pv)
			hi, _ := slices.BinarySearch(parts, pv+1)
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

	// The barrier: every vertex is now colored or marked. Collect the
	// frontier in ascending index order — membership is structural, so
	// this list (and its size) is identical across timings. Without a
	// Scratch the list grows by appending rather than reserving n
	// entries for what is usually a small share of the graph.
	var frontier []graph.VertexID
	if sc != nil {
		frontier = sc.pendingBuf(n)[:0]
	}
	for v := range shared {
		if shared[v] == shardMark {
			frontier = append(frontier, graph.VertexID(v))
		}
	}
	st.FrontierVertices = len(frontier)

	// Frontier phase: the DCT loop over the frontier list with the mark
	// standing in for "pending". A zero color is impossible here, so the
	// wait conditions test against the sentinel instead.
	if len(frontier) > 0 {
		fw := min(workers, len(frontier))
		attemptFrontier := func(s *workerScratch, v graph.VertexID) (graph.VertexID, exec.Outcome) {
			s.state.Reset()
			adj := g.Neighbors(v)
			for i, u := range adj {
				if u > v {
					if !sorted {
						continue
					}
					if useGather {
						s.sh.Add(obs.CtrPrunedTail, int64(len(adj)-i))
					}
					break
				}
				var c uint32
				if useGather {
					c = s.ga.load(u)
				} else {
					c = atomic.LoadUint32(&shared[u])
				}
				if c == shardMark {
					return u, exec.Deferred
				}
				s.state.OrColorNum(c)
			}
			pick, _ := s.codec.FirstFree(s.state)
			if pick == 0 {
				return 0, exec.Failed
			}
			atomic.StoreUint32(&shared[v], uint32(pick))
			s.sh.Inc(obs.CtrVertices)
			return 0, exec.Colored
		}
		exec.Go(fw, func(w int) {
			s := f.ws[w] // reuses the lane's scratch and ring, both drained
			loop := run.loop(s, func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
				return attemptFrontier(s, v)
			})
			loop.Published = func(u uint32) bool { return atomic.LoadUint32(&shared[u]) != shardMark }
			s.err = loop.RunList(frontier, w, fw)
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
