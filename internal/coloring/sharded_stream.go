package coloring

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
)

// The out-of-core executor is ShardedOpts with the whole-graph CSR
// replaced by a BCSR v3 handle: the partition, boundary totals and
// per-shard sections come from the file, and at most MaxResidentShards
// shard payloads are mapped at any moment. The only whole-graph arrays
// a streamed run holds are the parts vector (resident in the handle
// since open), the shared color array, and the pooled frontier/colors
// buffers — all O(V); the O(E) adjacency streams through the residency
// window. The coloring fixpoint is the same as the in-core engine's
// (phase one colors a vertex only when every lower-indexed neighbor has
// its final color, marks the structural frontier, and phase two
// resolves the frontier under lower-index-wins), so the result is
// byte-identical to the in-core sharded engine — and to sequential
// greedy — at every (shards × residency × workers) combination.

// streamResidency resolves the bounded-residency limit: <=0 means one
// shard at a time, and the limit never exceeds the file's shard count.
func streamResidency(opts Options) int {
	r := opts.MaxResidentShards
	if r <= 0 {
		r = 1
	}
	if opts.ShardFile != nil {
		if k := opts.ShardFile.Shards(); k > 0 && r > k {
			r = k
		}
	}
	return r
}

// shardedStream runs the sharded engine out of core against
// opts.ShardFile. Phase one pulls shards through a window of
// streamResidency concurrent mappings (each colored by opts.Workers
// goroutines over the shard's own vertex list, exactly the in-core
// owner-computes schedule); retired shards are MADV_DONTNEED'd and
// unmapped before the next one maps. Phase two maps only the boundary
// blocks — the frontier vertices' u<v adjacency — so the frontier
// resolution is bounded by the cut, not the graph.
func shardedStream(ctx context.Context, maxColors int, opts Options) (*Result, metrics.ParallelStats, error) {
	sf := opts.ShardFile
	n := sf.NumVertices()
	workers := resolveWorkers(opts.Workers, n)
	shards := sf.Shards()
	resident := streamResidency(opts)
	parts := sf.Parts()
	if len(parts) != n {
		return nil, metrics.ParallelStats{}, fmt.Errorf("coloring: v3 partition covers %d of %d vertices", len(parts), n)
	}
	sc := opts.Scratch
	if !sc.fits("sharded", workers) {
		sc = nil
	}

	// One counter shard, scratch and forwarding ring per (shard, worker)
	// lane, exactly as in-core — the stats fold and /debug/runs mirrors
	// are shape-identical across the two executors.
	flat := shards * workers
	ss := sc.shardSet(flat)
	opts.Run.AttachShards(ss)
	st := metrics.ParallelStats{
		Workers:          workers,
		Shards:           shards,
		BoundaryVertices: sf.Boundary(),
		CutEdges:         sf.CutEdges(),
		ResidentShards:   resident,
	}
	shared := sc.sharedBuf(n)
	sorted := sf.EdgesSorted()
	rings := sc.ringSet(ForwardRingCap)

	esp := opts.Span
	o := opts.Obs
	var obsStart time.Time
	if o != nil {
		obsStart = time.Now()
	}

	var abort atomic.Bool

	ws := make([]*workerScratch, flat)
	for i := range ws {
		s := sc.workerAt(i, maxColors)
		s.sh = ss.Shard(i)
		s.ring = rings.Ring(i)
		ws[i] = s
	}

	var (
		clock     func() int64
		onForward func(parkedAt int64)
	)
	if o != nil {
		clock = func() int64 { return int64(time.Since(obsStart)) }
		onForward = func(parkedAt int64) {
			o.ObserveForwardWait(float64(int64(time.Since(obsStart))-parkedAt) / 1e9)
		}
	}

	// attemptInterior is the in-core interior attempt reading adjacency
	// through the shard mapping instead of the CSR (and without the
	// blocked gather, which is a read-caching layer, not a semantic one).
	// The scan still never stops early at a pending or marked neighbor —
	// a later cross-shard neighbor must win, or CrossShardDefers would
	// depend on timing.
	attemptInterior := func(s *workerScratch, sm *graph.ShardMap, pv int32, v graph.VertexID) (graph.VertexID, exec.Outcome) {
		s.state.Reset()
		li, _ := sm.LocalIndex(v) // v comes from sm.VMap, so it resolves
		adj := sm.Neighbors(li)
		var firstPending graph.VertexID
		pending, cascade := false, false
		for _, u := range adj {
			if u > v {
				if !sorted {
					continue
				}
				break
			}
			if parts[u] != pv {
				atomic.StoreUint32(&shared[v], shardMark)
				s.sh.Inc(obs.CtrCrossDefers)
				return 0, exec.Handed
			}
			switch c := atomic.LoadUint32(&shared[u]); c {
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

	// Interior phase: `resident` runner goroutines pull shard indices
	// from a shared cursor; each maps its shard, colors it with the full
	// worker complement, and retires the mapping before claiming the
	// next. The runner count — not the shard count — bounds concurrent
	// mappings, which is the whole residency invariant.
	flatDur := sc.durBuf(0, flat)
	if flatDur == nil {
		flatDur = make([]time.Duration, flat)
	}
	var nextShard atomic.Int64
	mapErrs := make([]error, resident)
	exec.Go(resident, func(runner int) {
		for {
			if abort.Load() || ctx.Err() != nil {
				return
			}
			shard := int(nextShard.Add(1)) - 1
			if shard >= shards {
				return
			}
			sm, err := sf.MapShard(shard)
			if err != nil {
				mapErrs[runner] = err
				abort.Store(true)
				return
			}
			pv := int32(shard)
			shardStart := time.Now()
			exec.Go(workers, func(w int) {
				idx := shard*workers + w
				defer func() { flatDur[idx] = time.Since(shardStart) }()
				s := ws[idx]
				loop := exec.OwnerLoop{
					Ctx:   ctx,
					Abort: &abort,
					Ring:  s.ring,
					Shard: s.sh,
					Attempt: func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
						return attemptInterior(s, sm, pv, v)
					},
					// A mark is progress too: the awaited vertex went to
					// the frontier, and the replay cascades the parked
					// vertex after it instead of waiting forever.
					Published: func(u uint32) bool { return atomic.LoadUint32(&shared[u]) != 0 },
					FailErr:   ErrPaletteExhausted,
					Clock:     clock,
					OnForward: onForward,
				}
				s.err = loop.RunList(sm.VMap, w, workers)
			})
			sm.Close()
		}
	})

	foldStats := func() {
		st.VerticesPerWorker = ss.PerWorkerInto(obs.CtrVertices, sc.perWorkerBuf(0, flat))
		st.Deferred = ss.Total(obs.CtrDeferred)
		st.DeferRetries = ss.Total(obs.CtrDeferRetries)
		st.SpinWaits = ss.Total(obs.CtrSpinWaits)
		st.CrossShardDefers = ss.Total(obs.CtrCrossDefers)
		st.ForwardRingPeak = rings.Peak()
		st.PeakMappedBytes = sf.Stats().PeakResidentBytes
	}

	st.ShardVertices = sc.perWorkerBuf(2, shards)
	if st.ShardVertices == nil {
		st.ShardVertices = make([]int64, shards)
	} else {
		clear(st.ShardVertices)
	}
	st.ShardDurations = sc.durBuf(1, shards)
	if st.ShardDurations == nil {
		st.ShardDurations = make([]time.Duration, shards)
	}
	for shard := 0; shard < shards; shard++ {
		for w := 0; w < workers; w++ {
			st.ShardVertices[shard] += ss.Shard(shard*workers + w).Get(obs.CtrVertices)
			if d := flatDur[shard*workers+w]; d > st.ShardDurations[shard] {
				st.ShardDurations[shard] = d
			}
		}
	}

	for _, err := range mapErrs {
		if err != nil {
			foldStats()
			return nil, st, err
		}
	}
	for _, s := range ws {
		if s.err != nil {
			foldStats()
			return nil, st, s.err
		}
	}
	if err := ctx.Err(); err != nil {
		foldStats()
		return nil, st, err
	}

	// The barrier: every vertex is now colored or marked. Collect the
	// frontier in ascending index order — membership is structural, so
	// this list (and its size) is identical across timings and matches
	// the persisted boundary blocks exactly.
	frontier := sc.pendingBuf(n)[:0]
	for v := range shared {
		if shared[v] == shardMark {
			frontier = append(frontier, graph.VertexID(v))
		}
	}
	st.FrontierVertices = len(frontier)

	// Frontier phase: the boundary blocks hold each frontier vertex's
	// u<v adjacency — the exact subsequence the in-core attempt walks —
	// so resolving the frontier maps only the cut, never a full shard.
	if len(frontier) > 0 {
		bms := make([]*graph.BoundaryMap, shards)
		closeBms := func() {
			for _, bm := range bms {
				if bm != nil {
					bm.Close()
				}
			}
		}
		for k := 0; k < shards; k++ {
			bm, err := sf.MapBoundary(k)
			if err != nil {
				closeBms()
				foldStats()
				return nil, st, err
			}
			bms[k] = bm
		}
		// Every runtime frontier vertex must appear in its shard's
		// persisted boundary block; a CRC-consistent file that lies about
		// the frontier is caught here rather than by a nil adjacency.
		for _, v := range frontier {
			if _, ok := bms[parts[v]].Find(v); !ok {
				closeBms()
				foldStats()
				return nil, st, fmt.Errorf("coloring: v3 boundary block of shard %d is missing frontier vertex %d (corrupt file)", parts[v], v)
			}
		}
		fw := min(workers, len(frontier))
		attemptFrontier := func(s *workerScratch, v graph.VertexID) (graph.VertexID, exec.Outcome) {
			s.state.Reset()
			bm := bms[parts[v]]
			i, _ := bm.Find(v) // prechecked above
			for _, u := range bm.Neighbors(i) {
				c := atomic.LoadUint32(&shared[u])
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
			s := ws[w] // reuses the flat scratch + ring, both drained
			loop := exec.OwnerLoop{
				Ctx:   ctx,
				Abort: &abort,
				Ring:  s.ring,
				Shard: s.sh,
				Attempt: func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
					return attemptFrontier(s, v)
				},
				// A zero color is impossible on the frontier, so
				// "published" tests against the mark sentinel instead.
				Published: func(u uint32) bool { return atomic.LoadUint32(&shared[u]) != shardMark },
				FailErr:   ErrPaletteExhausted,
				Clock:     clock,
				OnForward: onForward,
			}
			s.err = loop.RunList(frontier, w, fw)
		})
		closeBms()
	}

	foldStats()
	for _, s := range ws {
		if s.err != nil {
			return nil, st, s.err
		}
	}
	st.Rounds = 1
	opts.Run.SetRound(1)
	esp.Child("round").Attr("round", 1).Attr("pending", int64(n)).
		Attr("conflicts_found", int64(0)).Attr("recolored", int64(0)).
		Attr("deferred", st.Deferred).Attr("ring_peak", int64(st.ForwardRingPeak)).
		Attr("shards", int64(shards)).Attr("frontier", int64(st.FrontierVertices)).
		Attr("cross_shard_defers", st.CrossShardDefers).
		Attr("cut_edges", st.CutEdges).
		Attr("resident_shards", int64(resident)).End()

	colors := sc.colorsBuf(n)
	for i, c := range shared {
		colors[i] = uint16(c)
	}
	return sc.result(colors, sc.distinctColors(colors), OpStats{}), st, nil
}
