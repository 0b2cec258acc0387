package coloring

import (
	"context"
	"runtime"
	"sync/atomic"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
)

// Speculative implements Gebremedhin–Manne parallel coloring on the host
// CPU: workers first-fit color pending vertices concurrently while
// reading neighbor colors without synchronization; a detection pass finds
// adjacent equal pairs; the lower-priority vertex of each pair is
// re-queued for the next speculation round. Rounds repeat until
// conflict-free. This is the standard shared-memory algorithm the FPGA
// design competes with on multicore hosts, complementing the
// single-thread Algorithm 1 baseline. ParallelBitwise is the faster
// formulation (bit-wise Stage 1, in-place repair); Speculative keeps the
// classic re-round semantics as the literature baseline.
//
// Work is distributed by the same shared atomic block cursor as
// ParallelBitwise (exec.BlockCursor) rather than a static per-worker
// chunk split, so a few mega-degree vertices cannot serialize a whole
// round's tail. All buffers (pending/next queues, per-worker color-state
// scratch) are allocated once — or drawn from Options.Scratch — and
// reused across rounds; the per-vertex loop is allocation-free.
//
// Returns the result and the number of rounds (1 = no conflicts ever).
func Speculative(ctx context.Context, g *graph.CSR, maxColors int, workers int) (*Result, int, error) {
	res, st, err := SpeculativeStats(ctx, g, maxColors, workers)
	return res, st.Rounds, err
}

// SpeculativeStats is Speculative returning the full parallel-run
// statistics (rounds, conflicts found/re-queued, vertices per worker).
func SpeculativeStats(ctx context.Context, g *graph.CSR, maxColors int, workers int) (*Result, metrics.RunStats, error) {
	return SpeculativeOpts(ctx, g, maxColors, Options{MaxColors: maxColors, Workers: workers})
}

// SpeculativeOpts is Speculative with the full option set. With the
// gather enabled (the default) neighbor colors stream through the blocked
// color-gather, and on edge-sorted graphs the first speculation round
// applies PUV tail-skipping: round 1 colors vertices in ascending index
// order, so a neighbor with a higher index is still uncolored in the
// single-worker schedule and almost always uncolored under parallelism —
// the scan breaks at the first one, and any racing exception surfaces as
// a conflict the detection pass repairs. Later rounds re-color sparse
// pending sets against stable neighbors and must see every neighbor, so
// the prune stays off there.
//
// Cancellation is polled at block-claim granularity inside the
// speculation workers (one ctx.Err() per exec.DispatchBlock vertices —
// off the per-edge hot path) and between rounds. On cancellation the
// engine returns ctx.Err() with no result; all intermediate state is
// private to the call, so nothing shared is poisoned.
func SpeculativeOpts(ctx context.Context, g *graph.CSR, maxColors int, opts Options) (*Result, metrics.RunStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, metrics.RunStats{}, err
	}
	n := g.NumVertices()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}
	sc := opts.Scratch
	if !sc.fits("speculative", workers) {
		sc = nil
	}
	// Per-worker hot-path counters live in cache-line-padded shards; the
	// fold into RunStats happens after the worker goroutines join.
	// Handing them to the run record arms their atomic live mirrors so
	// /debug/runs can read mid-run progress (nil-safe no-op otherwise).
	ss := sc.shardSet(workers)
	opts.Run.AttachShards(ss)
	st := metrics.RunStats{Workers: workers}
	useGather, gatherAuto := gatherDecision(g, opts)
	foldStats := func() {
		st.VerticesPerWorker = ss.PerWorkerInto(obs.CtrVertices, sc.perWorkerBuf(0, workers))
		st.BlocksPerWorker = ss.PerWorkerInto(obs.CtrBlocks, sc.perWorkerBuf(1, workers))
		st.Gather = metrics.GatherStats{
			HotReads:       ss.Total(obs.CtrHotReads),
			MergedReads:    ss.Total(obs.CtrMergedReads),
			ColdBlockLoads: ss.Total(obs.CtrColdBlockLoads),
			PrunedTail:     ss.Total(obs.CtrPrunedTail),
			AutoDisabled:   gatherAuto,
		}
	}
	if n == 0 {
		foldStats()
		return &Result{Colors: nil, NumColors: 0}, st, nil
	}
	// esp is the enclosing engine span (nil without an observer); spans
	// are touched only at round boundaries, never in the per-edge loops.
	esp := opts.Span
	puv := useGather && g.EdgesSorted()
	// Shared state uses 32-bit words with atomic access: the algorithm
	// is speculative by design (workers read neighbors mid-flight), and
	// atomics keep that well-defined under the Go memory model.
	shared := sc.sharedBuf(n)
	// Round 1 colors everything; later rounds only the conflicted set.
	// pending and next swap roles each round; both are sized once.
	pending := sc.pendingBuf(n)
	for i := range pending {
		pending[i] = graph.VertexID(i)
	}
	next := sc.orderBuf(n)[:0]
	// Per-worker scratch (one color-state BitSet + codec + gather view
	// each), pooled across runs when a Scratch backs the call.
	ws := make([]*workerScratch, workers)
	for w := range ws {
		s := sc.workerAt(w, maxColors)
		sh := ss.Shard(w)
		s.sh = sh
		s.ga.init(shared, opts.HotVertices, sh)
		ws[w] = s
	}
	if useGather {
		st.HotThreshold = ws[0].ga.vt
	}
	var cur exec.BlockCursor
	for len(pending) > 0 {
		st.Rounds++
		opts.Run.SetRound(st.Rounds)
		if st.Rounds > n+1 {
			// Each round permanently finalizes at least the highest-
			// priority pending vertex, so this cannot trigger; it guards
			// the loop against future regressions.
			panic("coloring: speculative coloring failed to converge")
		}
		// Round telemetry: snapshot/delta work runs only with a live
		// observer; rounds under a nil observer skip it entirely.
		var (
			rsp             *obs.Span
			blocksBefore    []int64
			conflictsBefore int64
		)
		if esp != nil {
			blocksBefore = ss.PerWorker(obs.CtrBlocks)
			conflictsBefore = st.ConflictsFound
			rsp = esp.Child("round").Attr("round", int64(st.Rounds)).
				Attr("pending", int64(len(pending)))
		}
		// Speculation: workers pull blocks of the pending set from the
		// shared cursor, racing on neighbor reads.
		puvRound := puv && st.Rounds == 1
		cur.Reset(len(pending))
		roundErr := exec.Blocks(ctx, workers, &cur, func(w, lo, hi int) error {
			s := ws[w]
			s.sh.Inc(obs.CtrBlocks)
			s.sh.Add(obs.CtrVertices, int64(hi-lo))
			for _, v := range pending[lo:hi] {
				s.state.Reset()
				adj := g.Neighbors(v)
				switch {
				case puvRound:
					// Round 1, sorted adjacency: break at the start
					// of the still-uncolored tail (PUV).
					for i, u := range adj {
						if u > v {
							s.sh.Add(obs.CtrPrunedTail, int64(len(adj)-i))
							break
						}
						s.state.OrColorNum(s.ga.load(u))
					}
				case useGather:
					for _, u := range adj {
						s.state.OrColorNum(s.ga.load(u))
					}
				default:
					for _, u := range adj {
						s.codec.Decompress(uint16(atomic.LoadUint32(&shared[u])), s.state)
					}
				}
				pick, _ := s.codec.FirstFree(s.state)
				if pick == 0 {
					return ErrPaletteExhausted
				}
				atomic.StoreUint32(&shared[v], uint32(pick))
			}
			s.sh.PublishAll() // live-progress checkpoint, once per block
			return nil
		})
		// endRound closes the round span with this round's outcomes and
		// dispatch split; abort marks a cancelled round.
		endRound := func(abort bool) {
			if rsp == nil {
				return
			}
			claims := ss.PerWorker(obs.CtrBlocks)
			var total, steals int64
			for w := range claims {
				claims[w] -= blocksBefore[w]
				total += claims[w]
			}
			fair := (total + int64(workers) - 1) / int64(workers)
			for _, b := range claims {
				if b > fair {
					steals += b - fair
				}
			}
			rsp.Attr("conflicts_found", st.ConflictsFound-conflictsBefore).
				Attr("blocks_per_worker", claims).
				Attr("steals", steals)
			if abort {
				rsp.Attr("cancelled", true)
			} else {
				rsp.Attr("recolored", int64(len(next)))
			}
			rsp.End()
		}
		if roundErr != nil {
			endRound(true)
			foldStats()
			return nil, st, roundErr
		}
		// Detection: the smaller-indexed endpoint of an equal-colored
		// edge keeps its color, the larger re-queues. pending holds each
		// vertex at most once, so appending losers in iteration order
		// cannot duplicate.
		next = next[:0]
		for i, v := range pending {
			if i&ctxStrideMask == 0 {
				if err := ctx.Err(); err != nil {
					endRound(true)
					foldStats()
					return nil, st, err
				}
			}
			for _, u := range g.Neighbors(v) {
				if shared[u] == shared[v] && u < v {
					next = append(next, v)
					st.ConflictsFound++
					break
				}
			}
		}
		st.ConflictsRepaired += int64(len(next))
		endRound(false)
		pending, next = next, pending
		// Deterministic round composition despite racy block claims:
		// order does not affect the next speculation's outcome
		// distribution, but sorting keeps runs reproducible for tests.
		sortVertexIDs(pending)
	}
	foldStats()
	colors := sc.colorsBuf(n)
	for i, c := range shared {
		colors[i] = uint16(c)
	}
	return sc.result(colors, sc.distinctColors(colors), OpStats{}), st, nil
}

// sortVertexIDs is a small insertion/shell sort to avoid pulling sort
// for a hot-loop-free path.
func sortVertexIDs(a []graph.VertexID) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			for j := i; j >= gap && a[j-gap] > a[j]; j -= gap {
				a[j-gap], a[j] = a[j], a[j-gap]
			}
		}
	}
}
