package coloring

import (
	"context"
	"sync/atomic"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
)

// SpeculativeOpts implements Gebremedhin–Manne parallel coloring on the
// host CPU: workers first-fit color pending vertices concurrently while
// reading neighbor colors without synchronization; a detection pass finds
// adjacent equal pairs; the lower-priority vertex of each pair is
// re-queued for the next speculation round. Rounds repeat until
// conflict-free. This is the standard shared-memory algorithm the FPGA
// design competes with on multicore hosts, complementing the
// single-thread Algorithm 1 baseline. ParallelBitwiseOpts is the faster
// formulation (bit-wise Stage 1, in-place repair); this engine keeps the
// classic re-round semantics as the literature baseline.
//
// Work is distributed by the same shared atomic block cursor as
// ParallelBitwiseOpts (exec.BlockCursor) rather than a static per-worker
// chunk split, so a few mega-degree vertices cannot serialize a whole
// round's tail. All buffers (pending/next queues, per-worker color-state
// scratch) are allocated once — or drawn from Options.Scratch — and
// reused across rounds; the per-vertex loop is allocation-free.
//
// With the gather enabled (the default) neighbor colors stream through
// the blocked color-gather, and on edge-sorted graphs the first
// speculation round applies PUV tail-skipping: round 1 colors vertices in
// ascending index order, so a neighbor with a higher index is still
// uncolored in the single-worker schedule and almost always uncolored
// under parallelism — the scan breaks at the first one, and any racing
// exception surfaces as a conflict the detection pass repairs. Later
// rounds re-color sparse pending sets against stable neighbors and must
// see every neighbor, so the prune stays off there.
//
// Cancellation is polled at block-claim granularity inside the
// speculation workers (one ctx.Err() per exec.DispatchBlock vertices —
// off the per-edge hot path) and between rounds. On cancellation the
// engine returns ctx.Err() with no result; all intermediate state is
// private to the call, so nothing shared is poisoned. RunStats.Rounds is
// the round count (1 = no conflicts ever).
func SpeculativeOpts(ctx context.Context, g *graph.CSR, maxColors int, opts Options) (*Result, metrics.RunStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, metrics.RunStats{}, err
	}
	n := g.NumVertices()
	workers := resolveWorkers(opts.Workers, n)
	sc := opts.Scratch
	if !sc.fits("speculative", workers) {
		sc = nil
	}
	// Shared state uses 32-bit words with atomic access: the algorithm
	// is speculative by design (workers read neighbors mid-flight), and
	// atomics keep that well-defined under the Go memory model.
	f := newFrame(opts, sc, n, workers, maxColors, 0)
	f.gather, f.gatherAuto = gatherDecision(g, opts)
	f.blocks = true
	st := metrics.RunStats{Workers: workers}
	if n == 0 {
		f.fold(&st)
		return &Result{}, st, nil
	}
	// esp is the enclosing engine span (nil without an observer); spans
	// are touched only at round boundaries, never in the per-edge loops.
	esp := opts.Span
	shared, useGather := f.shared, f.gather
	puv := useGather && g.EdgesSorted()
	// Round 1 colors everything; later rounds only the conflicted set.
	// pending and next swap roles each round; both are sized once.
	pending := sc.pendingBuf(n)
	for i := range pending {
		pending[i] = graph.VertexID(i)
	}
	next := sc.orderBuf(n)[:0]
	// The detection pass runs on the calling goroutine after the workers
	// join, and counts its conflicts into lane 0's shard; publishing it
	// after each pass keeps /debug/runs' conflict count live.
	detect := f.ws[0].sh
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
		rsp := f.openSweep(esp, st.Rounds, len(pending))
		// Speculation: workers pull blocks of the pending set from the
		// shared cursor, racing on neighbor reads.
		puvRound := puv && st.Rounds == 1
		cur.Reset(len(pending))
		roundErr := exec.Blocks(ctx, workers, &cur, func(w, lo, hi int) error {
			s := f.ws[w]
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
		if roundErr != nil {
			f.endSweep(rsp, roundErr)
			f.fold(&st)
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
					detect.PublishAll()
					f.endSweep(rsp, err)
					f.fold(&st)
					return nil, st, err
				}
			}
			for _, u := range g.Neighbors(v) {
				if shared[u] == shared[v] && u < v {
					next = append(next, v)
					detect.Inc(obs.CtrConflictsFound)
					break
				}
			}
		}
		detect.Add(obs.CtrConflictsRepaired, int64(len(next)))
		detect.PublishAll()
		f.endSweep(rsp, nil)
		pending, next = next, pending
		// Deterministic round composition despite racy block claims:
		// order does not affect the next speculation's outcome
		// distribution, but sorting keeps runs reproducible for tests.
		sortVertexIDs(pending)
	}
	f.fold(&st)
	return f.finish(), st, nil
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
