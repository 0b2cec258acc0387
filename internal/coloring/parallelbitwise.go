package coloring

import (
	"context"
	"sort"
	"sync/atomic"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
)

// ParallelBitwiseOpts fuses the paper's bit-wise color-state determination
// (Algorithm 2: first free color = (^state)&(state+1) over a BitSet) into
// a speculative shared-memory parallel framework — the fastest host-side
// formulation this repo implements, and the multicore reference number
// the accelerator's speedup claims are measured against.
//
// Three design points distinguish it from SpeculativeOpts (classic
// Gebremedhin–Manne with a flag-array scan):
//
//   - Bit-wise Stage 1. Each worker keeps one reusable BitSet as its
//     color-state register; the forbidden set accumulates by Bit-OR over
//     neighbor colors and the first free color falls out of one
//     (^state)&(state+1) per 64-bit word instead of an O(colors) scan.
//
//   - Degree-aware dynamic dispatch. Vertices are processed in
//     descending-degree order (the software mirror of the paper's per-PE
//     HDV FIFOs) and workers claim fixed-size index blocks from a shared
//     atomic cursor. Mega-degree vertices at the head get spread across
//     whoever is free, so a handful of hubs cannot serialize a static
//     chunk's tail — the load imbalance that hurts classic GM on the
//     power-law datasets of Table 3.
//
//   - Rokos-style in-place repair. The detection sweep re-colors the
//     losing endpoint of an equal-colored edge immediately (reading live
//     neighbor colors) instead of queueing a full re-speculation round,
//     so each sweep both finds and fixes conflicts ("detect and recolor
//     in place"; Rokos et al., and the optimistic bit-set variant of
//     Taş & Kaya's "Greed is Good").
//
// The steady-state loops are allocation-free: all scratch (bit sets,
// pending buffers, per-worker repair queues, the pending-epoch array) is
// allocated once up front and reused across sweeps.
//
// Options supply the worker count, the blocked color-gather toggle (on by
// default — the paper's MGR+HDC memory path in software) and the hot-tier
// threshold. On a DBG-reordered, edge-sorted graph the gather
// additionally applies PUV tail-skipping during speculation: adjacency is
// sorted ascending and processing order is the vertex index, so the first
// neighbor index above the current vertex starts the still-uncolored tail
// and the scan stops there. Repair sweeps always see every neighbor.
//
// Cancellation is polled at block-claim granularity (one ctx.Err() per
// exec.DispatchBlock vertices — the per-edge hot path never sees it) and at
// sweep boundaries; on cancellation the call returns ctx.Err() and no
// result. All mutable state is private to the call, so an abandoned run
// poisons nothing.
func ParallelBitwiseOpts(ctx context.Context, g *graph.CSR, maxColors int, opts Options) (*Result, metrics.RunStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, metrics.RunStats{}, err
	}
	n := g.NumVertices()
	workers := resolveWorkers(opts.Workers, n)
	sc := opts.Scratch
	if !sc.fits("parallelbitwise", workers) {
		sc = nil
	}
	// Colors live in 32-bit words accessed atomically: speculation reads
	// neighbor colors mid-flight by design, and atomics keep those races
	// well-defined under the Go memory model. Each lane holds one
	// color-state BitSet + codec, one gather view and one repair queue.
	f := newFrame(opts, sc, n, workers, maxColors, 0)
	f.gather, f.gatherAuto = gatherDecision(g, opts)
	f.blocks = true
	st := metrics.RunStats{Workers: workers}
	if n == 0 {
		f.fold(&st)
		return &Result{}, st, nil
	}
	// esp is the enclosing engine span (nil without an observer; every
	// span method is a no-op then). Spans are touched only at phase and
	// sweep boundaries, never inside the per-block or per-edge loops.
	esp := opts.Span
	shared, useGather := f.shared, f.gather

	// Descending-degree processing order: on a DBG-preprocessed graph this
	// is the identity (detected in O(n) to skip the sort), on raw graphs
	// it reproduces the paper's high-degree-first dispatch. Ties break by
	// index so the order is deterministic.
	order := sc.orderBuf(n)
	sorted := true
	for i := range order {
		order[i] = graph.VertexID(i)
		if i > 0 && g.Degree(graph.VertexID(i)) > g.Degree(graph.VertexID(i-1)) {
			sorted = false
		}
	}
	if !sorted {
		sort.SliceStable(order, func(i, j int) bool {
			return g.Degree(order[i]) > g.Degree(order[j])
		})
	}
	// rank[v] is v's position in the processing order, for the
	// speculation-phase uncolored-vertex prune (§3.2.2 applied to the
	// parallel setting): a neighbor scheduled after v is almost always
	// still uncolored, so skipping it loses nothing in the common case —
	// the rare racing exception surfaces as a conflict and is repaired.
	rank := sc.rankBuf(n)
	for i, v := range order {
		rank[v] = int32(i)
	}

	// PUV tail break: when the processing order is the vertex index (DBG
	// invariant) and adjacency lists are sorted ascending, the pruned
	// neighbors form the list's tail, so the prune is a break instead of a
	// per-neighbor rank probe — the software rendering of the paper's
	// "stop at the first destination above the current vertex".
	puv := useGather && sorted && g.EdgesSorted()

	// firstFit assigns the lowest color not used by any neighbor of v,
	// reading neighbor colors atomically. prune skips neighbors scheduled
	// after v (speculation only — repair must see every neighbor).
	// Returns false on palette exhaustion.
	firstFit := func(s *workerScratch, v graph.VertexID, prune bool) bool {
		s.state.Reset()
		adj := g.Neighbors(v)
		switch {
		case prune && puv:
			// Blocked gather over the colored prefix of the sorted list;
			// everything past the first index above v is the uncolored tail.
			for i, u := range adj {
				if u > v {
					s.sh.Add(obs.CtrPrunedTail, int64(len(adj)-i))
					break
				}
				s.state.OrColorNum(s.ga.load(u))
			}
		case useGather:
			rv := rank[v]
			for _, u := range adj {
				if prune && rank[u] > rv {
					continue
				}
				s.state.OrColorNum(s.ga.load(u))
			}
		default:
			// Ablation baseline: naive per-neighbor random access through
			// the codec table.
			rv := rank[v]
			for _, u := range adj {
				if prune && rank[u] > rv {
					continue
				}
				s.codec.Decompress(uint16(atomic.LoadUint32(&shared[u])), s.state)
			}
		}
		pick, _ := s.codec.FirstFree(s.state)
		if pick == 0 {
			s.err = ErrPaletteExhausted
			return false
		}
		atomic.StoreUint32(&shared[v], uint32(pick))
		return true
	}

	// Speculation: every vertex colored once, workers pulling
	// degree-sorted blocks from the shared cursor.
	ssp := esp.Child("speculate").Attr("vertices", int64(n))
	var cur exec.BlockCursor
	cur.Reset(n)
	specErr := exec.Blocks(ctx, workers, &cur, func(w, lo, hi int) error {
		s := f.ws[w]
		s.sh.Inc(obs.CtrBlocks)
		s.sh.Add(obs.CtrVertices, int64(hi-lo))
		for _, v := range order[lo:hi] {
			if !firstFit(s, v, true) {
				return s.err
			}
		}
		s.sh.PublishAll() // live-progress checkpoint, once per block
		return nil
	})
	ssp.Attr("blocks", f.ss.Total(obs.CtrBlocks)).End()
	if specErr != nil {
		f.fold(&st)
		return nil, st, specErr
	}

	// Detection + in-place repair sweeps. pendingEpoch[v] == sweep marks v
	// as "re-colored last sweep" (sweep 1: everything). A conflict edge is
	// resolved by re-coloring exactly one endpoint: if only one endpoint
	// is pending it re-colors regardless of index (its stable neighbor
	// will never be re-examined); between two pending endpoints the
	// higher-indexed one loses, so the lowest-indexed vertex of any
	// conflicting cluster keeps its color and every sweep makes progress.
	// A single worker speculates sequentially and exactly: no racing
	// reads, no conflicts possible, so the detection sweep would only
	// re-traverse every edge to find nothing. Report the one
	// conflict-free round directly and skip detection.
	var (
		pending      []graph.VertexID
		pendingEpoch []uint32
	)
	if workers == 1 {
		st.Rounds = 1
		opts.Run.SetRound(1)
		// The single conflict-free round still gets its span so the
		// per-round record count always matches RunStats.Rounds.
		esp.Child("round").Attr("round", 1).Attr("pending", int64(n)).
			Attr("conflicts_found", int64(0)).Attr("recolored", int64(0)).End()
	} else {
		pending = sc.pendingBuf(n)
		copy(pending, order)
		pendingEpoch = sc.epochBuf(n)
	}
	sweep := uint32(0)
	for len(pending) > 0 {
		sweep++
		st.Rounds++
		opts.Run.SetRound(st.Rounds)
		if st.Rounds > n+1 {
			// Each sweep finalizes at least the lowest-indexed vertex of
			// every conflicting cluster; this guards future regressions.
			panic("coloring: parallel bitwise coloring failed to converge")
		}
		rsp := f.openSweep(esp, st.Rounds, len(pending))
		for _, v := range pending {
			pendingEpoch[v] = sweep
		}
		cur.Reset(len(pending))
		// The repair queues are per-sweep and a worker can run many blocks
		// per sweep, so the reset happens here, not inside the block body.
		for _, s := range f.ws {
			s.next = s.next[:0]
		}
		sweepErr := exec.Blocks(ctx, workers, &cur, func(w, lo, hi int) error {
			s := f.ws[w]
			s.sh.Inc(obs.CtrBlocks)
			for _, v := range pending[lo:hi] {
				cv := atomic.LoadUint32(&shared[v])
				lost := false
				for _, u := range g.Neighbors(v) {
					if atomic.LoadUint32(&shared[u]) != cv {
						continue
					}
					if pendingEpoch[u] == sweep && u > v {
						continue // u is pending and loses; its worker repairs it
					}
					lost = true
					s.sh.Inc(obs.CtrConflictsFound)
				}
				if !lost {
					continue
				}
				s.sh.Inc(obs.CtrConflictsRepaired)
				if !firstFit(s, v, false) {
					return s.err
				}
				s.next = append(s.next, v)
			}
			s.sh.PublishAll() // live-progress checkpoint, once per block
			return nil
		})
		// Collect the re-colored vertices as the next sweep's pending set.
		pending = pending[:0]
		if sweepErr == nil {
			for _, s := range f.ws {
				pending = append(pending, s.next...)
			}
		}
		f.endSweep(rsp, sweepErr)
		if sweepErr != nil {
			f.fold(&st)
			return nil, st, sweepErr
		}
		// Deterministic sweep composition despite racy block claims:
		// sorting keeps the detection order reproducible for tests.
		sortVertexIDs(pending)
	}
	f.fold(&st)
	return f.finish(), st, nil
}
