package coloring

import (
	"context"
	"sync/atomic"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
)

// ForwardRingCap bounds each worker's forwarding ring — the scan window
// of vertices a worker may run ahead of its slowest dependency. Small
// enough that a drain pass stays cheap, large enough that a worker
// rarely blocks inline on path-shaped dependency chains.
const ForwardRingCap = 64

// DCTOpts is the host port of the accelerator's conflict-avoidance
// scheme (paper §4.3 + §4.6, contributions 5–7): a single-pass parallel
// engine that never speculates and never repairs. Worker i owns vertices
// i, i+P, i+2P, … (the pattern-p HDV pinning of the hardware dispatcher,
// dispatch.Owner) and colors them in strictly ascending index order;
// colors are published to a shared array with atomic release stores.
// When a vertex's lower-indexed neighbor is owned by a still-behind
// worker and its color has not landed yet, the vertex is parked on the
// worker's bounded forwarding ring (dispatch.ForwardRing — the host
// rendering of the Data Conflict Table) keyed by the awaited vertex, and
// the worker moves on; parked vertices are replayed when the awaited
// color arrives. The engine.Defers rule (lower index wins) orients every
// wait edge at a strictly smaller vertex, so wait chains follow the
// total vertex order and cannot cycle; a fallback spin (when a ring is
// full or a final drain stalls) yields until the awaited color lands.
//
// The payoff is structural: exactly one pass (RunStats.Rounds == 1,
// ConflictsFound == ConflictsRepaired == 0) and a coloring byte-identical
// to sequential greedy in index order — for every worker count, which the
// speculative engines cannot offer.
//
// Options supply the worker count, the gather report (with the adaptive
// average-degree heuristic, ForceGather/DisableGather overrides) and the
// hot-tier threshold v_t. The kernel reads each lower neighbor's color
// with one load and no per-read classification; the uncolored tail above
// the current vertex is never scanned at all (the PUV break), because
// under the DCT discipline every higher-indexed neighbor defers on this
// vertex, not the other way around. The gather options decide only
// whether the run reports GatherStats: when on, each colored vertex adds
// its reads, classified against v_t and the worker's last-block
// register, and its pruned tail to the worker's counters once, after it
// is colored.
//
// Cancellation is polled every few owned vertices and inside every spin
// wait; a cancelled or failed worker raises a shared abort flag so no
// peer spins forever on a color that will never be published. On
// cancellation the call returns ctx.Err() and no result; all mutable
// state is private to the call.
func DCTOpts(ctx context.Context, g *graph.CSR, maxColors int, opts Options) (*Result, metrics.RunStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, metrics.RunStats{}, err
	}
	workers := resolveWorkers(opts.Workers, g.NumVertices())
	sc := opts.Scratch
	if !sc.fits("dct", workers) {
		sc = nil
	}
	return dctRun(ctx, g, maxColors, opts, sc, workers)
}

// dctRun is the engine body after option and scratch validation: the
// worker count is already resolved and sc either fits the calling
// engine or is nil. Split out so the sharded engine's degenerate
// one-shard path can reuse the whole machinery under its own Scratch
// key without re-checking it against "dct".
func dctRun(ctx context.Context, g *graph.CSR, maxColors int, opts Options, sc *Scratch, workers int) (*Result, metrics.RunStats, error) {
	n := g.NumVertices()
	if workers == 1 && n > 0 {
		// One worker owns every vertex and colors in ascending index
		// order, so a lower-indexed neighbor is always already colored:
		// deferral is impossible and the whole forwarding machinery —
		// goroutines, rings, closures — would only add allocations. The
		// inline pass below is behavior- and telemetry-identical (and is
		// what makes the engine allocation-free on a pooled Scratch).
		return dctSequential(ctx, g, maxColors, opts, sc)
	}
	// Colors in 32-bit words, written exactly once by the owning worker
	// (atomic release store) and read by peers with acquire loads. 0 is
	// "not yet published" — the same convention the hardware's valid bit
	// encodes.
	f := newFrame(opts, sc, n, workers, maxColors, ForwardRingCap)
	f.gather, f.gatherAuto = gatherDecision(g, opts)
	st := metrics.RunStats{Workers: workers}
	if n == 0 {
		f.fold(&st)
		return &Result{}, st, nil
	}
	shared, sorted, tally := f.shared, g.EdgesSorted(), f.gather
	run := newOwnerRun(ctx, opts.Obs, shared)
	// Owner-computes pass: worker w's HDV FIFO is the arithmetic sequence
	// w, w+P, w+2P, … walked in index order by the shared loop.
	exec.Go(workers, func(w int) {
		s := f.ws[w]
		loop := run.loop(s, func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
			return dctAttempt(s, shared, v, g.Neighbors(v), sorted, tally)
		})
		s.err = loop.RunRange(w, workers, n)
	})
	f.fold(&st)
	if err := f.err(); err != nil {
		return nil, st, err
	}
	// The single pass is the engine's one round; the span keeps the
	// round-record count equal to RunStats.Rounds across all engines.
	oneRound(opts, n, &st).End()
	return f.finish(), st, nil
}

// dctAttempt is DCT's attempt kernel, shared by dctRun, both phases of
// the in-core sharded engine and the ordered out-of-core stream, which
// differ only in which vertices they walk and where v's adjacency comes
// from. It colors v if every lower-indexed neighbor has published, one
// acquire load per neighbor. Higher-indexed neighbors are never read:
// under the DCT discipline they defer on v. On a sorted adjacency list
// they form the tail and the scan breaks (the PUV break of §3.2.2).
// Returns the first pending neighbor on deferral. With tally set, the
// gather counts are added once per colored vertex, never per read, so a
// replayed attempt adds nothing to them.
func dctAttempt(s *workerScratch, shared []uint32, v graph.VertexID, adj []graph.VertexID, sorted, tally bool) (graph.VertexID, exec.Outcome) {
	s.state.Reset()
	k := len(adj)
	for i, u := range adj {
		if u > v {
			if sorted {
				k = i
				break
			}
			continue
		}
		c := atomic.LoadUint32(&shared[u])
		if c == 0 {
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
	if tally {
		s.ga.tally(v, adj, k, sorted)
	}
	return 0, exec.Colored
}

// dctSequential is the one-worker fast path of DCTOpts: the same owned
// pass (ascending index order, PUV break, identical counters and round
// span) with no goroutines, rings or escaping closures. On a
// fitting Scratch the entire run — including the returned Result — is
// allocation-free in steady state.
func dctSequential(ctx context.Context, g *graph.CSR, maxColors int, opts Options, sc *Scratch) (*Result, metrics.RunStats, error) {
	n := g.NumVertices()
	f := newFrame(opts, sc, n, 1, maxColors, 0)
	f.gather, f.gatherAuto = gatherDecision(g, opts)
	st := metrics.RunStats{Workers: 1}
	shared, sorted := f.shared, g.EdgesSorted()
	s := f.ws[0]
	sh := s.sh
	for v := 0; v < n; v++ {
		if v&ctxStrideMask == 0 {
			sh.PublishAll() // live-progress checkpoint at the poll stride
			if err := ctx.Err(); err != nil {
				f.fold(&st)
				return nil, st, err
			}
		}
		s.state.Reset()
		adj := g.Neighbors(graph.VertexID(v))
		k := len(adj)
		for i, u := range adj {
			if int(u) > v {
				// The higher-indexed tail defers on v under the DCT rule
				// and is never read; on a sorted list it prunes as a break.
				if sorted {
					k = i
					break
				}
				continue
			}
			s.state.OrColorNum(shared[u])
		}
		pick, _ := s.codec.FirstFree(s.state)
		if pick == 0 {
			f.fold(&st)
			return nil, st, ErrPaletteExhausted
		}
		shared[v] = uint32(pick)
		sh.Inc(obs.CtrVertices)
		if f.gather {
			s.ga.tally(graph.VertexID(v), adj, k, sorted)
		}
	}
	f.fold(&st)
	oneRound(opts, n, &st).End()
	return f.finish(), st, nil
}
