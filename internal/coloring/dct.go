package coloring

import (
	"context"
	"sync/atomic"
	"time"

	"bitcolor/internal/dispatch"
	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
)

// DCTColor is the host port of the accelerator's conflict-avoidance
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
func DCTColor(ctx context.Context, g *graph.CSR, maxColors int, workers int) (*Result, metrics.RunStats, error) {
	return DCTOpts(ctx, g, maxColors, Options{MaxColors: maxColors, Workers: workers})
}

// ForwardRingCap bounds each worker's forwarding ring — the scan window
// of vertices a worker may run ahead of its slowest dependency. Small
// enough that a drain pass stays cheap, large enough that a worker
// rarely blocks inline on path-shaped dependency chains.
const ForwardRingCap = 64

// DCTOpts is DCTColor with the full option set: worker count, the
// gather report (with the adaptive average-degree heuristic,
// ForceGather/DisableGather overrides) and the hot-tier threshold v_t.
// The kernel reads each lower neighbor's color with one load and no
// per-read classification; the uncolored tail above the current vertex
// is never scanned at all (the PUV break), because under the DCT
// discipline every higher-indexed neighbor defers on this vertex, not
// the other way around. The gather options decide only whether the run
// reports GatherStats: when on, each colored vertex adds its reads,
// classified against v_t and the worker's last-block register, and its
// pruned tail to the worker's counters once, after it is colored.
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
	ss := sc.shardSet(workers)
	// Arm the shards' live mirrors for mid-run /debug/runs progress; the
	// OwnerLoop refreshes them at its 64-vertex poll checkpoint.
	opts.Run.AttachShards(ss)
	st := metrics.RunStats{Workers: workers}
	useGather, gatherAuto := gatherDecision(g, opts)
	rings := make([]*dispatch.ForwardRing, workers)
	foldStats := func() {
		st.VerticesPerWorker = ss.PerWorkerInto(obs.CtrVertices, sc.perWorkerBuf(0, workers))
		st.Deferred = ss.Total(obs.CtrDeferred)
		st.DeferRetries = ss.Total(obs.CtrDeferRetries)
		st.SpinWaits = ss.Total(obs.CtrSpinWaits)
		st.Gather = metrics.GatherStats{
			HotReads:       ss.Total(obs.CtrHotReads),
			MergedReads:    ss.Total(obs.CtrMergedReads),
			ColdBlockLoads: ss.Total(obs.CtrColdBlockLoads),
			PrunedTail:     ss.Total(obs.CtrPrunedTail),
			AutoDisabled:   gatherAuto,
		}
		for _, r := range rings {
			if r != nil && r.Peak() > st.ForwardRingPeak {
				st.ForwardRingPeak = r.Peak()
			}
		}
	}
	if n == 0 {
		foldStats()
		return &Result{Colors: nil, NumColors: 0}, st, nil
	}
	esp := opts.Span
	o := opts.Obs
	// The forwarding-latency histogram needs park timestamps; the clock
	// is read only when an observer is live, and only on the (rare)
	// defer path — never per vertex or per edge.
	var obsStart time.Time
	if o != nil {
		obsStart = time.Now()
	}

	// Colors in 32-bit words, written exactly once by the owning worker
	// (atomic release store) and read by peers with acquire loads. 0 is
	// "not yet published" — the same convention the hardware's valid bit
	// encodes.
	shared := sc.sharedBuf(n)
	sorted := g.EdgesSorted()

	// abort lets a failed or cancelled worker unblock every peer's spin
	// loop: a worker that exits early never publishes its remaining
	// colors, and without the flag a peer waiting on one would spin
	// forever.
	var abort atomic.Bool

	ws := make([]*workerScratch, workers)
	for w := range ws {
		s := sc.workerAt(w, maxColors)
		sh := ss.Shard(w)
		s.sh = sh
		s.ga.init(shared, opts.HotVertices, sh)
		s.ensureRing(ForwardRingCap)
		ws[w] = s
		rings[w] = s.ring
	}
	if useGather {
		st.HotThreshold = ws[0].ga.vt
	}

	// The forwarding-latency instrumentation is wired only when an
	// observer is live; with clock == nil the loop never reads the clock
	// and park timestamps stay zero.
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
	// Owner-computes pass: worker w's HDV FIFO is the arithmetic sequence
	// w, w+P, w+2P, … walked in index order by the shared loop.
	exec.Go(workers, func(w int) {
		s := ws[w]
		loop := exec.OwnerLoop{
			Ctx:   ctx,
			Abort: &abort,
			Ring:  s.ring,
			Shard: s.sh,
			Attempt: func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
				return dctAttempt(s, shared, v, g.Neighbors(v), sorted, useGather)
			},
			Published: func(u uint32) bool { return atomic.LoadUint32(&shared[u]) != 0 },
			FailErr:   ErrPaletteExhausted,
			Clock:     clock,
			OnForward: onForward,
		}
		s.err = loop.RunRange(w, workers, n)
	})
	foldStats()
	for _, s := range ws {
		if s.err != nil {
			return nil, st, s.err
		}
	}
	st.Rounds = 1
	opts.Run.SetRound(1)
	// The single pass is the engine's one round; the span keeps the
	// round-record count equal to RunStats.Rounds across all engines.
	esp.Child("round").Attr("round", 1).Attr("pending", int64(n)).
		Attr("conflicts_found", int64(0)).Attr("recolored", int64(0)).
		Attr("deferred", st.Deferred).Attr("ring_peak", int64(st.ForwardRingPeak)).End()

	colors := sc.colorsBuf(n)
	for i, c := range shared {
		colors[i] = uint16(c)
	}
	return sc.result(colors, sc.distinctColors(colors), OpStats{}), st, nil
}

// dctAttempt is DCT's attempt kernel, shared by dctRun and the ordered
// out-of-core stream, which differ only in where v's adjacency comes
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
	ss := sc.shardSet(1)
	opts.Run.AttachShards(ss)
	st := metrics.RunStats{Workers: 1}
	useGather, gatherAuto := gatherDecision(g, opts)
	shared := sc.sharedBuf(n)
	sorted := g.EdgesSorted()
	s := sc.workerAt(0, maxColors)
	sh := ss.Shard(0)
	s.sh = sh
	s.ga.init(shared, opts.HotVertices, sh)
	fold := func() {
		st.VerticesPerWorker = ss.PerWorkerInto(obs.CtrVertices, sc.perWorkerBuf(0, 1))
		st.Gather = metrics.GatherStats{
			HotReads:       ss.Total(obs.CtrHotReads),
			MergedReads:    ss.Total(obs.CtrMergedReads),
			ColdBlockLoads: ss.Total(obs.CtrColdBlockLoads),
			PrunedTail:     ss.Total(obs.CtrPrunedTail),
			AutoDisabled:   gatherAuto,
		}
	}
	if useGather {
		st.HotThreshold = s.ga.vt
	}
	for v := 0; v < n; v++ {
		if v&ctxStrideMask == 0 {
			sh.PublishAll() // live-progress checkpoint at the poll stride
			if err := ctx.Err(); err != nil {
				fold()
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
			fold()
			return nil, st, ErrPaletteExhausted
		}
		shared[v] = uint32(pick)
		sh.Inc(obs.CtrVertices)
		if useGather {
			s.ga.tally(graph.VertexID(v), adj, k, sorted)
		}
	}
	fold()
	st.Rounds = 1
	opts.Run.SetRound(1)
	// Guarded rather than relying on nil-safe span methods: boxing the
	// Attr values would allocate even when the span is nil.
	if esp := opts.Span; esp != nil {
		esp.Child("round").Attr("round", 1).Attr("pending", int64(n)).
			Attr("conflicts_found", int64(0)).Attr("recolored", int64(0)).
			Attr("deferred", int64(0)).Attr("ring_peak", int64(0)).End()
	}
	colors := sc.colorsBuf(n)
	for i, c := range shared {
		colors[i] = uint16(c)
	}
	return sc.result(colors, sc.distinctColors(colors), OpStats{}), st, nil
}
