package coloring

import (
	"context"
	"sync/atomic"
	"time"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
)

// The engine frame is what every parallel engine body shares around its
// coloring kernel, as the accelerator's dispatcher and completion unit
// keep its PEs to coloring (paper §4.6): the lanes a run's worker
// goroutines color in, the one fold of their counters into RunStats, and
// the epilogue that hands the colors back. dctRun, dctSequential, the
// in-core and streamed sharded engines, SpeculativeOpts and
// ParallelBitwiseOpts all run on it, so their statistics are folded the
// same way and the engine files hold only kernels and schedules.

// frame is one parallel run's lanes and shared color words. A lane is one
// worker goroutine's counter shard, workerScratch and (for the
// owner-computes engines) forwarding ring; lane i counts into shard i.
type frame struct {
	sc     *Scratch
	ss     *obs.ShardSet
	ws     []*workerScratch
	shared []uint32
	// gather and gatherAuto are the run's gatherDecision; blocks marks a
	// block-sweep engine, whose per-worker block claims the fold reports.
	gather, gatherAuto, blocks bool
	// rings reports whether the lanes were given reset rings for this
	// run. A pooled lane keeps its ring from earlier runs, so the fold
	// reads ring peaks only when this run provisioned them.
	rings bool
}

// newFrame sets up count lanes over a fresh n-word shared color array:
// the counter shards, armed for /debug/runs through opts.Run, and each
// lane's workerScratch pointed at its shard and at the shared colors.
// With ringCap > 0 every lane gets a reset forwarding ring of that
// capacity. With a Scratch the lanes are its pooled sc.ws[:count], so
// the set-up allocates nothing in steady state.
func newFrame(opts Options, sc *Scratch, n, count, maxColors, ringCap int) frame {
	f := frame{
		sc:     sc,
		ss:     sc.shardSet(count),
		ws:     sc.lanes(count, maxColors),
		shared: sc.sharedBuf(n),
		rings:  ringCap > 0,
	}
	opts.Run.AttachShards(f.ss)
	for i, s := range f.ws {
		s.sh = f.ss.Shard(i)
		s.ga.init(f.shared, opts.HotVertices, s.sh)
		if f.rings {
			s.ensureRing(ringCap)
		}
	}
	return f
}

// fold is the one place counter shards become RunStats: the per-lane
// vertex split, the conflict, defer, spin-wait and cross-shard totals,
// the gather report and v_t, and the ring peak. A counter an engine
// never touches folds to zero; the block split is reported only by the
// block-sweep engines, and the ring peak only when this run had rings.
func (f *frame) fold(st *metrics.RunStats) {
	ss, lanes := f.ss, len(f.ws)
	st.VerticesPerWorker = ss.PerWorkerInto(obs.CtrVertices, f.sc.perWorkerBuf(0, lanes))
	if f.blocks {
		st.BlocksPerWorker = ss.PerWorkerInto(obs.CtrBlocks, f.sc.perWorkerBuf(1, lanes))
	}
	st.ConflictsFound = ss.Total(obs.CtrConflictsFound)
	st.ConflictsRepaired = ss.Total(obs.CtrConflictsRepaired)
	st.Deferred = ss.Total(obs.CtrDeferred)
	st.DeferRetries = ss.Total(obs.CtrDeferRetries)
	st.SpinWaits = ss.Total(obs.CtrSpinWaits)
	st.CrossShardDefers = ss.Total(obs.CtrCrossDefers)
	st.Gather = metrics.GatherStats{
		HotReads:       ss.Total(obs.CtrHotReads),
		MergedReads:    ss.Total(obs.CtrMergedReads),
		ColdBlockLoads: ss.Total(obs.CtrColdBlockLoads),
		PrunedTail:     ss.Total(obs.CtrPrunedTail),
		AutoDisabled:   f.gatherAuto,
	}
	if f.gather {
		st.HotThreshold = f.ws[0].ga.vt
	}
	if f.rings {
		for _, s := range f.ws {
			st.ForwardRingPeak = max(st.ForwardRingPeak, s.ring.Peak())
		}
	}
}

// foldShards folds the (shard, worker) lanes of a sharded run into the
// per-shard exports: ShardVertices[s] sums shard s's lanes' colored
// vertices and ShardDurations[s] is its slowest lane's time. Both draw
// on the pooled arena when a Scratch backs the run (they alias it — see
// the Scratch doc). The in-core engine calls it before its frontier
// phase reuses the low lanes, so frontier vertices stay out of it.
func (f *frame) foldShards(st *metrics.RunStats, laneDur []time.Duration, shards, workers int) {
	verts := f.sc.perWorkerBuf(2, shards)
	if verts == nil {
		verts = make([]int64, shards)
	} else {
		clear(verts)
	}
	durs := f.sc.durBuf(1, shards)
	if durs == nil {
		durs = make([]time.Duration, shards)
	}
	for i, s := range f.ws[:shards*workers] {
		verts[i/workers] += s.sh.Get(obs.CtrVertices)
		durs[i/workers] = max(durs[i/workers], laneDur[i])
	}
	st.ShardVertices, st.ShardDurations = verts, durs
}

// laneDurs returns a zeroed per-lane duration buffer, pooled when a
// Scratch backs the run.
func (f *frame) laneDurs() []time.Duration {
	if d := f.sc.durBuf(0, len(f.ws)); d != nil {
		return d
	}
	return make([]time.Duration, len(f.ws))
}

// err returns the first lane's error, if any lane failed.
func (f *frame) err() error {
	for _, s := range f.ws {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// finish is the epilogue: it copies the shared 32-bit color words into
// the returned []uint16 and counts the distinct colors.
func (f *frame) finish() *Result {
	colors := f.sc.colorsBuf(len(f.shared))
	for i, c := range f.shared {
		colors[i] = uint16(c)
	}
	return f.sc.result(colors, countColors(colors), OpStats{})
}

// oneRound records the single round of a one-pass engine: Rounds = 1,
// the run record's round, and the round span with the attributes every
// one-pass engine reports, which the caller may extend before End.
// Without an observer it returns nil before any attribute is boxed, so
// an unobserved run allocates nothing here; callers that add attributes
// check for nil for the same reason.
func oneRound(opts Options, n int, st *metrics.RunStats) *obs.Span {
	st.Rounds = 1
	opts.Run.SetRound(1)
	if opts.Span == nil {
		return nil
	}
	return opts.Span.Child("round").Attr("round", 1).Attr("pending", int64(n)).
		Attr("conflicts_found", int64(0)).Attr("recolored", int64(0)).
		Attr("deferred", st.Deferred).Attr("ring_peak", int64(st.ForwardRingPeak))
}

// ownerRun is what the owner-computes engines (dctRun and the two
// sharded executors) share across their OwnerLoops: the context, the
// abort flag, and the forwarding-latency hooks.
type ownerRun struct {
	ctx    context.Context
	shared []uint32
	// abort lets a failed or cancelled worker unblock every peer's wait:
	// a worker that exits early never publishes its remaining colors,
	// and without the flag a peer waiting on one would spin forever.
	abort atomic.Bool
	// clock and onForward feed the forwarding-latency histogram. They
	// are nil without an observer, so the loops never read the clock
	// and park timestamps stay zero; with one, the clock is read only
	// on the (rare) defer path, never per vertex or per edge.
	clock     func() int64
	onForward func(parkedAt int64)
}

func newOwnerRun(ctx context.Context, o *obs.Observer, shared []uint32) *ownerRun {
	r := &ownerRun{ctx: ctx, shared: shared}
	if o != nil {
		start := time.Now()
		r.clock = func() int64 { return int64(time.Since(start)) }
		r.onForward = func(parkedAt int64) {
			o.ObserveForwardWait(float64(int64(time.Since(start))-parkedAt) / 1e9)
		}
	}
	return r
}

// loop builds lane s's OwnerLoop around attempt. A vertex has published
// once its shared color word is nonzero; the sharded frontier, where a
// mark stands for "pending", replaces Published.
func (r *ownerRun) loop(s *workerScratch, attempt func(graph.VertexID) (graph.VertexID, exec.Outcome)) exec.OwnerLoop {
	return exec.OwnerLoop{
		Ctx:       r.ctx,
		Abort:     &r.abort,
		Ring:      s.ring,
		Shard:     s.sh,
		Attempt:   attempt,
		Published: func(u uint32) bool { return atomic.LoadUint32(&r.shared[u]) != 0 },
		FailErr:   ErrPaletteExhausted,
		Clock:     r.clock,
		OnForward: r.onForward,
	}
}

// sweepSpan is one round span of a block-sweep engine (SpeculativeOpts,
// ParallelBitwiseOpts): openSweep opens it with the round number and
// pending count, endSweep closes it with the round's conflict and recolor
// counts, its per-worker block claims and the steals among them. Without
// an observer it is inert and takes no snapshots.
type sweepSpan struct {
	rsp                       *obs.Span
	foundBefore, repairBefore int64
	blocksBefore              []int64
}

func (f *frame) openSweep(esp *obs.Span, round, pending int) sweepSpan {
	if esp == nil {
		return sweepSpan{}
	}
	return sweepSpan{
		rsp:          esp.Child("round").Attr("round", int64(round)).Attr("pending", int64(pending)),
		foundBefore:  f.ss.Total(obs.CtrConflictsFound),
		repairBefore: f.ss.Total(obs.CtrConflictsRepaired),
		blocksBefore: f.ss.PerWorker(obs.CtrBlocks),
	}
}

// endSweep closes s; a non-nil err marks the round cancelled.
func (f *frame) endSweep(s sweepSpan, err error) {
	if s.rsp == nil {
		return
	}
	claims := f.ss.PerWorker(obs.CtrBlocks)
	for w := range claims {
		claims[w] -= s.blocksBefore[w]
	}
	s.rsp.Attr("conflicts_found", f.ss.Total(obs.CtrConflictsFound)-s.foundBefore).
		Attr("recolored", f.ss.Total(obs.CtrConflictsRepaired)-s.repairBefore).
		Attr("blocks_per_worker", claims).
		Attr("steals", metrics.RunStats{BlocksPerWorker: claims}.Steals())
	if err != nil {
		s.rsp.Attr("cancelled", true)
	}
	s.rsp.End()
}
