package coloring

import (
	"math/bits"
	"sync"
	"time"

	"bitcolor/internal/bitops"
	"bitcolor/internal/dispatch"
	"bitcolor/internal/graph"
	"bitcolor/internal/obs"
)

// Scratch is an arena of reusable engine state — color buffers, the
// shared atomic color array, ordering/pending sweeps, the lanes of the
// engine frame (each worker's bit set, codec, gather and forwarding
// ring), the counter shards, and the Result the engine hands back. It
// exists for the colord request pattern: repeated ColorContext calls
// against a cached graph should do zero steady-state heap allocation,
// which testing.AllocsPerRun enforces for the bitwise and dct engines at
// one worker.
//
// A Scratch belongs to one (engine, workers, graph size class) pool
// slot. Engines accept a mismatched Scratch silently by ignoring it
// (fits fails → the engine allocates as before), so a stale handle can
// never corrupt a run. A Scratch must not be used by two runs
// concurrently, and the *Result returned from a run backed by a Scratch
// is only valid until that Scratch's next run or Release — and the same
// holds for the RunStats per-worker/per-shard slices
// (VerticesPerWorker, BlocksPerWorker, ShardVertices, ShardDurations),
// which alias pooled buffers when a Scratch backs the run.
type Scratch struct {
	key scratchKey

	colors  []uint16
	shared  []uint32
	order   []graph.VertexID
	rank    []int32
	pending []graph.VertexID
	epoch   []uint32
	parts   []int32 // partition assignment vector (sharded engine)
	perWk   [3][]int64
	durs    [2][]time.Duration
	res     Result
	shards  *obs.ShardSet
	ws      []*workerScratch // the frame's lanes, one per worker goroutine
}

// scratchKey identifies one pool slot.
type scratchKey struct {
	engine  string
	workers int
	class   uint8
}

// sizeClass buckets vertex counts by power of two, so pooled buffers
// land on graphs of comparable size instead of thrashing between a toy
// graph and a billion-edge one.
func sizeClass(n int) uint8 {
	if n <= 0 {
		return 0
	}
	return uint8(bits.Len(uint(n)))
}

// scratchPools maps scratchKey → *sync.Pool. sync.Pool already shards
// by P; the outer map only resolves the slot.
var scratchPools sync.Map

// AcquireScratch returns a pooled (or fresh) Scratch for the named
// engine at the given worker count on an n-vertex graph. The worker
// count is normalized exactly as the engines normalize it (sequential
// engines pin it to 1; parallel engines default to GOMAXPROCS and cap
// at n), so the handle matches what the run will actually use. Pass the
// result in Options.Scratch and Release it when done.
func AcquireScratch(engine string, workers, n int) *Scratch {
	if info, ok := Lookup(engine); ok && !info.Parallel {
		workers = 1
	} else {
		workers = resolveWorkers(workers, n)
	}
	key := scratchKey{engine: engine, workers: workers, class: sizeClass(n)}
	p, _ := scratchPools.LoadOrStore(key, new(sync.Pool))
	if s, ok := p.(*sync.Pool).Get().(*Scratch); ok && s != nil {
		return s
	}
	return &Scratch{key: key}
}

// Release returns the Scratch to its pool. The Scratch — and any
// *Result a run backed by it returned — must not be used afterwards.
// Safe on nil.
func (s *Scratch) Release() {
	if s == nil {
		return
	}
	p, _ := scratchPools.LoadOrStore(s.key, new(sync.Pool))
	p.(*sync.Pool).Put(s)
}

// fits reports whether this Scratch was acquired for the given engine
// and effective worker count. Engines treat a non-fitting Scratch as
// absent. Safe on nil (reports false).
func (s *Scratch) fits(engine string, workers int) bool {
	return s != nil && s.key.engine == engine && s.key.workers == workers
}

// The buffer accessors below are all nil-receiver safe: without a
// Scratch they allocate fresh (the engines' previous behavior), with
// one they resize a retained buffer, growing capacity only on the first
// run at a new size.

func (s *Scratch) colorsBuf(n int) []uint16 {
	if s == nil || cap(s.colors) < n {
		b := make([]uint16, n)
		if s != nil {
			s.colors = b
		}
		return b
	}
	s.colors = s.colors[:n]
	clear(s.colors)
	return s.colors
}

func (s *Scratch) sharedBuf(n int) []uint32 {
	if s == nil || cap(s.shared) < n {
		b := make([]uint32, n)
		if s != nil {
			s.shared = b
		}
		return b
	}
	s.shared = s.shared[:n]
	clear(s.shared)
	return s.shared
}

func (s *Scratch) orderBuf(n int) []graph.VertexID {
	if s == nil || cap(s.order) < n {
		b := make([]graph.VertexID, n)
		if s != nil {
			s.order = b
		}
		return b
	}
	s.order = s.order[:n]
	return s.order
}

func (s *Scratch) rankBuf(n int) []int32 {
	if s == nil || cap(s.rank) < n {
		b := make([]int32, n)
		if s != nil {
			s.rank = b
		}
		return b
	}
	s.rank = s.rank[:n]
	return s.rank
}

func (s *Scratch) pendingBuf(n int) []graph.VertexID {
	if s == nil || cap(s.pending) < n {
		b := make([]graph.VertexID, n)
		if s != nil {
			s.pending = b
		}
		return b
	}
	s.pending = s.pending[:n]
	return s.pending
}

func (s *Scratch) epochBuf(n int) []uint32 {
	if s == nil || cap(s.epoch) < n {
		b := make([]uint32, n)
		if s != nil {
			s.epoch = b
		}
		return b
	}
	s.epoch = s.epoch[:n]
	clear(s.epoch)
	return s.epoch
}

// partsBuf returns a length-n int32 buffer for the sharded engine's
// partition assignment. Nil Scratch → nil, letting RangesInto allocate.
func (s *Scratch) partsBuf(n int) []int32 {
	if s == nil {
		return nil
	}
	if cap(s.parts) < n {
		s.parts = make([]int32, n)
	}
	return s.parts[:n]
}

// perWorkerBuf returns a length-`workers` int64 buffer for one of the
// per-worker stat exports (slot 0/1: vertex/block counters; slot 2: the
// sharded engine's per-shard vertex fold). Nil Scratch → nil, letting
// obs.ShardSet.PerWorkerInto allocate.
func (s *Scratch) perWorkerBuf(slot, workers int) []int64 {
	if s == nil {
		return nil
	}
	if cap(s.perWk[slot]) < workers {
		s.perWk[slot] = make([]int64, workers)
	}
	return s.perWk[slot][:workers]
}

// durBuf returns a zeroed length-n duration buffer (slot 0: the sharded
// engine's flat per-goroutine phase timings; slot 1: its per-shard
// RunStats.ShardDurations export). Nil Scratch → nil; callers fall back
// to make, exactly the pre-pooling behavior.
func (s *Scratch) durBuf(slot, n int) []time.Duration {
	if s == nil {
		return nil
	}
	if cap(s.durs[slot]) < n {
		s.durs[slot] = make([]time.Duration, n)
	}
	b := s.durs[slot][:n]
	clear(b)
	return b
}

// shardSet returns a reset ShardSet for the worker count.
func (s *Scratch) shardSet(workers int) *obs.ShardSet {
	if s == nil {
		return obs.NewShardSet(workers)
	}
	if s.shards == nil || s.shards.Workers() != workers {
		s.shards = obs.NewShardSet(workers)
	} else {
		s.shards.Reset()
	}
	return s.shards
}

// result packages a run's outcome, reusing the pooled Result value when
// a Scratch backs the run.
func (s *Scratch) result(colors []uint16, numColors int, st OpStats) *Result {
	if s == nil {
		return &Result{Colors: colors, NumColors: numColors, Stats: st}
	}
	s.res = Result{Colors: colors, NumColors: numColors, Stats: st}
	return &s.res
}

// workerScratch is one lane's reusable hot-path state (see frame): the
// bit set and codec every engine uses, the gather view, the counter
// shard, the lane's own forwarding ring (owner-computes engines only;
// pooled with the lane, reset when a run provisions it) and the repair
// queue of parallelbitwise. Exactly one goroutine owns an instance during
// a run.
type workerScratch struct {
	state     *bitops.BitSet
	codec     *bitops.ColorCodec
	ga        gather
	sh        *obs.Shard
	ring      *dispatch.ForwardRing
	next      []graph.VertexID // vertices re-colored this sweep (repair)
	err       error
	maxColors int
}

// ensure sizes the bit set and codec for the palette and clears
// run-scoped state.
func (w *workerScratch) ensure(maxColors int) {
	if w.maxColors != maxColors || w.state == nil {
		w.state = bitops.NewBitSet(maxColors)
		w.codec = bitops.NewColorCodec(maxColors)
		w.maxColors = maxColors
	} else {
		w.state.Reset()
	}
	w.err = nil
	w.next = w.next[:0]
}

// ensureRing makes sure the worker has a reset forwarding ring of the
// given capacity.
func (w *workerScratch) ensureRing(capacity int) {
	if w.ring == nil || w.ring.Cap() != capacity {
		w.ring = dispatch.NewForwardRing(capacity)
	} else {
		w.ring.Reset()
	}
}

// lanes returns count reset workerScratch values sized for the palette:
// the pooled s.ws[:count] with a Scratch, fresh ones without.
func (s *Scratch) lanes(count, maxColors int) []*workerScratch {
	var ws []*workerScratch
	if s == nil {
		ws = make([]*workerScratch, count)
	} else {
		for len(s.ws) < count {
			s.ws = append(s.ws, nil)
		}
		ws = s.ws[:count]
	}
	for i, w := range ws {
		if w == nil {
			w = new(workerScratch)
			ws[i] = w
		}
		w.ensure(maxColors)
	}
	return ws
}
