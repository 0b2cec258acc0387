package exec

import (
	"context"
	"runtime"
	"sync/atomic"

	"bitcolor/internal/dispatch"
	"bitcolor/internal/graph"
	"bitcolor/internal/obs"
)

// Outcome is the result of one coloring attempt inside an OwnerLoop.
type Outcome int

const (
	// Colored: the vertex's result was published; move on.
	Colored Outcome = iota
	// Deferred: a lower-indexed dependency has not published yet; the
	// loop parks the vertex on the forwarding ring (or waits inline
	// when the ring is full) and replays it when the dependency lands.
	Deferred
	// Handed: the vertex belongs to a later pass (the sharded engine's
	// interior lanes hand off frontier vertices) — finished as far as
	// this pass cares.
	Handed
	// Failed: a terminal per-vertex failure (palette exhaustion). The
	// loop records FailErr, raises Abort and stops this worker.
	Failed
)

// OwnerLoop drives one worker's owner-computes pass: attempt each owned
// vertex in order, park it on the forwarding ring when a dependency is
// pending, replay parked vertices as dependencies publish, and fall
// back to a yielding inline wait when the ring is full — the DCT
// park/drain/spin machinery the dct and sharded engines share, with the
// engine's kernel injected through Attempt.
//
// Exactly one goroutine runs one OwnerLoop. Cancellation is polled
// every 64 owned vertices and inside every spin; a failed or cancelled
// worker raises Abort so no peer spins forever on a result that will
// never arrive, and a worker that observes Abort raised by a peer stops
// with a nil error (the peer reports the cause).
type OwnerLoop struct {
	Ctx   context.Context
	Abort *atomic.Bool
	Ring  *dispatch.ForwardRing
	// Shard is this worker's padded counter lane; the loop counts
	// Deferred, DeferRetries and SpinWaits into it.
	Shard *obs.Shard
	// Shared holds one published result word per vertex: a dependency u
	// has landed once Shared[u] is nonzero. The loop reads it atomically.
	Shared []uint32
	// Attempt tries to finish v now: Colored/Handed on success,
	// (dependency, Deferred) when a lower-indexed vertex must publish
	// first, Failed on palette exhaustion. The engine.Defers rule must
	// hold for every returned dependency (the ring enforces it).
	Attempt func(v graph.VertexID) (graph.VertexID, Outcome)
	// FailErr is the error recorded when Attempt reports Failed.
	FailErr error
	// Clock stamps park times (monotonic nanoseconds since engine
	// start); nil — the no-observer case — skips timestamping.
	Clock func() int64
	// OnForward observes a replayed vertex's forwarding latency; nil
	// skips the observation. Called only for parks stamped by Clock.
	OnForward func(parkedAt int64)

	err     error
	resolve func(dispatch.Parked) (dispatch.Parked, bool)
}

// RunRange walks the arithmetic sequence start, start+stride, … below
// limit — worker `start` of `stride` under pattern-p dispatch, whose
// HDV FIFO is the sequence itself. Returns this worker's error (nil
// when a peer aborted the run; the peer reports the cause).
func (l *OwnerLoop) RunRange(start, stride, limit int) error {
	l.begin()
	polled := 0
	for v := start; v < limit; v += stride {
		if polled++; polled&63 == 0 {
			// The poll is also the live-progress checkpoint: refresh the
			// shard's atomic mirrors so a scraper sees mid-run counters
			// (one branch when no run record armed them).
			l.Shard.PublishAll()
			if l.Abort.Load() {
				return l.err
			}
			if err := l.Ctx.Err(); err != nil {
				l.fail(err)
				return l.err
			}
		}
		if !l.step(graph.VertexID(v)) {
			return l.err
		}
		if l.Ring.Len() > 0 {
			l.Ring.Drain(l.resolve)
			if l.err != nil {
				return l.err
			}
		}
	}
	return l.finish()
}

// RunList is RunRange over an explicit vertex list: positions start,
// start+stride, … of list — the sharded engine's per-shard interior
// lists and its boundary frontier.
func (l *OwnerLoop) RunList(list []graph.VertexID, start, stride int) error {
	l.begin()
	polled := 0
	for i := start; i < len(list); i += stride {
		if polled++; polled&63 == 0 {
			l.Shard.PublishAll() // live-progress checkpoint, see RunRange
			if l.Abort.Load() {
				return l.err
			}
			if err := l.Ctx.Err(); err != nil {
				l.fail(err)
				return l.err
			}
		}
		if !l.step(list[i]) {
			return l.err
		}
		if l.Ring.Len() > 0 {
			l.Ring.Drain(l.resolve)
			if l.err != nil {
				return l.err
			}
		}
	}
	return l.finish()
}

// begin clears run state and materializes the resolve callback once per
// run (Drain takes a func value; binding the method per call would
// allocate on every drain).
func (l *OwnerLoop) begin() {
	l.err = nil
	l.resolve = l.resolveOne
}

// step finishes one owned vertex: attempt, park on deferral (inline
// wait when the ring is full), repeat until Colored/Handed. Returns
// false when this worker must stop (failure or abort).
func (l *OwnerLoop) step(v graph.VertexID) bool {
	for {
		awaited, code := l.Attempt(v)
		if code == Colored || code == Handed {
			return true
		}
		if code == Failed {
			l.fail(l.FailErr)
			return false
		}
		var at int64
		if l.Clock != nil {
			at = l.Clock()
		}
		if l.Ring.Push(dispatch.Parked{Vertex: uint32(v), Awaited: uint32(awaited), ParkedAt: at}) {
			// Deferred counts parked vertices only; a ring-full inline
			// wait shows up in SpinWaits instead, keeping DeferRetries >=
			// Deferred (every park is replayed).
			l.Shard.Inc(obs.CtrDeferred)
			return true
		}
		// Ring full: the scan window is exhausted. Wait inline for this
		// vertex's dependency, draining between yields — the dependency
		// chain can run through this worker's own parked entries, so the
		// wait loop must keep replaying them. The globally smallest
		// unfinished vertex is always finishable, so somebody makes
		// progress and the wait is finite.
		for {
			l.Ring.Drain(l.resolve)
			if l.err != nil {
				return false
			}
			if l.published(uint32(awaited)) {
				break
			}
			if !l.spin() {
				return false
			}
		}
	}
}

// finish drains the ring until it empties, yielding when a pass
// resolves nothing.
func (l *OwnerLoop) finish() error {
	for l.Ring.Len() > 0 {
		if l.Ring.Drain(l.resolve) == 0 {
			if !l.spin() {
				return l.err
			}
		}
		if l.err != nil {
			return l.err
		}
	}
	return l.err
}

// resolveOne replays one parked vertex: not yet if the awaited result
// still hasn't landed, re-park (with an updated key, keeping the
// original park time) if the replay hits another pending dependency,
// otherwise finished.
func (l *OwnerLoop) resolveOne(p dispatch.Parked) (dispatch.Parked, bool) {
	if !l.published(p.Awaited) {
		return p, false
	}
	l.Shard.Inc(obs.CtrDeferRetries)
	awaited, code := l.Attempt(graph.VertexID(p.Vertex))
	switch code {
	case Deferred:
		p.Awaited = uint32(awaited)
		return p, false
	case Failed:
		l.fail(l.FailErr)
		return dispatch.Parked{}, true // drop; the run is over
	}
	if code == Colored && p.ParkedAt != 0 && l.OnForward != nil {
		l.OnForward(p.ParkedAt)
	}
	return dispatch.Parked{}, true
}

// published reports whether u's result has landed.
func (l *OwnerLoop) published(u uint32) bool { return atomic.LoadUint32(&l.Shared[u]) != 0 }

// fail records this worker's terminal error and raises the shared
// abort flag so no peer spins on a result that will never arrive.
func (l *OwnerLoop) fail(err error) {
	l.err = err
	l.Abort.Store(true)
}

// spin is the deadlock-free fallback: yield, re-check abort and
// cancellation, and let the dependency's owner run. Returns false when
// the run is aborting.
func (l *OwnerLoop) spin() bool {
	l.Shard.Inc(obs.CtrSpinWaits)
	if l.Abort.Load() {
		return false
	}
	if err := l.Ctx.Err(); err != nil {
		l.fail(err)
		return false
	}
	runtime.Gosched()
	return true
}
