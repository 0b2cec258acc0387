package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"bitcolor/internal/dispatch"
	"bitcolor/internal/graph"
	"bitcolor/internal/obs"
)

// chainWorld is a deliberately adversarial kernel for the owner loop: a
// dependency chain v → v-1 → … → 0 where every vertex except 0 must
// wait for its predecessor. With pattern-p dispatch this forces maximal
// parking and cross-worker forwarding; with a tiny ring it forces the
// inline-wait fallback too.
type chainWorld struct {
	done []uint32 // 1 once "colored", atomically published
}

func newChainWorld(n int) *chainWorld { return &chainWorld{done: make([]uint32, n)} }

func (c *chainWorld) attempt(v graph.VertexID) (graph.VertexID, Outcome) {
	if v > 0 && atomic.LoadUint32(&c.done[v-1]) == 0 {
		return v - 1, Deferred
	}
	atomic.StoreUint32(&c.done[uint32(v)], 1)
	return 0, Colored
}

func (c *chainWorld) loop(ctx context.Context, abort *atomic.Bool, ringCap int, sh *obs.Shard) *OwnerLoop {
	return &OwnerLoop{
		Ctx:     ctx,
		Abort:   abort,
		Ring:    dispatch.NewForwardRing(ringCap),
		Shard:   sh,
		Shared:  c.done,
		Attempt: c.attempt,
		FailErr: errors.New("unused"),
	}
}

func TestOwnerLoopChainDependencyCompletes(t *testing.T) {
	const n = 5000
	for _, workers := range []int{1, 2, 3, 4} {
		c := newChainWorld(n)
		ss := obs.NewShardSet(workers)
		var abort atomic.Bool
		errs := make([]error, workers)
		Go(workers, func(w int) {
			// Ring cap 4 forces both parking and the ring-full inline wait.
			errs[w] = c.loop(context.Background(), &abort, 4, ss.Shard(w)).RunRange(w, workers, n)
		})
		for w, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d: worker %d: %v", workers, w, err)
			}
		}
		for v := 0; v < n; v++ {
			if c.done[v] == 0 {
				t.Fatalf("workers=%d: vertex %d never colored", workers, v)
			}
		}
		// Every park must be replayed at least once.
		if d, r := ss.Total(obs.CtrDeferred), ss.Total(obs.CtrDeferRetries); r < d {
			t.Fatalf("workers=%d: DeferRetries %d < Deferred %d", workers, r, d)
		}
		if workers > 1 && ss.Total(obs.CtrDeferred) == 0 {
			t.Fatalf("workers=%d: chain graph produced no deferrals", workers)
		}
	}
}

func TestOwnerLoopRunListChain(t *testing.T) {
	const n = 2000
	list := make([]graph.VertexID, n)
	for i := range list {
		list[i] = graph.VertexID(i)
	}
	const workers = 3
	c := newChainWorld(n)
	ss := obs.NewShardSet(workers)
	var abort atomic.Bool
	errs := make([]error, workers)
	Go(workers, func(w int) {
		errs[w] = c.loop(context.Background(), &abort, 4, ss.Shard(w)).RunList(list, w, workers)
	})
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for v := 0; v < n; v++ {
		if c.done[v] == 0 {
			t.Fatalf("vertex %d never colored", v)
		}
	}
}

func TestOwnerLoopCancelPreCancelledCtx(t *testing.T) {
	// The poll fires every 64 owned vertices, so the range must be well
	// past that for the cancellation to be observed.
	const n = 4096
	c := newChainWorld(n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var abort atomic.Bool
	err := c.loop(ctx, &abort, 8, obs.NewShardSet(1).Shard(0)).RunRange(0, 1, n)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !abort.Load() {
		t.Fatal("cancellation did not raise the shared abort flag")
	}
	colored := 0
	for v := range c.done {
		if c.done[v] != 0 {
			colored++
		}
	}
	if colored >= n {
		t.Fatal("cancelled run still colored the whole range")
	}
}

func TestOwnerLoopFailedAbortsPeers(t *testing.T) {
	// Worker 0 fails on its first vertex; peers must stop early with a
	// nil error (the failing worker reports the cause), and the shared
	// abort must be raised.
	const n = 1 << 16
	failErr := errors.New("palette exhausted")
	done := make([]uint32, n)
	var abort atomic.Bool
	ss := obs.NewShardSet(2)
	errs := make([]error, 2)
	Go(2, func(w int) {
		l := &OwnerLoop{
			Ctx:    context.Background(),
			Abort:  &abort,
			Ring:   dispatch.NewForwardRing(8),
			Shard:  ss.Shard(w),
			Shared: done,
			Attempt: func(v graph.VertexID) (graph.VertexID, Outcome) {
				if w == 0 {
					return 0, Failed
				}
				// Hold the peer back until the failure has landed, so the
				// test is deterministic on any scheduler: after this gate the
				// peer may color at most one poll stride before stopping.
				for !abort.Load() {
					runtime.Gosched()
				}
				atomic.StoreUint32(&done[uint32(v)], 1)
				return 0, Colored
			},
			FailErr: failErr,
		}
		errs[w] = l.RunRange(w, 2, n)
	})
	if !errors.Is(errs[0], failErr) {
		t.Fatalf("failing worker err = %v", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("peer err = %v, want nil (abort observed)", errs[1])
	}
	if !abort.Load() {
		t.Fatal("failure did not raise abort")
	}
	colored := 0
	for v := range done {
		if done[v] != 0 {
			colored++
		}
	}
	if colored >= n/2 {
		t.Fatalf("peer colored %d vertices; abort did not stop it early", colored)
	}
}

func TestOwnerLoopHandedSkipsVertex(t *testing.T) {
	// Handed vertices are finished as far as the loop is concerned — no
	// park, no publish requirement.
	const n = 100
	var attempts atomic.Int64
	var abort atomic.Bool
	l := &OwnerLoop{
		Ctx:   context.Background(),
		Abort: &abort,
		Ring:  dispatch.NewForwardRing(8),
		Shard: obs.NewShardSet(1).Shard(0),
		Attempt: func(v graph.VertexID) (graph.VertexID, Outcome) {
			attempts.Add(1)
			return 0, Handed
		},
	}
	if err := l.RunRange(0, 1, n); err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != n {
		t.Fatalf("attempts = %d, want %d (exactly one per handed vertex)", attempts.Load(), n)
	}
}
