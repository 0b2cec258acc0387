package obs

// Per-worker counter shards. The host-parallel engines count everything
// their hot loops touch — vertices and dispatch blocks claimed, gather
// read classifications, conflicts — into one shard per worker. A shard
// is padded out to two cache lines so two workers' counters never share
// a line (the false-sharing trap the previous ad-hoc accumulation into a
// shared []int64 slice stepped on), and increments are plain stores:
// only the owning worker writes its shard, and the fold happens after
// the worker goroutines join.

import "sync/atomic"

// Counter indices within a shard.
const (
	// CtrVertices counts speculation-phase vertices claimed from the
	// shared cursor.
	CtrVertices = iota
	// CtrBlocks counts dispatch blocks claimed from the shared cursor
	// (speculation and repair sweeps).
	CtrBlocks
	// CtrHotReads / CtrMergedReads / CtrColdBlockLoads / CtrPrunedTail
	// are the blocked color-gather's read classification (HDC / MGR /
	// cold / PUV analogs).
	CtrHotReads
	CtrMergedReads
	CtrColdBlockLoads
	CtrPrunedTail
	// CtrConflictsFound / CtrConflictsRepaired are the detection sweep's
	// outcomes.
	CtrConflictsFound
	CtrConflictsRepaired
	// CtrDeferred counts vertices parked on the DCT engine's forwarding
	// ring because a lower-indexed neighbor's color was still pending;
	// CtrDeferRetries counts coloring attempts replayed from the ring
	// (>= CtrDeferred: a drained vertex can re-park on a different
	// neighbor); CtrSpinWaits counts fallback busy-wait yields taken when
	// the ring was full or the final drain found nothing resolvable.
	CtrDeferred
	CtrDeferRetries
	CtrSpinWaits

	// NumCounters is the shard width.
	NumCounters
)

// shardBytes is the payload size of a Shard: the plain counters, their
// atomic live mirrors, and the liveOn flag.
const shardBytes = NumCounters*8*2 + 1

// Shard is one worker's private counter block, padded to a cache-line
// multiple so adjacent workers' shards never share a line. The plain
// counters c are owner-only (see package comment); the live mirrors are
// atomic cells the owner refreshes at coarse checkpoints (Publish) so a
// scraper goroutine can read mid-run progress race-free. Mirrors are
// armed per run (liveOn) before the workers spawn; unobserved runs pay
// one predictable branch per checkpoint and no atomics.
type Shard struct {
	c      [NumCounters]int64
	live   [NumCounters]atomic.Int64
	liveOn bool
	_      [(128 - shardBytes%128) % 128]byte
}

// Inc bumps one counter.
func (s *Shard) Inc(id int) { s.c[id]++ }

// Add bumps one counter by delta.
func (s *Shard) Add(id int, delta int64) { s.c[id] += delta }

// Get reads one counter (owner or post-join only).
func (s *Shard) Get(id int) int64 { return s.c[id] }

// Publish refreshes one counter's live mirror from its plain value.
// Owner-only; call at coarse checkpoints (block claims, ctx polls), not
// per element. No-op unless the mirrors are armed.
func (s *Shard) Publish(id int) {
	if s.liveOn {
		s.live[id].Store(s.c[id])
	}
}

// PublishAll refreshes every live mirror. Owner-only; same checkpoint
// discipline as Publish.
func (s *Shard) PublishAll() {
	if !s.liveOn {
		return
	}
	for i := range s.c {
		s.live[i].Store(s.c[i])
	}
}

// Live reads one counter's mirror. Safe from any goroutine at any time;
// the value trails the owner's plain counter by at most one checkpoint
// and never decreases within a run.
func (s *Shard) Live(id int) int64 { return s.live[id].Load() }

// ShardSet is the per-run collection of worker shards.
type ShardSet struct {
	shards []Shard
}

// NewShardSet allocates one padded shard per worker.
func NewShardSet(workers int) *ShardSet {
	return &ShardSet{shards: make([]Shard, workers)}
}

// Shard returns worker w's shard.
func (s *ShardSet) Shard(w int) *Shard { return &s.shards[w] }

// Total folds one counter across workers. Call after the workers join.
func (s *ShardSet) Total(id int) int64 {
	var sum int64
	for w := range s.shards {
		sum += s.shards[w].c[id]
	}
	return sum
}

// Workers returns the number of shards.
func (s *ShardSet) Workers() int { return len(s.shards) }

// Reset zeroes every counter so a pooled ShardSet can serve a new run,
// disarms the live mirrors and clears them. Call only between runs (no
// concurrent shard owners; the run registry detaches readers first).
func (s *ShardSet) Reset() {
	for w := range s.shards {
		sh := &s.shards[w]
		sh.c = [NumCounters]int64{}
		if sh.liveOn {
			sh.liveOn = false
			for i := range sh.live {
				sh.live[i].Store(0)
			}
		}
	}
}

// EnableLive arms every shard's live mirror for the coming run. Call
// before the worker goroutines spawn (goroutine creation publishes the
// flag to the owners).
func (s *ShardSet) EnableLive() {
	for w := range s.shards {
		s.shards[w].liveOn = true
	}
}

// LiveTotal folds one counter's live mirrors across workers. Safe
// mid-run from any goroutine.
func (s *ShardSet) LiveTotal(id int) int64 {
	var sum int64
	for w := range s.shards {
		sum += s.shards[w].live[id].Load()
	}
	return sum
}

// LivePerWorker returns one counter's per-worker live mirrors as a
// fresh slice. Scrape path only — allocates.
func (s *ShardSet) LivePerWorker(id int) []int64 {
	out := make([]int64, len(s.shards))
	for w := range s.shards {
		out[w] = s.shards[w].live[id].Load()
	}
	return out
}

// PerWorker returns one counter's per-worker values as a fresh slice.
func (s *ShardSet) PerWorker(id int) []int64 { return s.PerWorkerInto(id, nil) }

// PerWorkerInto is PerWorker writing into out when it has the capacity
// (allocation-free stat folding for pooled scratch); out == nil or too
// small allocates.
func (s *ShardSet) PerWorkerInto(id int, out []int64) []int64 {
	if cap(out) < len(s.shards) {
		out = make([]int64, len(s.shards))
	}
	out = out[:len(s.shards)]
	for w := range s.shards {
		out[w] = s.shards[w].c[id]
	}
	return out
}
