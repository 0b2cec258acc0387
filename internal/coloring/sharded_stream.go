package coloring

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
)

// The out-of-core executor is DCT over a window of consecutive range
// shards read from a BCSR v3 handle. With range shards every
// lower-indexed neighbor of a vertex in shard s lies in a shard ≤ s, so
// streaming the shards in index order under DCT's lower-index-wins rule
// colors every vertex in one pass: each shard is mapped once, its ID
// range is colored by DCT's owner-computes loop reading adjacency from
// the mapping, and a wait on a vertex of an earlier shard that is still
// in the window parks on the forwarding ring like any other DCT wait.
// There is no frontier phase, and the boundary blocks the v3 writer
// persists are never mapped. The only whole-graph arrays a streamed run
// holds are the parts vector (resident in the handle since open), the
// shared color array and the colors buffer — all O(V); the O(E)
// adjacency streams through the residency window. The result is
// sequential greedy's coloring at every (shards × residency × workers)
// combination, byte-identical to the in-core sharded engine.

// ErrUnorderedShards is returned, before any shard is mapped, by an
// out-of-core run on a v3 file whose partition is not index-ordered
// ranges (a labelprop file): only range shards stream in one ordered
// pass. Such a file still colors in core.
var ErrUnorderedShards = errors.New("coloring: out-of-core streaming needs range shards in vertex-index order; open this v3 file with OpenGraphFile to color it in core")

// streamResidency resolves the bounded-residency limit: <=0 means one
// shard at a time, and the limit never exceeds the file's shard count.
func streamResidency(opts Options) int {
	r := opts.MaxResidentShards
	if r <= 0 {
		r = 1
	}
	if opts.ShardFile != nil {
		if k := opts.ShardFile.Shards(); k > 0 && r > k {
			r = k
		}
	}
	return r
}

// shardedStream runs the sharded engine out of core against
// opts.ShardFile. streamResidency runner goroutines claim shards from
// one cursor, so shards are claimed in index order; each runner maps
// its shard, colors the shard's ID range [lo, hi) with opts.Workers
// goroutines under DCT's pattern-p schedule (worker w owns lo+w,
// lo+w+P, …), and unmaps it before claiming the next. The runner count
// bounds concurrent mappings — the residency invariant — and in-order
// claiming keeps every wait finite: the lowest unfinished shard is
// always mapped, and its lowest unfinished vertex can always finish.
func shardedStream(ctx context.Context, maxColors int, opts Options) (*Result, metrics.RunStats, error) {
	sf := opts.ShardFile
	n := sf.NumVertices()
	parts := sf.Parts()
	if len(parts) != n {
		return nil, metrics.RunStats{}, fmt.Errorf("coloring: v3 partition covers %d of %d vertices", len(parts), n)
	}
	if !slices.IsSorted(parts) {
		return nil, metrics.RunStats{}, ErrUnorderedShards
	}
	workers := resolveWorkers(opts.Workers, n)
	shards := sf.Shards()
	resident := streamResidency(opts)
	sc := opts.Scratch
	if !sc.fits("sharded", workers) {
		sc = nil
	}

	// One lane per (shard, worker), exactly as in core — the stats fold
	// and /debug/runs mirrors are shape-identical across the two
	// executors. The stream reports no gather statistics.
	flat := shards * workers
	f := newFrame(opts, sc, n, flat, maxColors, ForwardRingCap)
	st := metrics.RunStats{
		Workers:          workers,
		Shards:           shards,
		BoundaryVertices: sf.Boundary(),
		CutEdges:         sf.CutEdges(),
		ResidentShards:   resident,
	}
	shared := f.shared
	run := newOwnerRun(ctx, opts.Obs, shared)

	laneDur := f.laneDurs()
	var nextShard atomic.Int64
	mapErrs := make([]error, resident)
	exec.Go(resident, func(runner int) {
		for !run.abort.Load() && ctx.Err() == nil {
			shard := int(nextShard.Add(1)) - 1
			if shard >= shards {
				return
			}
			// parts is sorted, so shard s is the ID range [lo, hi).
			lo, _ := slices.BinarySearch(parts, int32(shard))
			hi, _ := slices.BinarySearch(parts, int32(shard+1))
			sm, err := sf.MapShard(shard)
			if err == nil && len(sm.VMap) != hi-lo {
				// MapShard proved every VMap entry is a shard vertex;
				// a short one would leave a vertex uncolored and its
				// higher neighbors waiting on it.
				err = fmt.Errorf("coloring: v3 shard %d maps %d of its %d vertices (corrupt file)", shard, len(sm.VMap), hi-lo)
				sm.Close()
			}
			if err != nil {
				mapErrs[runner] = err
				run.abort.Store(true)
				return
			}
			// The break at u > v needs ascending lists, which MapShard
			// counted from the shard's data (never the header's flag).
			sorted := sm.Sorted()
			shardStart := time.Now()
			exec.Go(workers, func(w int) {
				idx := shard*workers + w
				s := f.ws[idx]
				loop := run.loop(s, func(v graph.VertexID) (graph.VertexID, exec.Outcome) {
					return dctAttempt(s, shared, v, sm.Neighbors(int(v)-lo), sorted, false)
				})
				s.err = loop.RunRange(lo+w, workers, hi)
				laneDur[idx] = time.Since(shardStart)
			})
			sm.Close()
		}
	})

	f.fold(&st)
	st.PeakMappedBytes = sf.Stats().PeakResidentBytes
	f.foldShards(&st, laneDur, shards, workers)

	for _, err := range mapErrs {
		if err != nil {
			return nil, st, err
		}
	}
	if err := f.err(); err != nil {
		return nil, st, err
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	if rsp := oneRound(opts, n, &st); rsp != nil {
		rsp.Attr("shards", int64(shards)).Attr("cut_edges", st.CutEdges).
			Attr("resident_shards", int64(resident)).End()
	}
	return f.finish(), st, nil
}
