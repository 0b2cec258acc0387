package coloring

import (
	"fmt"
	"sort"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
)

// Verify checks that the assignment is a proper coloring: every vertex is
// colored and no two adjacent vertices share a color. It returns the
// first violation found, scanning vertices in index order on the calling
// goroutine.
func Verify(g *graph.CSR, colors []uint16) error { return VerifyParallel(g, colors, 1) }

// VerifyParallel is Verify split across `workers` goroutines (<=1: the
// calling goroutine alone). The vertices are cut into contiguous ranges
// of equal work (adjacency entries plus vertices), each worker stops at
// its range's first violation, and the lowest range's violation wins —
// so the error is exactly the one Verify returns.
func VerifyParallel(g *graph.CSR, colors []uint16, workers int) error {
	if n := g.NumVertices(); len(colors) != n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
	}
	return verifySplit(g.Offsets, g.Edges, nil, colors, workers)
}

// VerifySharded is Verify streamed through a BCSR v3 handle: every
// vertex colored, no adjacent pair sharing a color, checked one shard
// mapping at a time (each shard's section holds the full global
// adjacency of its vertices, so the sweep covers every directed entry
// without materializing the CSR).
func VerifySharded(sf *graph.ShardedFile, colors []uint16) error {
	return VerifyShardedParallel(sf, colors, 1)
}

// VerifyShardedParallel is VerifySharded with each mapped shard split
// across `workers` goroutines as VerifyParallel splits a graph. Shards
// are still mapped one at a time, in order, so the error is exactly the
// one VerifySharded returns and residency stays at one shard.
func VerifyShardedParallel(sf *graph.ShardedFile, colors []uint16, workers int) error {
	n := sf.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
	}
	for shard := 0; shard < sf.Shards(); shard++ {
		sm, err := sf.MapShard(shard)
		if err != nil {
			return err
		}
		if err := verifySplit(sm.Offsets, sm.Edges, sm.VMap, colors, workers); err != nil {
			sm.Close()
			return err
		}
		if err := sm.Close(); err != nil {
			return err
		}
	}
	return nil
}

// verifySplit checks positions [0, len(offsets)-1) of an adjacency
// layout in `workers` contiguous ranges of equal work and returns the
// lowest range's first violation. Position i is vertex vmap[i] (i itself
// when vmap is nil) with neighbors edges[offsets[i]:offsets[i+1]].
func verifySplit(offsets []int64, edges, vmap []graph.VertexID, colors []uint16, workers int) error {
	m := max(len(offsets)-1, 0)
	workers = min(workers, m)
	if workers <= 1 {
		return verifyRange(offsets, edges, vmap, colors, 0, m)
	}
	errs := make([]error, workers)
	exec.Go(workers, func(w int) {
		lo, hi := verifyCut(offsets, workers, w), verifyCut(offsets, workers, w+1)
		errs[w] = verifyRange(offsets, edges, vmap, colors, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyCut returns the first position of range w when the positions of
// offsets are cut into `workers` ranges of equal work; the work before
// position i is offsets[i] adjacency entries plus i vertices.
func verifyCut(offsets []int64, workers, w int) int {
	m := len(offsets) - 1
	target := (offsets[m] + int64(m)) * int64(w) / int64(workers)
	return sort.Search(m, func(i int) bool { return offsets[i]+int64(i) >= target })
}

// verifyRange is the sequential check of positions [lo, hi).
func verifyRange(offsets []int64, edges, vmap []graph.VertexID, colors []uint16, lo, hi int) error {
	for i := lo; i < hi; i++ {
		v := graph.VertexID(i)
		if vmap != nil {
			v = vmap[i]
		}
		cv := colors[v]
		if cv == 0 {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		for _, w := range edges[offsets[i]:offsets[i+1]] {
			if colors[w] == cv {
				return fmt.Errorf("coloring: adjacent vertices %d and %d share color %d", v, w, cv)
			}
		}
	}
	return nil
}
