package reorder

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bitcolor/internal/graph"
)

// Parallel relabeling. Apply dominates DBG preprocessing cost (it streams
// every edge twice: once to translate, once to sort); both passes
// parallelize cleanly because each source vertex owns a disjoint
// destination range in the output CSR. DBGParallel produces output
// identical to DBG (enforced by equivalence tests): the permutation is
// computed by the same deterministic counting sort, and per-range sorting
// canonicalizes edge order exactly as Apply's global sort does.

// parallelApplyMinVertices gates the parallel path: tiny graphs relabel
// faster sequentially than they spawn goroutines.
const parallelApplyMinVertices = 1 << 10

// relabelBlock is the vertex-range granularity workers claim from the
// shared cursor during the translate+sort pass.
const relabelBlock = 256

// ApplyParallel is Apply using `workers` goroutines (<=0: GOMAXPROCS).
// The returned graph is identical to Apply's on the same inputs.
func ApplyParallel(g *graph.CSR, p *Permutation, workers int) *graph.CSR {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if workers == 1 || n < parallelApplyMinVertices {
		return Apply(g, p)
	}
	// Degree scatter: every old vertex writes one distinct offsets slot.
	offsets := make([]int64, n+1)
	parallelOldRanges(n, workers, func(lo, hi int) {
		for old := lo; old < hi; old++ {
			offsets[p.NewID[old]+1] = int64(g.Degree(graph.VertexID(old)))
		}
	})
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	// Translate + sort: each old vertex owns the output range of its new
	// ID, so workers claiming blocks of old IDs never write overlapping
	// regions, and sorting the region immediately keeps it cache-hot.
	edges := make([]graph.VertexID, g.NumEdges())
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(relabelBlock)) - relabelBlock
				if lo >= n {
					return
				}
				hi := min(lo+relabelBlock, n)
				for old := lo; old < hi; old++ {
					nw := p.NewID[old]
					dst := edges[offsets[nw]:offsets[nw+1]]
					for i, d := range g.Neighbors(graph.VertexID(old)) {
						dst[i] = p.NewID[d]
					}
					slices.Sort(dst)
				}
			}
		}()
	}
	wg.Wait()
	out := &graph.CSR{Offsets: offsets, Edges: edges}
	out.MarkSorted()
	return out
}

// DBGParallel is DBG with the relabel pass parallelized across `workers`
// goroutines (<=0: GOMAXPROCS). It returns the reordered graph and the
// permutation carrying both directions of the renaming (NewID and its
// inverse OldID). Output is identical to DBG's.
func DBGParallel(g *graph.CSR, workers int) (*graph.CSR, *Permutation) {
	p := DegreeDescending(g)
	return ApplyParallel(g, p, workers), p
}

// parallelOldRanges splits [0,n) into one contiguous range per worker.
func parallelOldRanges(n, workers int, fn func(lo, hi int)) {
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		if lo >= n {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+per, n))
	}
	wg.Wait()
}
