package graph

// Parallel per-vertex sorting, for a CSR whose lists arrive unsorted
// (a binary file not written by FromEdgeList). FromEdgeList itself needs
// no sort: its counting scatters write every list sorted.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Parallelization threshold: below this size the coordination overhead
// outweighs the win and the sequential code runs instead.
const (
	parallelSortMinVertices = 1 << 10
	// vertexBlock is the granularity at which workers claim vertex ranges
	// from the shared cursor.
	vertexBlock = 512
)

// normWorkers resolves a worker count: <=0 means GOMAXPROCS.
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// SortEdgesParallel sorts every adjacency list ascending in place using
// `workers` goroutines (<=0: GOMAXPROCS) claiming vertexBlock-sized
// ranges from a shared cursor, so a few mega-degree lists cannot strand
// one worker.
func (g *CSR) SortEdgesParallel(workers int) {
	workers = normWorkers(workers)
	n := g.NumVertices()
	if workers == 1 || n < parallelSortMinVertices {
		g.SortEdges()
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(vertexBlock)) - vertexBlock
				if lo >= n {
					return
				}
				for v := lo; v < min(lo+vertexBlock, n); v++ {
					slices.Sort(g.Neighbors(VertexID(v)))
				}
			}
		}()
	}
	wg.Wait()
	g.MarkSorted()
}
