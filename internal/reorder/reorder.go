// Package reorder implements BitColor's preprocessing: degree-based
// grouping (DBG) reordering (paper §3.2.2, after Faldu et al.), which
// also leaves every adjacency list ascending for DRAM read merging, and
// permutation utilities.
//
// DBG renames vertices in descending order of degree so that a smaller
// vertex index implies a higher degree. Two BitColor mechanisms rely on
// that invariant:
//
//   - the high-degree vertex cache holds colors of vertices with index
//     below the threshold v_t, so the hottest color data is on-chip;
//   - uncolored-vertex pruning compares neighbor index against the current
//     vertex index to skip not-yet-colored neighbors.
package reorder

import (
	"fmt"

	"bitcolor/internal/graph"
)

// Permutation maps old vertex IDs to new vertex IDs: NewID[old] = new.
type Permutation struct {
	NewID []graph.VertexID
	OldID []graph.VertexID
}

// Identity returns the identity permutation over n vertices.
func Identity(n int) *Permutation {
	p := &Permutation{
		NewID: make([]graph.VertexID, n),
		OldID: make([]graph.VertexID, n),
	}
	for i := 0; i < n; i++ {
		p.NewID[i] = graph.VertexID(i)
		p.OldID[i] = graph.VertexID(i)
	}
	return p
}

// Validate checks that the permutation is a bijection with a consistent
// inverse.
func (p *Permutation) Validate() error {
	n := len(p.NewID)
	if len(p.OldID) != n {
		return fmt.Errorf("reorder: NewID/OldID length mismatch %d vs %d", n, len(p.OldID))
	}
	seen := make([]bool, n)
	for old, nw := range p.NewID {
		if int(nw) >= n {
			return fmt.Errorf("reorder: NewID[%d] = %d out of range", old, nw)
		}
		if seen[nw] {
			return fmt.Errorf("reorder: new ID %d assigned twice", nw)
		}
		seen[nw] = true
		if p.OldID[nw] != graph.VertexID(old) {
			return fmt.Errorf("reorder: inverse mismatch at old %d", old)
		}
	}
	return nil
}

// DegreeDescending computes the DBG permutation: vertices sorted by
// descending degree, ties broken by ascending old ID for determinism.
// Implemented as a counting sort over degrees — O(V + maxDegree) — since
// preprocessing cost is itself an evaluation subject (Table 2).
func DegreeDescending(g *graph.CSR) *Permutation {
	n := g.NumVertices()
	maxDeg := 0
	degs := make([]int, n)
	for v := 0; v < n; v++ {
		degs[v] = g.Degree(graph.VertexID(v))
		if degs[v] > maxDeg {
			maxDeg = degs[v]
		}
	}
	// counts[d] = number of vertices with degree d; prefix from the top
	// gives each degree class its slot range in descending order.
	counts := make([]int, maxDeg+2)
	for _, d := range degs {
		counts[d]++
	}
	start := make([]int, maxDeg+2)
	acc := 0
	for d := maxDeg; d >= 0; d-- {
		start[d] = acc
		acc += counts[d]
	}
	order := make([]graph.VertexID, n)
	for v := 0; v < n; v++ { // ascending v preserves the ID tie-break
		d := degs[v]
		order[start[d]] = graph.VertexID(v)
		start[d]++
	}
	p := &Permutation{
		NewID: make([]graph.VertexID, n),
		OldID: order,
	}
	for nw, old := range order {
		p.NewID[old] = graph.VertexID(nw)
	}
	return p
}

// Apply returns a new graph with vertices renamed through p, which must
// be a valid permutation in both directions. Adjacency lists of the
// result are sorted ascending (the paper performs edge sorting as part
// of preprocessing anyway), by graph.Relabel's counting scatter rather
// than a sort.
func Apply(g *graph.CSR, p *Permutation) *graph.CSR {
	return graph.Relabel(g, p.NewID, p.OldID)
}

// DBG runs the full degree-based-grouping preprocessing: compute the
// descending-degree permutation, apply it, and return the reordered graph
// together with the permutation (callers need it to translate colors back
// to original IDs).
func DBG(g *graph.CSR) (*graph.CSR, *Permutation) {
	p := DegreeDescending(g)
	return Apply(g, p), p
}

// IsDegreeDescending reports whether vertex degrees are non-increasing in
// index order — the invariant DBG establishes and BitColor's pruning and
// caching rely on.
func IsDegreeDescending(g *graph.CSR) bool {
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(graph.VertexID(v)) > g.Degree(graph.VertexID(v-1)) {
			return false
		}
	}
	return true
}

// ShuffleEdges randomizes the order within each adjacency list using a
// deterministic LCG; used by experiments to measure the cost of *not*
// sorting edges (Table 4, Fig 11 MGR ablation). It resets the graph's
// sortedness memo; its symmetry record stands, since only order changes.
func ShuffleEdges(g *graph.CSR, seed int64) {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(graph.VertexID(v))
		for i := len(adj) - 1; i > 0; i-- {
			j := next(i + 1)
			adj[i], adj[j] = adj[j], adj[i]
		}
	}
	g.ResetSorted()
}
