// Package graph implements the compressed sparse row (CSR) graph
// representation used throughout BitColor (paper §2.1, Fig 2), plus
// construction, validation, statistics and I/O.
//
// A graph has VERTEX_NUMBER vertices identified by dense uint32 indices.
// Offsets has one entry per vertex plus a terminator: the neighbors of
// vertex v are Edges[Offsets[v]:Offsets[v+1]]. All graphs in the paper are
// undirected; an undirected CSR stores each edge in both directions.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// VertexID is a dense vertex index. The paper uses 32-bit indices (the
// largest dataset, com-Friendster, has 65.6M vertices).
type VertexID = uint32

// CSR is a graph in compressed sparse row format.
type CSR struct {
	// Offsets has length NumVertices+1; Offsets[v] is the index in Edges
	// of the first neighbor of v (the paper's s_e; d_e is Offsets[v+1]).
	Offsets []int64
	// Edges stores destination vertex indices.
	Edges []VertexID

	// backing, when set, owns the storage Offsets/Edges alias (an mmap'd
	// BCSR v2 file) — the graph is valid only until backing is closed.
	// Engines never look at it; it exists so handle types can tell a
	// mapped view from an owned copy.
	backing interface{ Close() error }
}

// Backed reports whether the CSR's payload aliases externally owned
// storage (an open mmap region) rather than process-owned slices.
func (g *CSR) Backed() bool { return g.backing != nil }

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int {
	if len(g.Offsets) == 0 {
		return 0
	}
	return len(g.Offsets) - 1
}

// NumEdges returns the number of stored (directed) edges. For an
// undirected graph built by FromEdgeList this is twice the number of
// undirected edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.Edges)) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v VertexID) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the adjacency slice of v. The slice aliases the CSR
// storage; callers must not modify it unless they own the graph.
func (g *CSR) Neighbors(v VertexID) []VertexID {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// EdgeRange returns the paper's (s_e, d_e) pair for v: the start and end
// indices of v's neighbors in the Edges array.
func (g *CSR) EdgeRange(v VertexID) (se, de int64) {
	return g.Offsets[v], g.Offsets[v+1]
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether u has v in its adjacency list. It uses binary
// search when u's edges are sorted and falls back to a linear scan
// otherwise.
func (g *CSR) HasEdge(u, v VertexID) bool {
	adj := g.Neighbors(u)
	if len(adj) == 0 {
		return false
	}
	if sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
		return i < len(adj) && adj[i] == v
	}
	for _, w := range adj {
		if w == v {
			return true
		}
	}
	return false
}

// Validate checks structural invariants: monotone offsets covering Edges
// exactly, and every destination within range. It returns the first
// violation found.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if len(g.Offsets) == 0 {
		if len(g.Edges) != 0 {
			return fmt.Errorf("graph: %d edges with empty offsets", len(g.Edges))
		}
		return nil
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: Offsets[0] = %d, want 0", g.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d (%d > %d)",
				v, g.Offsets[v], g.Offsets[v+1])
		}
	}
	if g.Offsets[n] != int64(len(g.Edges)) {
		return fmt.Errorf("graph: Offsets[%d] = %d, want len(Edges) = %d",
			n, g.Offsets[n], len(g.Edges))
	}
	for i, d := range g.Edges {
		if int(d) >= n {
			return fmt.Errorf("graph: edge %d destination %d out of range (n=%d)", i, d, n)
		}
	}
	return nil
}

// IsUndirected reports whether every stored edge has its reverse present.
// O(E log d); intended for tests and dataset sanity checks.
func (g *CSR) IsUndirected() bool {
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if !g.HasEdge(w, VertexID(v)) {
				return false
			}
		}
	}
	return true
}

// HasSelfLoops reports whether any vertex lists itself as a neighbor.
func (g *CSR) HasSelfLoops() bool {
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if w == VertexID(v) {
				return true
			}
		}
	}
	return false
}

// EdgesSorted reports whether every vertex's adjacency list is in
// ascending destination order — the paper's preprocessing invariant for
// DRAM read merging (§3.2.2) and tail pruning.
func (g *CSR) EdgesSorted() bool {
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(VertexID(v))
		for i := 1; i < len(adj); i++ {
			if adj[i-1] > adj[i] {
				return false
			}
		}
	}
	return true
}

// SortEdges sorts every adjacency list ascending in place.
func (g *CSR) SortEdges() {
	for v := 0; v < g.NumVertices(); v++ {
		slices.Sort(g.Neighbors(VertexID(v)))
	}
}

// Clone returns a deep copy of the graph.
func (g *CSR) Clone() *CSR {
	return &CSR{
		Offsets: append([]int64(nil), g.Offsets...),
		Edges:   append([]VertexID(nil), g.Edges...),
	}
}

// String summarizes the graph for logs.
func (g *CSR) String() string {
	return fmt.Sprintf("CSR{V=%d, E=%d}", g.NumVertices(), g.NumEdges())
}

// Edge is one undirected edge; used by builders and I/O.
type Edge struct {
	U, V VertexID
}

// FromEdgeList builds an undirected CSR over n vertices from an edge list.
// Each undirected edge {u,v} is stored in both adjacency lists. Self loops
// are dropped (a self loop would make coloring infeasible) and duplicate
// edges are removed. Adjacency lists come out sorted ascending. The
// first edge out of range fails the build; edges is only read.
//
// The build is three counting scatters and no comparison sort. A sorted
// list is the vertex's lower neighbors, then its upper ones. The first
// scatter files each edge's smaller endpoint under its larger one, in
// input order. Walking those files by ascending larger endpoint writes
// every upper half in order; walking the upper halves by ascending
// vertex then writes every lower half in order. Duplicates are then
// adjacent and dedupSorted drops them. The work is O(V + E), and the
// scratch is one entry per edge, where a transpose of both directions
// would need two: an edge-list load peaks in memory inside this build.
func FromEdgeList(n int, edges []Edge) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	// offsets[v+1] counts v's neighbors; belowOff[v+1] those below v.
	offsets := make([]int64, n+1)
	belowOff := make([]int64, n+1)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n)
		}
		if e.U != e.V {
			offsets[int(e.U)+1]++
			offsets[int(e.V)+1]++
			belowOff[int(max(e.U, e.V))+1]++
		}
	}
	for v := range n {
		offsets[v+1] += offsets[v]
		belowOff[v+1] += belowOff[v]
	}
	next := make([]int64, n)
	copy(next, belowOff)
	below := make([]VertexID, belowOff[n])
	for _, e := range edges {
		if e.U != e.V {
			hi := max(e.U, e.V)
			below[next[hi]] = min(e.U, e.V)
			next[hi]++
		}
	}
	// upper returns where v's upper half starts in adj.
	upper := func(v int) int64 { return offsets[v] + belowOff[v+1] - belowOff[v] }
	adj := make([]VertexID, offsets[n])
	for v := range n {
		next[v] = upper(v)
	}
	for hi := range n {
		for _, lo := range below[belowOff[hi]:belowOff[hi+1]] {
			adj[next[lo]] = VertexID(hi)
			next[lo]++
		}
	}
	copy(next, offsets)
	for lo := range n {
		for _, hi := range adj[upper(lo):offsets[lo+1]] {
			adj[next[hi]] = VertexID(lo)
			next[hi]++
		}
	}
	g := &CSR{Offsets: offsets, Edges: adj}
	g.dedupSorted()
	return g, nil
}

// FromDirectedEdgeList builds a CSR storing each edge exactly as given
// (no reverse edge, no dedup). Used by tests that need precise layouts.
func FromDirectedEdgeList(n int, edges []Edge) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int64, n)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n)
		}
		deg[e.U]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]VertexID, offsets[n])
	fill := make([]int64, n)
	for _, e := range edges {
		adj[offsets[e.U]+fill[e.U]] = e.V
		fill[e.U]++
	}
	return &CSR{Offsets: offsets, Edges: adj}, nil
}

// dedupSorted removes duplicate destinations from each (sorted) adjacency
// list, compacting storage.
func (g *CSR) dedupSorted() {
	n := g.NumVertices()
	newOffsets := make([]int64, n+1)
	w := int64(0)
	for v := 0; v < n; v++ {
		newOffsets[v] = w
		adj := g.Neighbors(VertexID(v))
		var prev VertexID
		first := true
		for _, d := range adj {
			if first || d != prev {
				g.Edges[w] = d
				w++
			}
			prev, first = d, false
		}
	}
	newOffsets[n] = w
	g.Offsets = newOffsets
	g.Edges = g.Edges[:w]
}

// UndirectedEdgeCount returns the number of undirected edges (stored
// directed edges / 2) assuming the graph is a symmetric simple graph.
func (g *CSR) UndirectedEdgeCount() int64 { return g.NumEdges() / 2 }

// CollectEdges returns each undirected edge once (u < v). Intended for
// I/O and tests, not hot paths.
func (g *CSR) CollectEdges() []Edge {
	var out []Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < w {
				out = append(out, Edge{U: VertexID(v), V: w})
			}
		}
	}
	return out
}
