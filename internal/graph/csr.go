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
	"sync/atomic"
)

// VertexID is a dense vertex index. The paper uses 32-bit indices (the
// largest dataset, com-Friendster, has 65.6M vertices).
type VertexID = uint32

// CSR is a graph in compressed sparse row format.
//
// Adjacency must not be rewritten in place once the graph is in use,
// except through SortEdges: engines assume an immutable graph during a
// run, and EdgesSorted memoizes its answer on the graph. Code that
// reorders lists some other way calls ResetSorted.
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

	// sorted memoizes EdgesSorted: sortUnknown until a scan, Validate,
	// a sort or a sorting builder records the answer. Atomic, so two
	// goroutines may use a fresh graph at once.
	sorted atomic.Uint32
	// symmetric records that every list holds v exactly as often as v's
	// list holds the list's owner; false means unknown. FromEdgeList and
	// a relabel of a recorded graph set it, and Relabel reads it. Only
	// the entries' order may change after first use, so the record never
	// goes stale.
	symmetric atomic.Bool
}

// Values of CSR.sorted.
const (
	sortUnknown uint32 = iota
	sortYes
	sortNo
)

// recordSorted memoizes the answer EdgesSorted would compute.
func (g *CSR) recordSorted(sorted bool) {
	if sorted {
		g.sorted.Store(sortYes)
	} else {
		g.sorted.Store(sortNo)
	}
}

// MarkSorted records that every adjacency list is ascending, for
// builders that sort each list as they write it; EdgesSorted then
// answers without a scan. The caller vouches for the claim.
func (g *CSR) MarkSorted() { g.sorted.Store(sortYes) }

// ResetSorted forgets the memoized sortedness after adjacency was
// reordered in place by anything other than SortEdges.
func (g *CSR) ResetSorted() { g.sorted.Store(sortUnknown) }

// SortednessKnown reports whether EdgesSorted will answer from the memo,
// without scanning the adjacency.
func (g *CSR) SortednessKnown() bool { return g.sorted.Load() != sortUnknown }

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
// search when the graph's edges are sorted (EdgesSorted, so the memo
// answers after the first call) and a linear scan otherwise.
func (g *CSR) HasEdge(u, v VertexID) bool {
	adj := g.Neighbors(u)
	if g.EdgesSorted() {
		_, found := slices.BinarySearch(adj, v)
		return found
	}
	return slices.Contains(adj, v)
}

// Validate checks structural invariants: monotone offsets covering Edges
// exactly, and every destination within range. It returns the first
// violation found, and records whether every adjacency list is sorted
// (see checkLists), so the first EdgesSorted after a load costs nothing.
func (g *CSR) Validate() error {
	if len(g.Offsets) == 0 {
		if len(g.Edges) != 0 {
			return fmt.Errorf("graph: %d edges with empty offsets", len(g.Edges))
		}
		return nil
	}
	sorted, err := checkLists(g.Offsets, g.Edges, uint64(g.NumVertices()), descents(g.Edges))
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	g.recordSorted(sorted)
	return nil
}

// checkLists checks the lists that offsets cut edges into: offsets
// start at 0, never decrease and end at len(edges), and every
// destination is below n. desc is the number of descents in edges (an
// entry below its predecessor; see descents), from which checkLists
// also reports whether every list is sorted: the offsets pass counts
// the list starts that hold a descent, and when they account for all
// descents every list ascends. A sorted list's last entry is its
// maximum, so the range check then reads only last entries; a
// violation, or an unsorted list, re-scans in order so the error names
// the first bad entry. Errors carry no package prefix.
func checkLists(offsets []int64, edges []VertexID, n uint64, desc int) (sorted bool, err error) {
	if offsets[0] != 0 {
		return false, fmt.Errorf("Offsets[0] = %d, want 0", offsets[0])
	}
	last := len(offsets) - 1
	ne := int64(len(edges))
	atStarts := 0
	var top VertexID // largest last entry of a non-empty list
	for v := 0; v < last; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if hi < lo {
			return false, fmt.Errorf("offsets not monotone at vertex %d (%d > %d)", v, lo, hi)
		}
		// An offset past len(edges) fails the terminator check below,
		// so skipping such a list here loses nothing.
		if lo < hi && hi <= ne {
			if lo > 0 && edges[lo] < edges[lo-1] {
				atStarts++
			}
			top = max(top, edges[hi-1])
		}
	}
	if offsets[last] != ne {
		return false, fmt.Errorf("Offsets[%d] = %d, want len(Edges) = %d", last, offsets[last], ne)
	}
	sorted = desc == atStarts
	if !sorted || (ne > 0 && uint64(top) >= n) {
		for i, d := range edges {
			if uint64(d) >= n {
				return false, fmt.Errorf("edge %d destination %d out of range (n=%d)", i, d, n)
			}
		}
	}
	return sorted, nil
}

// descents counts the entries of es below their predecessor. The count
// is branch-free: the difference of two zero-extended 32-bit values has
// its top bit set exactly when it is negative. Each step reads a
// five-entry window (one bounds check for four comparisons) into four
// independent sums, and the function stays out of line: inlined into a
// caller with more live values, the loop spills to the stack and runs
// ~1.5× slower.
//
//go:noinline
func descents(es []VertexID) int {
	var d0, d1, d2, d3 uint64
	i := 0
	for ; i+5 <= len(es); i += 4 {
		w := es[i : i+5 : i+5]
		d0 += (uint64(w[1]) - uint64(w[0])) >> 63
		d1 += (uint64(w[2]) - uint64(w[1])) >> 63
		d2 += (uint64(w[3]) - uint64(w[2])) >> 63
		d3 += (uint64(w[4]) - uint64(w[3])) >> 63
	}
	for ; i+1 < len(es); i++ {
		d0 += (uint64(es[i+1]) - uint64(es[i])) >> 63
	}
	return int(d0 + d1 + d2 + d3)
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
// DRAM read merging (§3.2.2) and tail pruning. Sortedness is a fact of
// the graph, not of a run: the first call scans, unless Validate, a
// sort or a sorting builder already recorded the answer, and every
// later call reads the memo.
func (g *CSR) EdgesSorted() bool {
	switch g.sorted.Load() {
	case sortYes:
		return true
	case sortNo:
		return false
	}
	sorted := g.scanSorted()
	g.recordSorted(sorted)
	return sorted
}

// scanSorted is EdgesSorted's O(E) scan.
func (g *CSR) scanSorted() bool {
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
	g.MarkSorted()
}

// Clone returns a deep copy of the graph. Its sortedness starts
// unknown, so a caller may reorder the copy's lists before first use.
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
	g.MarkSorted()
	g.symmetric.Store(true)
	return g, nil
}

// Relabel returns g with every vertex renamed: old becomes newID[old],
// and oldID is the inverse renaming. Each list of the result is
// ascending and keeps its entries' multiplicity, so the result equals
// renaming every list and sorting it. g is only read.
//
// The relabel is a counting scatter and no comparison sort. Walking the
// new IDs x in ascending order, it appends x to the list of each
// neighbor's new ID, so every list is written in order. That writes the
// transpose of the relabeled graph, which is the relabeled graph itself
// when g is symmetric. A graph recorded as symmetric (FromEdgeList's
// output, or a relabel of it) takes the one scatter and allocates only
// the result. Any other graph is transposed first by the same scatter
// without the renaming, since the transpose of the transpose is g.
// Either way the work is O(V + E).
func Relabel(g *CSR, newID, oldID []VertexID) *CSR {
	n := g.NumVertices()
	symmetric := g.symmetric.Load()
	src := g
	if !symmetric {
		src = transpose(g)
	}
	// List x holds the renamed list of oldID[x], so it takes that
	// vertex's degree, which is also its in-degree in src.
	offsets := make([]int64, n+1)
	for x, old := range oldID {
		offsets[x+1] = offsets[x] + g.Offsets[old+1] - g.Offsets[old]
	}
	edges := make([]VertexID, len(g.Edges))
	for x, old := range oldID {
		for _, w := range src.Neighbors(old) {
			y := newID[w]
			edges[offsets[y]] = VertexID(x)
			offsets[y]++
		}
	}
	shiftBack(offsets)
	out := &CSR{Offsets: offsets, Edges: edges}
	out.MarkSorted()
	out.symmetric.Store(symmetric)
	return out
}

// transpose returns g with every stored edge reversed, each list
// ascending: Relabel's scatter under the identity renaming, with the
// lists sized by in-degree.
func transpose(g *CSR) *CSR {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for _, w := range g.Edges {
		offsets[w+1]++
	}
	for v := range n {
		offsets[v+1] += offsets[v]
	}
	edges := make([]VertexID, len(g.Edges))
	for v := range n {
		for _, w := range g.Neighbors(VertexID(v)) {
			edges[offsets[w]] = VertexID(v)
			offsets[w]++
		}
	}
	shiftBack(offsets)
	return &CSR{Offsets: offsets, Edges: edges}
}

// shiftBack restores list starts in offsets after a scatter used them
// as write cursors and left each at the next list's start.
func shiftBack(offsets []int64) {
	copy(offsets[1:], offsets)
	offsets[0] = 0
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
