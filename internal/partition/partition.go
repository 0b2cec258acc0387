// Package partition provides graph partitioners for the multi-card
// scale-out extension: contiguous index ranges (what a naive deployment
// gets for free) and a balanced label-propagation refinement that
// reduces edge cut — the difference between road networks scaling and
// power-law graphs drowning in boundary work.
package partition

import (
	"fmt"

	"bitcolor/internal/graph"
)

// Strategy names, matching the coloring package's option strings.
const (
	StrategyRanges    = "ranges"
	StrategyLabelProp = "labelprop"
)

// StrategyCode maps a strategy name ("" defaults to ranges) to the
// graph.V3Partition* code a BCSR v3 header persists.
func StrategyCode(name string) (uint32, error) {
	switch name {
	case "", StrategyRanges:
		return graph.V3PartitionRanges, nil
	case StrategyLabelProp:
		return graph.V3PartitionLabelProp, nil
	}
	return 0, fmt.Errorf("partition: unknown strategy %q (have %q, %q)",
		name, StrategyRanges, StrategyLabelProp)
}

// StrategyName maps a persisted V3Partition* code back to its name.
func StrategyName(code uint32) (string, error) {
	switch code {
	case graph.V3PartitionRanges:
		return StrategyRanges, nil
	case graph.V3PartitionLabelProp:
		return StrategyLabelProp, nil
	}
	return "", fmt.Errorf("partition: unknown strategy code %d", code)
}

// Assignment maps each vertex to a part in [0, K).
type Assignment struct {
	Parts []int32
	K     int
}

// Validate checks ranges.
func (a *Assignment) Validate() error {
	if a.K <= 0 {
		return fmt.Errorf("partition: K=%d", a.K)
	}
	for v, p := range a.Parts {
		if p < 0 || int(p) >= a.K {
			return fmt.Errorf("partition: vertex %d in part %d of %d", v, p, a.K)
		}
	}
	return nil
}

// EdgeCut returns the number of undirected edges crossing parts.
func (a *Assignment) EdgeCut(g *graph.CSR) int64 {
	var cut int64
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < w && a.Parts[v] != a.Parts[w] {
				cut++
			}
		}
	}
	return cut
}

// BoundaryVertices returns how many vertices have a cross-part neighbor.
func (a *Assignment) BoundaryVertices(g *graph.CSR) int {
	count := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if a.Parts[v] != a.Parts[w] {
				count++
				break
			}
		}
	}
	return count
}

// Sizes returns the part sizes.
func (a *Assignment) Sizes() []int {
	sizes := make([]int, a.K)
	for _, p := range a.Parts {
		sizes[p]++
	}
	return sizes
}

// Ranges partitions by contiguous index ranges — the zero-cost baseline.
func Ranges(g *graph.CSR, k int) (*Assignment, error) {
	return RangesInto(g, k, nil)
}

// RangesInto is Ranges writing the part vector into parts when it has
// the capacity (nil or too small allocates) — the allocation-free entry
// the sharded engine's pooled scratch uses.
func RangesInto(g *graph.CSR, k int, parts []int32) (*Assignment, error) {
	n := g.NumVertices()
	if k <= 0 {
		return nil, fmt.Errorf("partition: K=%d", k)
	}
	if cap(parts) < n {
		parts = make([]int32, n)
	}
	parts = parts[:n]
	for v := 0; v < n; v++ {
		p := v * k / max(n, 1)
		if p >= k {
			p = k - 1
		}
		parts[v] = int32(p)
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// LabelPropagation refines a range partition with balanced label
// propagation: for `rounds` sweeps, each vertex moves to the part
// holding the plurality of its neighbors, unless the move would push
// that part beyond (1+slack)·n/K vertices. Deterministic (ascending
// sweeps) and O(rounds·E).
func LabelPropagation(g *graph.CSR, k, rounds int, slack float64) (*Assignment, error) {
	return LabelPropagationInto(g, k, rounds, slack, nil)
}

// LabelPropagationInto is LabelPropagation refining a range partition
// written into parts (see RangesInto).
func LabelPropagationInto(g *graph.CSR, k, rounds int, slack float64, parts []int32) (*Assignment, error) {
	a, err := RangesInto(g, k, parts)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n == 0 || k == 1 {
		return a, nil
	}
	if slack < 0 {
		slack = 0
	}
	limit := int(float64(n)/float64(k)*(1+slack)) + 1
	sizes := a.Sizes()
	counts := make([]int32, k)
	for r := 0; r < rounds; r++ {
		moved := 0
		for v := 0; v < n; v++ {
			adj := g.Neighbors(graph.VertexID(v))
			if len(adj) == 0 {
				continue
			}
			for i := range counts {
				counts[i] = 0
			}
			for _, w := range adj {
				counts[a.Parts[w]]++
			}
			cur := a.Parts[v]
			best := cur
			for p := int32(0); p < int32(k); p++ {
				if p == cur {
					continue
				}
				if counts[p] > counts[best] && sizes[p] < limit {
					best = p
				}
			}
			if best != cur && counts[best] > counts[cur] {
				sizes[cur]--
				sizes[best]++
				a.Parts[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return a, nil
}

// Classification is the one-pass boundary analysis of an assignment: the
// numbers the sharded engine and the multi-card simulator both report,
// computed once instead of via the separate EdgeCut/BoundaryVertices
// sweeps.
type Classification struct {
	// CutEdges counts undirected edges crossing parts (== EdgeCut).
	CutEdges int64
	// Boundary counts vertices with any cross-part neighbor
	// (== BoundaryVertices).
	Boundary int
	// Frontier lists, ascending, the vertices whose color waits on
	// another part under the lower-index-wins rule: v is on it when a
	// lower-indexed neighbor is in another part or on the frontier
	// itself. So every lower neighbor of a vertex off the frontier is in
	// its part and off the frontier too.
	Frontier []graph.VertexID
	// CrossDefers counts the vertices with a lower-indexed neighbor in
	// another part: the frontier's roots, the rest cascading behind them.
	CrossDefers int64
	// PerShardBoundary[p] counts part p's boundary vertices.
	PerShardBoundary []int
	// PerShardVertices[p] counts part p's vertices (== Sizes).
	PerShardVertices []int
	// onFrontier is Frontier's membership bitset.
	onFrontier []uint64
}

// OnFrontier reports whether v is on the frontier.
func (c *Classification) OnFrontier(v graph.VertexID) bool {
	return c.onFrontier[v>>6]&(1<<(v&63)) != 0
}

// Classify computes the boundary analysis in one adjacency sweep.
func Classify(g *graph.CSR, a *Assignment) Classification {
	return ClassifyInto(g, a, nil, nil)
}

// ClassifyInto is Classify appending the frontier to frontier[:0] and
// keeping its membership bits in onFrontier when that has the capacity
// (nil or too small allocates) — the allocation-free entry the sharded
// engine's pooled scratch uses.
func ClassifyInto(g *graph.CSR, a *Assignment, frontier []graph.VertexID, onFrontier []uint64) Classification {
	n := g.NumVertices()
	if words := (n + 63) / 64; cap(onFrontier) < words {
		onFrontier = make([]uint64, words)
	} else {
		onFrontier = onFrontier[:words]
		clear(onFrontier)
	}
	frontier = frontier[:0]
	c := Classification{
		PerShardBoundary: make([]int, a.K),
		PerShardVertices: make([]int, a.K),
	}
	parts := a.Parts
	for v := 0; v < n; v++ {
		pv := parts[v]
		c.PerShardVertices[pv]++
		adj := g.Neighbors(graph.VertexID(v))
		cross, lowerCross := false, false
		for _, w := range adj {
			if parts[w] != pv {
				cross = true
				if graph.VertexID(v) < w {
					c.CutEdges++
				} else {
					lowerCross = true
				}
			}
		}
		if cross {
			c.Boundary++
			c.PerShardBoundary[pv]++
		}
		joins := lowerCross
		if lowerCross {
			c.CrossDefers++
		} else if len(frontier) > 0 {
			// Every lower neighbor is in v's part here, so v joins when
			// one of them is on the frontier. Before the frontier has a
			// vertex, as on a range part without lower cross edges, the
			// second scan is skipped.
			for _, w := range adj {
				if w < graph.VertexID(v) && onFrontier[w>>6]&(1<<(w&63)) != 0 {
					joins = true
					break
				}
			}
		}
		if joins {
			onFrontier[v>>6] |= 1 << (v & 63)
			frontier = append(frontier, graph.VertexID(v))
		}
	}
	c.Frontier, c.onFrontier = frontier, onFrontier
	return c
}
