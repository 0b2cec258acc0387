package coloring

import (
	"context"

	"bitcolor/internal/bitops"
	"bitcolor/internal/graph"
)

// Greedy runs the paper's Algorithm 1, the basic greedy coloring, over
// vertices in index order, with a flag-array color scan. maxColors bounds
// the palette (use MaxColorsDefault for the paper's configuration).
// Cancellation via ctx is polled every ctxStride vertices.
//
// The returned OpStats separates the three stages so the Fig 3(a)
// breakdown can be reproduced: Stage 0 neighbor traversal, Stage 1 color
// traversal + flag clearing, Stage 2 color update.
func Greedy(ctx context.Context, g *graph.CSR, maxColors int) (*Result, error) {
	n := g.NumVertices()
	colors := make([]uint16, n)
	// color_flag[COLOR_NUMBER]: allocated once. Algorithm 1's clear loop
	// (lines 17-19) wipes the whole flag array after every vertex; the
	// operation count reflects that faithfully — it is what makes Stage 1
	// the dominant stage in the paper's Fig 3(a) profile — while the
	// implementation only touches flags that were actually set so the
	// reference stays usable on large runs.
	flags := make([]bool, maxColors+1)
	var st OpStats
	for v := 0; v < n; v++ {
		if v&ctxStrideMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Stage 0: neighbor vertices traversal.
		highest := 0
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			st.Stage0Ops++
			cw := colors[w]
			flags[cw] = true
			if int(cw) > highest {
				highest = int(cw)
			}
		}
		// Stage 1: color traversal — linear scan for the first unused
		// color. flags[0] is the "uncolored" slot and never blocks a
		// color, so the scan starts at 1.
		result := 0
		for c := 1; c <= maxColors; c++ {
			st.Stage1ScanOps++
			if !flags[c] {
				result = c
				break
			}
		}
		if result == 0 {
			return nil, ErrPaletteExhausted
		}
		// Clear loop: Algorithm 1 wipes the whole flag array.
		st.Stage1ClearOps += int64(maxColors)
		for c := 0; c <= highest; c++ {
			flags[c] = false
		}
		flags[0] = false
		// Stage 2: color update.
		st.Stage2Ops++
		colors[v] = uint16(result)
	}
	return &Result{Colors: colors, NumColors: countColors(colors), Stats: st}, nil
}

// GreedyLiteral is Algorithm 1 exactly as printed: the Stage-1 clear loop
// physically wipes the whole COLOR_NUMBER flag array after every vertex.
// Greedy (above) counts those operations but clears lazily; this variant
// exists for wall-clock measurements (Table 2) where the baseline's real
// cost matters, and as the reference the optimized variants are checked
// against.
func GreedyLiteral(ctx context.Context, g *graph.CSR, maxColors int) (*Result, error) {
	n := g.NumVertices()
	colors := make([]uint16, n)
	flags := make([]bool, maxColors+1)
	var st OpStats
	for v := 0; v < n; v++ {
		if v&ctxStrideMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			st.Stage0Ops++
			flags[colors[w]] = true
		}
		result := 0
		for c := 1; c <= maxColors; c++ {
			st.Stage1ScanOps++
			if !flags[c] {
				result = c
				break
			}
		}
		if result == 0 {
			return nil, ErrPaletteExhausted
		}
		for c := 0; c <= maxColors; c++ {
			st.Stage1ClearOps++
			flags[c] = false
		}
		st.Stage2Ops++
		colors[v] = uint16(result)
	}
	return &Result{Colors: colors, NumColors: countColors(colors), Stats: st}, nil
}

// BitwiseGreedy runs the paper's Algorithm 2: identical vertex order and
// greedy choice, but the color state is a bit vector, the first free color
// is found with (^state)&(state+1) in constant time, and the state clears
// in one operation.
//
// Prune enables uncolored-vertex pruning (§3.2.2): neighbors with an index
// greater than the current vertex cannot be colored yet and are skipped.
// Pruning never changes the result, only the work done — a property the
// tests assert.
func BitwiseGreedy(ctx context.Context, g *graph.CSR, maxColors int, prune bool) (*Result, error) {
	return BitwiseGreedyScratch(ctx, g, maxColors, prune, nil)
}

// BitwiseGreedyScratch is BitwiseGreedy drawing its color buffer, bit
// set and codec from sc, so repeated runs on a cached graph allocate
// nothing. A nil (or non-fitting) sc restores BitwiseGreedy's behavior
// exactly; the colors are identical either way.
func BitwiseGreedyScratch(ctx context.Context, g *graph.CSR, maxColors int, prune bool, sc *Scratch) (*Result, error) {
	if !sc.fits("bitwise", 1) {
		sc = nil
	}
	n := g.NumVertices()
	colors := sc.colorsBuf(n)
	wsc := sc.lanes(1, maxColors)[0]
	codec, state := wsc.codec, wsc.state
	var st OpStats
	for v := 0; v < n; v++ {
		if v&ctxStrideMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Stage 0: neighbor traversal with Bit-OR accumulation.
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if prune && int(w) > v {
				st.PrunedNeighbors++
				continue
			}
			st.Stage0Ops++
			codec.Decompress(colors[w], state)
		}
		// Stage 1: single bit-wise operation.
		st.Stage1ScanOps++
		result, _ := codec.FirstFree(state)
		if result == 0 {
			return nil, ErrPaletteExhausted
		}
		st.Stage1ClearOps++ // one-cycle register reset
		state.Reset()
		// Stage 2: color update.
		st.Stage2Ops++
		colors[v] = result
	}
	return sc.result(colors, countColors(colors), st), nil
}

// GreedyOrdered colors vertices in the given order with the bit-wise
// first-fit rule. Unlike BitwiseGreedy it cannot prune by index (order is
// arbitrary), so it checks all neighbors. Used by Welsh–Powell and by
// experiments that decouple coloring order from vertex numbering.
func GreedyOrdered(ctx context.Context, g *graph.CSR, order []graph.VertexID, maxColors int) (*Result, error) {
	n := g.NumVertices()
	colors := make([]uint16, n)
	codec := bitops.NewColorCodec(maxColors)
	state := bitops.NewBitSet(maxColors)
	var st OpStats
	for i, v := range order {
		if i&ctxStrideMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, w := range g.Neighbors(v) {
			st.Stage0Ops++
			codec.Decompress(colors[w], state)
		}
		st.Stage1ScanOps++
		result, _ := codec.FirstFree(state)
		if result == 0 {
			return nil, ErrPaletteExhausted
		}
		st.Stage1ClearOps++
		state.Reset()
		st.Stage2Ops++
		colors[v] = result
	}
	return &Result{Colors: colors, NumColors: countColors(colors), Stats: st}, nil
}
