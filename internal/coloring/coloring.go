// Package coloring implements the software graph-coloring algorithms the
// paper builds on and compares against: the basic greedy algorithm
// (Algorithm 1), the bit-wise greedy algorithm (Algorithm 2), and the
// alternative families discussed in §2.4 — Maximal-Independent-Set based
// coloring (Luby/Jones–Plassmann) and exact backtracking — plus the
// classical Welsh–Powell and DSATUR heuristics as additional baselines.
//
// Colors are 16-bit numbers; 0 means "uncolored" and usable colors are
// 1..MaxColors, matching the hardware encoding in internal/bitops.
package coloring

import (
	"fmt"
	"math/bits"

	"bitcolor/internal/exec"
)

// MaxColorsDefault is the paper's configured palette size (§5.1.1).
const MaxColorsDefault = 1024

// ctxStrideMask sets how often the sequential engines poll ctx.Err():
// every 64K vertices (indices where v&mask == 0, so a pre-cancelled
// context is caught before the first vertex). One atomic load per 2^16
// vertices is unmeasurable next to the per-vertex work; the parallel
// engines poll at block-claim and round boundaries instead. The stride
// is shared with internal/exec so every scan loop in the tree — engine
// or substrate — cancels on the same cadence.
const ctxStrideMask = exec.CtxStrideMask

// Result is the output of a coloring run.
type Result struct {
	// Colors[v] is the 1-based color of vertex v; 0 means uncolored.
	Colors []uint16
	// NumColors is the number of distinct colors used.
	NumColors int
	// Stats holds algorithm-specific operation counts for the
	// performance-model experiments (zero for algorithms that don't
	// track them).
	Stats OpStats
}

// OpStats counts the abstract operations of the three-stage greedy loop,
// used to reproduce Fig 3(a)'s stage breakdown and the CPU cost model.
// One "op" is one loop iteration of Algorithm 1/2 — a neighbor color
// load, a color-flag probe, a flag clear, or a color store.
type OpStats struct {
	// Stage0Ops counts neighbor color loads (one per traversed edge).
	Stage0Ops int64
	// Stage1ScanOps counts color-flag probes while searching the first
	// free color (Algorithm 1 lines 12-16).
	Stage1ScanOps int64
	// Stage1ClearOps counts flag-array clear iterations (Algorithm 1
	// lines 17-19). The bit-wise algorithm clears in O(1) and records
	// one op per vertex.
	Stage1ClearOps int64
	// Stage2Ops counts color stores (one per vertex).
	Stage2Ops int64
	// PrunedNeighbors counts neighbor visits skipped by uncolored-vertex
	// pruning, when enabled.
	PrunedNeighbors int64
}

// Total returns the total operation count across stages.
func (s OpStats) Total() int64 {
	return s.Stage0Ops + s.Stage1ScanOps + s.Stage1ClearOps + s.Stage2Ops
}

// Stage1Ops returns the combined Stage-1 cost (scan + clear).
func (s OpStats) Stage1Ops() int64 { return s.Stage1ScanOps + s.Stage1ClearOps }

// countColors returns the number of distinct nonzero colors. It marks
// every color in a 65,536-bit set on the stack (8 KiB, no heap
// allocation, no branch per vertex) and counts the set bits, color 0
// ("uncolored") excepted.
func countColors(colors []uint16) int {
	var seen [1 << 16 / 64]uint64
	for _, c := range colors {
		seen[c>>6] |= 1 << (c & 63)
	}
	seen[0] &^= 1
	count := 0
	for _, w := range seen {
		count += bits.OnesCount64(w)
	}
	return count
}

// MaxColor returns the largest color number used (0 if none).
func MaxColor(colors []uint16) uint16 {
	var max uint16
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return max
}

// ErrPaletteExhausted is returned when a graph needs more colors than the
// configured palette provides.
var ErrPaletteExhausted = fmt.Errorf("coloring: palette exhausted (need more than the configured max colors)")
