// Package bitcolor is a pure-Go reproduction of BitColor (Fan et al.,
// ICPP 2023): an FPGA accelerator for large-scale greedy graph coloring
// built on parallel bit-wise processing engines.
//
// The package offers three levels of use:
//
//   - Software coloring. Color runs any of the registered engines —
//     the paper's basic greedy (Algorithm 1) and bit-wise greedy
//     (Algorithm 2), plus DSATUR, Welsh–Powell, smallest-last,
//     Jones–Plassmann, Luby-MIS, RLF and two speculative multicore
//     engines (EngineParallelBitwise fuses the bit-wise first-fit into
//     speculative coloring with in-place conflict repair) — on a CSR
//     graph. All engines share one registry contract: ColorContext
//     takes a context.Context (cancellation is honored mid-run) and
//     returns RunStats (rounds, conflicts, work split, gather counters)
//     alongside the result. Pipeline composes
//     Preprocess → Color → Improve → Verify with per-stage timings and
//     returns colors in the original vertex IDs.
//
//   - Accelerator simulation. Simulate runs the full BitColor design on
//     a cycle-approximate discrete-event model: parallel BWPEs, the
//     multi-port high-degree vertex cache, per-engine DRAM channels with
//     read merging, the data conflict table and the degree-aware task
//     dispatcher. Every paper optimization (HDC, BWC, MGR, PUV) can be
//     toggled.
//
//   - Evaluation. The cmd/benchsuite binary and the benchmarks in
//     bench_test.go regenerate every table and figure of the paper's
//     evaluation section; EXPERIMENTS.md records paper-vs-measured.
//
// A minimal session:
//
//	g, _ := bitcolor.Generate("GD", 1)          // synthetic gemsec-Deezer stand-in
//	g, _ = bitcolor.Preprocess(g)               // DBG reorder; lists come out sorted
//	res, _ := bitcolor.Simulate(g, bitcolor.DefaultSimConfig(16))
//	fmt.Println(res.NumColors, res.TotalCycles, res.MCVps)
package bitcolor
