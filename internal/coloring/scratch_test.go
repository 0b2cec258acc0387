package coloring

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"bitcolor/internal/graph"
)

func scratchTestGraph(t *testing.T, n, m int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{
			U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n)),
		})
	}
	g, err := graph.FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestScratchColoringsIdentical verifies a pooled Scratch never changes
// the colors an engine produces, across engines, worker counts and
// repeated reuse of the same Scratch. Speculative parallelbitwise at w>1
// may color differently run to run, so it is held to validity and the
// speculative quality bound instead.
func TestScratchColoringsIdentical(t *testing.T) {
	g := scratchTestGraph(t, 600, 4000, 42)
	ctx := context.Background()
	seq, err := BitwiseGreedy(ctx, g, MaxColorsDefault, true)
	if err != nil {
		t.Fatal(err)
	}
	limit := speculativeColorLimit(seq.NumColors)
	for _, engine := range []string{"bitwise", "dct", "parallelbitwise"} {
		info, ok := Lookup(engine)
		if !ok {
			t.Fatalf("engine %q not registered", engine)
		}
		for _, workers := range []int{1, 2, 4} {
			if workers > 1 && !info.Parallel {
				continue
			}
			opts := Options{Workers: workers}
			want, _, err := info.Run(ctx, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			speculative := engine == "parallelbitwise" && workers > 1
			sc := AcquireScratch(engine, workers, g.NumVertices())
			for rep := 0; rep < 3; rep++ {
				opts.Scratch = sc
				got, _, err := info.Run(ctx, g, opts)
				if err != nil {
					t.Fatalf("%s w=%d rep %d: %v", engine, workers, rep, err)
				}
				if speculative {
					if err := Verify(g, got.Colors); err != nil {
						t.Fatal(err)
					}
					if got.NumColors > limit {
						t.Fatalf("%s w=%d rep %d: %d colors, sequential %d (limit %d)",
							engine, workers, rep, got.NumColors, seq.NumColors, limit)
					}
					continue
				}
				if got.NumColors != want.NumColors {
					t.Fatalf("%s w=%d rep %d: %d colors, want %d",
						engine, workers, rep, got.NumColors, want.NumColors)
				}
				for v := range want.Colors {
					if got.Colors[v] != want.Colors[v] {
						t.Fatalf("%s w=%d rep %d: color[%d] = %d, want %d",
							engine, workers, rep, v, got.Colors[v], want.Colors[v])
					}
				}
			}
			sc.Release()
		}
	}
}

// TestScratchMismatchIgnored checks an engine handed a Scratch acquired
// for a different engine or worker count ignores it and still colors
// correctly.
func TestScratchMismatchIgnored(t *testing.T) {
	g := scratchTestGraph(t, 200, 1000, 7)
	ctx := context.Background()
	sc := AcquireScratch("parallelbitwise", 4, g.NumVertices())
	defer sc.Release()
	res, err := BitwiseGreedyScratch(ctx, g, MaxColorsDefault, true, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	info, _ := Lookup("dct")
	res2, _, err := info.Run(ctx, g, Options{Workers: 2, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res2.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestScratchPoolRoundTrip checks Acquire → Release → Acquire hands the
// same Scratch back (pooling actually happens) for a fixed key.
func TestScratchPoolRoundTrip(t *testing.T) {
	sc := AcquireScratch("bitwise", 1, 1000)
	sc.colorsBuf(1000)
	sc.Release()
	sc2 := AcquireScratch("bitwise", 1, 1000)
	defer sc2.Release()
	// sync.Pool gives no hard guarantee, but within one goroutine with
	// no GC in between the round trip holds; treat a miss as a skip so
	// the test never flakes.
	if sc2 != sc {
		t.Skip("pool did not return the released Scratch (GC ran?)")
	}
	if cap(sc2.colors) < 1000 {
		t.Fatal("pooled Scratch lost its buffers")
	}
}

// TestScratchZeroAllocEngines proves the bitwise and dct engines at one
// worker do zero steady-state heap allocations per run on a pooled
// Scratch — the load-once, color-millions-of-times service pattern.
func TestScratchZeroAllocEngines(t *testing.T) {
	g := scratchTestGraph(t, 2000, 16000, 11)
	ctx := context.Background()
	for _, engine := range []string{"bitwise", "dct"} {
		info, ok := Lookup(engine)
		if !ok {
			t.Fatalf("engine %q not registered", engine)
		}
		sc := AcquireScratch(engine, 1, g.NumVertices())
		opts := Options{Workers: 1, Scratch: sc}
		// Warm: first run grows the buffers.
		if _, _, err := info.Run(ctx, g, opts); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, _, err := info.Run(ctx, g, opts); err != nil {
				t.Fatal(err)
			}
		})
		sc.Release()
		if avg != 0 {
			t.Errorf("%s w=1 on pooled Scratch: %.1f allocs/run, want 0", engine, avg)
		}
	}
}

// TestScratchShardedNoPerRunVertexBuffers holds a multi-shard run on a
// pooled Scratch to its contract: the partition, the frontier list and
// its membership bits, the vertex lists and the shared colors all come
// from the arena, so a steady-state run allocates less than one byte per
// 16 vertices — below any per-vertex buffer, the n/8-byte frontier
// bitset included. What it does allocate is per lane and per shard:
// goroutines, closures and the per-shard tallies.
func TestScratchShardedNoPerRunVertexBuffers(t *testing.T) {
	const n = 1 << 17
	g := scratchTestGraph(t, n, 2*n, 29)
	ctx := context.Background()
	info, _ := Lookup("sharded")
	for _, strategy := range []string{PartitionRanges, PartitionLabelProp} {
		for _, workers := range []int{1, 2} {
			sc := AcquireScratch("sharded", workers, n)
			opts := Options{Workers: workers, Shards: 4, PartitionStrategy: strategy, Scratch: sc}
			_, st, err := info.Run(ctx, g, opts) // warm: grows the arena
			if err != nil {
				t.Fatal(err)
			}
			if st.FrontierVertices == 0 {
				t.Fatalf("%s w=%d: empty frontier; the test needs one", strategy, workers)
			}
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, _, err := info.Run(ctx, g, opts); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			sc.Release()
			perRun := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s w=%d: %d bytes/run, frontier %d", strategy, workers, perRun, st.FrontierVertices)
			if perRun >= n/16 {
				t.Errorf("%s w=%d on a pooled Scratch: %d bytes/run, want < %d", strategy, workers, perRun, n/16)
			}
		}
	}
}
