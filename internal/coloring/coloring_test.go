package coloring

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/reorder"
)

func randomGraph(t testing.TB, n, m int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
	}
	g, err := graph.FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func paperExample(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := graph.FromEdgeList(6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 4}, {U: 1, V: 2}, {U: 2, V: 4},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 2, V: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGreedyPaperExample(t *testing.T) {
	g := paperExample(t)
	res, err := Greedy(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	// Sequential first-fit: v0=1, v1=2, v2=1(not adj to 0? 2 adj to 1,4,3) ...
	// Key paper fact: when vertex 4 is colored, neighbors 0,2,3 have colors
	// {1,3,2} or similar and 5 is uncolored; vertex 4's color differs from
	// all of them.
	for _, w := range g.Neighbors(4) {
		if res.Colors[w] == res.Colors[4] {
			t.Fatalf("vertex 4 shares color with neighbor %d", w)
		}
	}
	if res.Colors[0] != 1 {
		t.Fatalf("first vertex color = %d, want 1 (first fit)", res.Colors[0])
	}
}

func TestGreedyTriangle(t *testing.T) {
	g, _ := graph.FromEdgeList(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	res, err := Greedy(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 3 {
		t.Fatalf("triangle colored with %d colors, want 3", res.NumColors)
	}
}

func TestGreedyBipartite(t *testing.T) {
	// Complete bipartite K(3,3) with parts {0,1,2} and {3,4,5}: index-order
	// greedy uses exactly 2 colors.
	var edges []graph.Edge
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
		}
	}
	g, _ := graph.FromEdgeList(6, edges)
	res, err := Greedy(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 2 {
		t.Fatalf("K(3,3) colored with %d colors, want 2", res.NumColors)
	}
}

func TestGreedyPaletteExhausted(t *testing.T) {
	g, _ := graph.FromEdgeList(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	_, err := Greedy(context.Background(), g, 2)
	if !errors.Is(err, ErrPaletteExhausted) {
		t.Fatalf("err = %v, want palette exhausted", err)
	}
	_, err = BitwiseGreedy(context.Background(), g, 2, false)
	if !errors.Is(err, ErrPaletteExhausted) {
		t.Fatalf("bitwise err = %v, want palette exhausted", err)
	}
}

func TestGreedyStatsBreakdown(t *testing.T) {
	g := paperExample(t)
	res, err := Greedy(context.Background(), g, 16)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Stage0Ops != g.NumEdges() {
		t.Fatalf("Stage0Ops = %d, want %d (one per directed edge)", st.Stage0Ops, g.NumEdges())
	}
	if st.Stage2Ops != int64(g.NumVertices()) {
		t.Fatalf("Stage2Ops = %d, want %d", st.Stage2Ops, g.NumVertices())
	}
	if st.Stage1ScanOps < int64(g.NumVertices()) {
		t.Fatalf("Stage1ScanOps = %d, want >= one per vertex", st.Stage1ScanOps)
	}
	if st.Stage1ClearOps <= 0 {
		t.Fatal("Stage1ClearOps not tracked")
	}
}

// The paper's central algorithmic claim: Algorithm 2 computes the same
// coloring as Algorithm 1 with O(1) Stage 1.
func TestBitwiseMatchesBasicGreedy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(t, 300, 2500, seed)
		basic, err := Greedy(context.Background(), g, MaxColorsDefault)
		if err != nil {
			t.Fatal(err)
		}
		for _, prune := range []bool{false, true} {
			bw, err := BitwiseGreedy(context.Background(), g, MaxColorsDefault, prune)
			if err != nil {
				t.Fatal(err)
			}
			for v := range basic.Colors {
				if basic.Colors[v] != bw.Colors[v] {
					t.Fatalf("seed %d prune %v: vertex %d basic %d bitwise %d",
						seed, prune, v, basic.Colors[v], bw.Colors[v])
				}
			}
		}
	}
}

func TestBitwiseStage1IsConstant(t *testing.T) {
	g := randomGraph(t, 500, 6000, 1)
	res, err := BitwiseGreedy(context.Background(), g, MaxColorsDefault, false)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.NumVertices())
	if res.Stats.Stage1ScanOps != n || res.Stats.Stage1ClearOps != n {
		t.Fatalf("bitwise Stage1 ops = %d+%d, want %d+%d (O(1) per vertex)",
			res.Stats.Stage1ScanOps, res.Stats.Stage1ClearOps, n, n)
	}
	basic, err := Greedy(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	if basic.Stats.Stage1Ops() <= res.Stats.Stage1Ops() {
		t.Fatalf("basic Stage1 ops %d not larger than bitwise %d",
			basic.Stats.Stage1Ops(), res.Stats.Stage1Ops())
	}
}

func TestPruningSkipsExactlyHigherNeighbors(t *testing.T) {
	g := randomGraph(t, 200, 1200, 2)
	// In a symmetric graph exactly half the directed edges point to a
	// higher index (no self loops).
	res, err := BitwiseGreedy(context.Background(), g, MaxColorsDefault, true)
	if err != nil {
		t.Fatal(err)
	}
	want := g.NumEdges() / 2
	if res.Stats.PrunedNeighbors != want {
		t.Fatalf("pruned %d neighbors, want %d", res.Stats.PrunedNeighbors, want)
	}
	if res.Stats.Stage0Ops != g.NumEdges()-want {
		t.Fatalf("Stage0Ops %d + pruned %d != edges %d",
			res.Stats.Stage0Ops, res.Stats.PrunedNeighbors, g.NumEdges())
	}
}

func TestGreedyOrderedCustomOrder(t *testing.T) {
	g := randomGraph(t, 100, 500, 3)
	order := make([]graph.VertexID, 100)
	for i := range order {
		order[i] = graph.VertexID(99 - i)
	}
	res, err := GreedyOrdered(context.Background(), g, order, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestWelshPowell(t *testing.T) {
	g := randomGraph(t, 300, 3000, 4)
	res, err := WelshPowell(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

// Welsh–Powell on a DBG-reordered graph equals index-order greedy.
func TestWelshPowellEqualsDBGGreedy(t *testing.T) {
	g := randomGraph(t, 200, 1500, 5)
	h, _ := reorder.DBG(g)
	wp, err := WelshPowell(context.Background(), h, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := BitwiseGreedy(context.Background(), h, MaxColorsDefault, true)
	if err != nil {
		t.Fatal(err)
	}
	if wp.NumColors != bw.NumColors {
		t.Fatalf("WP on DBG graph used %d colors, index greedy %d", wp.NumColors, bw.NumColors)
	}
}

func TestDSATUR(t *testing.T) {
	g := randomGraph(t, 300, 3000, 6)
	res, err := DSATUR(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	// DSATUR should not be worse than naive greedy by much; sanity bound.
	basic, _ := Greedy(context.Background(), g, MaxColorsDefault)
	if res.NumColors > basic.NumColors+2 {
		t.Fatalf("DSATUR used %d colors vs greedy %d", res.NumColors, basic.NumColors)
	}
}

func TestDSATURTriangleExact(t *testing.T) {
	g, _ := graph.FromEdgeList(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	res, err := DSATUR(context.Background(), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 3 {
		t.Fatalf("DSATUR triangle = %d colors", res.NumColors)
	}
}

func TestSmallestLast(t *testing.T) {
	g := randomGraph(t, 300, 2500, 7)
	order := SmallestLastOrder(g)
	if len(order) != g.NumVertices() {
		t.Fatalf("order covers %d vertices, want %d", len(order), g.NumVertices())
	}
	seen := make([]bool, g.NumVertices())
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d appears twice in smallest-last order", v)
		}
		seen[v] = true
	}
	res, err := SmallestLast(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestJonesPlassmann(t *testing.T) {
	g := randomGraph(t, 500, 4000, 8)
	res, rounds, err := JonesPlassmann(context.Background(), g, MaxColorsDefault, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if rounds <= 0 {
		t.Fatal("rounds not counted")
	}
}

func TestJonesPlassmannSingleWorkerMatchesParallelValidity(t *testing.T) {
	g := randomGraph(t, 200, 1500, 9)
	r1, _, err := JonesPlassmann(context.Background(), g, MaxColorsDefault, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, _, err := JonesPlassmann(context.Background(), g, MaxColorsDefault, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, r1.Colors); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, r8.Colors); err != nil {
		t.Fatal(err)
	}
	// Same priorities → same result regardless of worker count.
	for v := range r1.Colors {
		if r1.Colors[v] != r8.Colors[v] {
			t.Fatalf("JP nondeterministic across worker counts at vertex %d", v)
		}
	}
}

func TestLubyMIS(t *testing.T) {
	g := randomGraph(t, 300, 2000, 10)
	res, rounds, err := LubyMIS(context.Background(), g, MaxColorsDefault, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if rounds <= 0 {
		t.Fatal("rounds not counted")
	}
}

func TestBacktrackingExact(t *testing.T) {
	// Odd cycle C5: chromatic number 3.
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID((i + 1) % 5)})
	}
	g, _ := graph.FromEdgeList(5, edges)
	if _, ok, err := Backtracking(g, 2); err != nil || ok {
		t.Fatalf("C5 2-colorable: ok=%v err=%v", ok, err)
	}
	res, ok, err := Backtracking(g, 3)
	if err != nil || !ok {
		t.Fatalf("C5 not 3-colored: ok=%v err=%v", ok, err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	chi, err := ChromaticNumber(g)
	if err != nil || chi != 3 {
		t.Fatalf("chi(C5) = %d (%v), want 3", chi, err)
	}
}

func TestBacktrackingPetersen(t *testing.T) {
	// Petersen graph: chromatic number 3.
	outer := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	inner := [][2]int{{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}}
	spokes := [][2]int{{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}}
	var edges []graph.Edge
	for _, set := range [][][2]int{outer, inner, spokes} {
		for _, e := range set {
			edges = append(edges, graph.Edge{U: graph.VertexID(e[0]), V: graph.VertexID(e[1])})
		}
	}
	g, _ := graph.FromEdgeList(10, edges)
	chi, err := ChromaticNumber(g)
	if err != nil {
		t.Fatal(err)
	}
	if chi != 3 {
		t.Fatalf("chi(Petersen) = %d, want 3", chi)
	}
}

func TestBacktrackingTooLarge(t *testing.T) {
	g := randomGraph(t, 100, 200, 12)
	if _, _, err := Backtracking(g, 3); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestChromaticNumberEmptyAndEdgeless(t *testing.T) {
	g, _ := graph.FromEdgeList(0, nil)
	if chi, err := ChromaticNumber(g); err != nil || chi != 0 {
		t.Fatalf("chi(empty) = %d (%v)", chi, err)
	}
	h, _ := graph.FromEdgeList(5, nil)
	if chi, err := ChromaticNumber(h); err != nil || chi != 1 {
		t.Fatalf("chi(edgeless) = %d (%v)", chi, err)
	}
}

func TestVerifyDetectsViolations(t *testing.T) {
	g := paperExample(t)
	res, _ := Greedy(context.Background(), g, 16)
	bad := append([]uint16(nil), res.Colors...)
	bad[0] = bad[1]
	if err := Verify(g, bad); err == nil {
		t.Fatal("conflict not detected")
	}
	bad = append([]uint16(nil), res.Colors...)
	bad[3] = 0
	if err := Verify(g, bad); err == nil {
		t.Fatal("uncolored vertex not detected")
	}
	if err := Verify(g, res.Colors[:3]); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

// Property: every algorithm yields a proper coloring on random graphs, and
// greedy's color count is bounded by max degree + 1.
func TestAllAlgorithmsProper(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%80) + 5
		g := randomGraph(t, n, 5*n, seed)
		maxDeg := g.MaxDegree()
		basic, err := Greedy(context.Background(), g, n+1)
		if err != nil || Verify(g, basic.Colors) != nil {
			return false
		}
		if basic.NumColors > maxDeg+1 {
			return false
		}
		bw, err := BitwiseGreedy(context.Background(), g, n+1, true)
		if err != nil || Verify(g, bw.Colors) != nil {
			return false
		}
		ds, err := DSATUR(context.Background(), g, n+1)
		if err != nil || Verify(g, ds.Colors) != nil {
			return false
		}
		jp, _, err := JonesPlassmann(context.Background(), g, n+1, seed, 2)
		if err != nil || Verify(g, jp.Colors) != nil {
			return false
		}
		lb, _, err := LubyMIS(context.Background(), g, n+1, seed)
		if err != nil || Verify(g, lb.Colors) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyOnPaperDatasets(t *testing.T) {
	for _, d := range gen.SmallRegistry() {
		d := d
		t.Run(d.Abbrev, func(t *testing.T) {
			t.Parallel()
			g, err := d.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			h, _ := reorder.DBG(g)
			res, err := BitwiseGreedy(context.Background(), h, MaxColorsDefault, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(h, res.Colors); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func BenchmarkGreedyBasic(b *testing.B) {
	g, _ := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	h, _ := reorder.DBG(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(context.Background(), h, MaxColorsDefault); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyBitwise(b *testing.B) {
	g, _ := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	h, _ := reorder.DBG(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BitwiseGreedy(context.Background(), h, MaxColorsDefault, true); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSpeculativeProper(t *testing.T) {
	g := randomGraph(t, 800, 8000, 13)
	res, st, err := SpeculativeOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 1 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
}

func TestSpeculativeSingleWorkerEqualsGreedy(t *testing.T) {
	g := randomGraph(t, 300, 2000, 14)
	res, st, err := SpeculativeOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 1 {
		t.Fatalf("single worker needed %d rounds", st.Rounds)
	}
	want, _ := Greedy(context.Background(), g, MaxColorsDefault)
	for v := range want.Colors {
		if res.Colors[v] != want.Colors[v] {
			t.Fatalf("vertex %d: speculative %d greedy %d", v, res.Colors[v], want.Colors[v])
		}
	}
}

func TestSpeculativeStats(t *testing.T) {
	g := randomGraph(t, 800, 8000, 13)
	res, st, err := SpeculativeOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 8 || len(st.VerticesPerWorker) != 8 {
		t.Fatalf("worker stats: %+v", st)
	}
	// Round 1 claims every vertex; re-rounds claim the re-queued ones.
	if st.TotalVertices() < int64(g.NumVertices()) {
		t.Fatalf("claimed %d < %d vertices", st.TotalVertices(), g.NumVertices())
	}
	if st.TotalVertices() != int64(g.NumVertices())+st.ConflictsRepaired {
		t.Fatalf("claims %d != vertices %d + repairs %d",
			st.TotalVertices(), g.NumVertices(), st.ConflictsRepaired)
	}
}

func TestSpeculativePaletteExhausted(t *testing.T) {
	tri, _ := graph.FromEdgeList(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if _, _, err := SpeculativeOpts(context.Background(), tri, 2, Options{Workers: 2}); !errors.Is(err, ErrPaletteExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestSpeculativeEmptyGraph(t *testing.T) {
	g, _ := graph.FromEdgeList(0, nil)
	res, st, err := SpeculativeOpts(context.Background(), g, 4, Options{Workers: 4})
	if err != nil || st.Rounds != 0 || len(res.Colors) != 0 {
		t.Fatalf("empty: %v %d", err, st.Rounds)
	}
}

// Generators with known chromatic numbers anchor the whole suite: the
// exact solver must hit them, and every heuristic must stay above them.
func TestKnownChromaticNumbers(t *testing.T) {
	cases := []struct {
		name string
		g    func() (*graph.CSR, error)
		chi  int
	}{
		{"K7", func() (*graph.CSR, error) { return graph.Complete(7) }, 7},
		{"C7", func() (*graph.CSR, error) { return graph.Cycle(7) }, 3},
		{"C8", func() (*graph.CSR, error) { return graph.Cycle(8) }, 2},
		{"Mycielski4 (Grötzsch)", func() (*graph.CSR, error) { return graph.Mycielski(4) }, 4},
		{"Mycielski5", func() (*graph.CSR, error) { return graph.Mycielski(5) }, 5},
		{"queen5_5", func() (*graph.CSR, error) { return graph.Queen(5) }, 5},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g, err := c.g()
			if err != nil {
				t.Fatal(err)
			}
			chi, err := ChromaticNumber(g)
			if err != nil {
				t.Fatal(err)
			}
			if chi != c.chi {
				t.Fatalf("chi = %d, want %d", chi, c.chi)
			}
			// Every heuristic must use at least chi colors and stay proper.
			for name, run := range map[string]func() (*Result, error){
				"greedy": func() (*Result, error) { return Greedy(context.Background(), g, 64) },
				"dsatur": func() (*Result, error) { return DSATUR(context.Background(), g, 64) },
				"rlf":    func() (*Result, error) { return RLF(context.Background(), g, 64) },
			} {
				res, err := run()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.NumColors < c.chi {
					t.Fatalf("%s used %d colors, below chi %d (impossible)", name, res.NumColors, c.chi)
				}
				if err := Verify(g, res.Colors); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

// GreedyLiteral and Greedy must produce identical colorings; only their
// clear-loop implementation differs.
func TestGreedyLiteralEqualsGreedy(t *testing.T) {
	g := randomGraph(t, 400, 3500, 15)
	a, err := Greedy(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GreedyLiteral(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("vertex %d: %d vs %d", v, a.Colors[v], b.Colors[v])
		}
	}
	// The literal variant counts the full flag wipe.
	if b.Stats.Stage1ClearOps != int64(g.NumVertices())*int64(MaxColorsDefault+1) &&
		b.Stats.Stage1ClearOps != int64(g.NumVertices())*int64(MaxColorsDefault) {
		t.Fatalf("literal clear ops = %d", b.Stats.Stage1ClearOps)
	}
	if _, err := GreedyLiteral(context.Background(), g, 2); err == nil {
		t.Fatal("undersized palette accepted")
	}
}
