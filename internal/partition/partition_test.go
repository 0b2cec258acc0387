package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
)

func testGraph(t testing.TB, n, m int, seed int64) *graph.CSR {
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

func TestRanges(t *testing.T) {
	g := testGraph(t, 100, 300, 1)
	a, err := Ranges(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes()
	for p, s := range sizes {
		if s != 25 {
			t.Fatalf("part %d size %d, want 25", p, s)
		}
	}
	// Contiguity: parts are monotone in index.
	for v := 1; v < 100; v++ {
		if a.Parts[v] < a.Parts[v-1] {
			t.Fatal("range parts not monotone")
		}
	}
	if _, err := Ranges(g, 0); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestLabelPropagationReducesCut(t *testing.T) {
	// Community graph with scrambled IDs: ranges cut everything, label
	// propagation should rediscover most of the block structure.
	g, err := gen.Community(8, 100, 5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Scramble IDs so ranges don't align with blocks.
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(g.NumVertices())
	var edges []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < w {
				edges = append(edges, graph.Edge{U: graph.VertexID(perm[v]), V: graph.VertexID(perm[w])})
			}
		}
	}
	scrambled, err := graph.FromEdgeList(g.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Ranges(scrambled, 4)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := LabelPropagation(scrambled, 4, 10, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Validate(); err != nil {
		t.Fatal(err)
	}
	if lp.EdgeCut(scrambled) >= base.EdgeCut(scrambled) {
		t.Fatalf("LP cut %d >= ranges cut %d", lp.EdgeCut(scrambled), base.EdgeCut(scrambled))
	}
	// Balance respected.
	limit := int(float64(scrambled.NumVertices())/4*1.15) + 1
	for p, s := range lp.Sizes() {
		if s > limit {
			t.Fatalf("part %d size %d beyond limit %d", p, s, limit)
		}
	}
}

func TestLabelPropagationK1(t *testing.T) {
	g := testGraph(t, 50, 100, 4)
	a, err := LabelPropagation(g, 1, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgeCut(g) != 0 || a.BoundaryVertices(g) != 0 {
		t.Fatal("single part has a cut")
	}
}

// TestLabelPropagationDeterministic pins the property the sharded
// engine's cross-checks rely on: the same graph and parameters always
// produce the identical Assignment, including when two refinements run
// concurrently over the shared read-only CSR (the concurrent arm gives
// the race detector something to chew on).
func TestLabelPropagationDeterministic(t *testing.T) {
	g := testGraph(t, 800, 6000, 9)
	ref, err := LabelPropagation(g, 4, 10, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Assignment, 4)
	errs := make([]error, 4)
	done := make(chan int, 4)
	for i := range results {
		go func(i int) {
			results[i], errs[i] = LabelPropagation(g, 4, 10, 0.15)
			done <- i
		}(i)
	}
	for range results {
		<-done
	}
	for i, a := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if a.K != ref.K || len(a.Parts) != len(ref.Parts) {
			t.Fatalf("run %d: shape %d/%d differs from %d/%d", i, a.K, len(a.Parts), ref.K, len(ref.Parts))
		}
		for v := range a.Parts {
			if a.Parts[v] != ref.Parts[v] {
				t.Fatalf("run %d: vertex %d in part %d, reference says %d", i, v, a.Parts[v], ref.Parts[v])
			}
		}
	}
	// A rebuilt identical graph must land on the same assignment too.
	h := testGraph(t, 800, 6000, 9)
	b, err := LabelPropagation(h, 4, 10, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for v := range b.Parts {
		if b.Parts[v] != ref.Parts[v] {
			t.Fatalf("rebuilt graph: vertex %d in part %d, reference says %d", v, b.Parts[v], ref.Parts[v])
		}
	}
}

// TestRangesInto pins the buffer-reuse contract: a caller buffer with
// capacity is written in place, one without is replaced.
func TestRangesInto(t *testing.T) {
	g := testGraph(t, 100, 300, 1)
	buf := make([]int32, 100)
	a, err := RangesInto(g, 4, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Parts[0] != &buf[0] {
		t.Fatal("RangesInto did not reuse the caller buffer")
	}
	b, err := RangesInto(g, 4, make([]int32, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Parts) != 100 {
		t.Fatalf("undersized buffer: parts len %d", len(b.Parts))
	}
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatalf("vertex %d: reused %d, fresh %d", v, a.Parts[v], b.Parts[v])
		}
	}
}

// FuzzAssignmentInvariants cross-checks the assignment statistics
// against Validate on fuzzer-shaped graphs and part vectors: whenever
// Validate accepts the assignment, EdgeCut, BoundaryVertices, Sizes and
// the one-sweep Classify must agree with each other and with basic
// counting bounds, and Classify's frontier with the fixpoint reference.
func FuzzAssignmentInvariants(f *testing.F) {
	f.Add(uint16(50), uint16(200), uint8(4), int64(1), []byte{0, 1, 2, 3})
	f.Add(uint16(1), uint16(0), uint8(1), int64(2), []byte{0})
	f.Add(uint16(120), uint16(500), uint8(7), int64(3), []byte{9, 200, 3})
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, kRaw uint8, seed int64, partsRaw []byte) {
		n := int(nRaw)%300 + 1
		m := int(mRaw) % 2000
		k := int(kRaw)%8 + 1
		g := testGraph(t, n, m, seed)
		parts := make([]int32, n)
		for v := range parts {
			if len(partsRaw) > 0 {
				parts[v] = int32(int8(partsRaw[v%len(partsRaw)]))
			}
		}
		a := &Assignment{Parts: parts, K: k}
		if err := a.Validate(); err != nil {
			// Out-of-range parts: the stats functions carry no contract
			// here, nothing further to check.
			return
		}
		cut := a.EdgeCut(g)
		boundary := a.BoundaryVertices(g)
		sizes := a.Sizes()
		cl := Classify(g, a)
		if cut != cl.CutEdges {
			t.Fatalf("EdgeCut %d != Classify %d", cut, cl.CutEdges)
		}
		if boundary != cl.Boundary {
			t.Fatalf("BoundaryVertices %d != Classify %d", boundary, cl.Boundary)
		}
		if len(sizes) != k || len(cl.PerShardVertices) != k || len(cl.PerShardBoundary) != k {
			t.Fatalf("per-part slices sized %d/%d/%d for K=%d",
				len(sizes), len(cl.PerShardVertices), len(cl.PerShardBoundary), k)
		}
		sum, perBoundary := 0, 0
		for p := range sizes {
			if sizes[p] != cl.PerShardVertices[p] {
				t.Fatalf("part %d: Sizes %d != Classify %d", p, sizes[p], cl.PerShardVertices[p])
			}
			if cl.PerShardBoundary[p] > cl.PerShardVertices[p] {
				t.Fatalf("part %d: %d boundary > %d vertices", p, cl.PerShardBoundary[p], cl.PerShardVertices[p])
			}
			sum += sizes[p]
			perBoundary += cl.PerShardBoundary[p]
		}
		if sum != n {
			t.Fatalf("Sizes sum %d != %d vertices", sum, n)
		}
		if perBoundary != boundary {
			t.Fatalf("per-shard boundary sum %d != total %d", perBoundary, boundary)
		}
		if boundary > n {
			t.Fatalf("boundary %d > %d vertices", boundary, n)
		}
		if cut > g.NumEdges()/2 {
			t.Fatalf("cut %d > %d undirected edges", cut, g.NumEdges()/2)
		}
		if k == 1 && (cut != 0 || boundary != 0) {
			t.Fatalf("K=1 with cut %d boundary %d", cut, boundary)
		}
		if frontier, cross := referenceFrontier(g, a); !slices.Equal(cl.Frontier, frontier) || cl.CrossDefers != cross {
			t.Fatalf("Classify frontier %d cross %d, reference %d cross %d",
				len(cl.Frontier), cl.CrossDefers, len(frontier), cross)
		}
	})
}

func TestAssignmentStats(t *testing.T) {
	g, _ := graph.FromEdgeList(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 2}})
	a := &Assignment{Parts: []int32{0, 0, 1, 1}, K: 2}
	if a.EdgeCut(g) != 1 {
		t.Fatalf("cut = %d, want 1 (edge 1-2)", a.EdgeCut(g))
	}
	if a.BoundaryVertices(g) != 2 {
		t.Fatalf("boundary = %d, want 2", a.BoundaryVertices(g))
	}
	bad := &Assignment{Parts: []int32{0, 5}, K: 2}
	if bad.Validate() == nil {
		t.Fatal("bad assignment validated")
	}
}

// referenceFrontier computes the boundary frontier by its definition,
// as a fixpoint: starting from nothing, sweep the vertices in descending
// order, adding v when a lower-indexed neighbor lies in another part or
// is already on the frontier, until a sweep adds nothing. It also counts
// the vertices with a lower-indexed neighbor in another part.
func referenceFrontier(g *graph.CSR, a *Assignment) ([]graph.VertexID, int64) {
	n := g.NumVertices()
	on := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for v := n - 1; v >= 0; v-- {
			if on[v] {
				continue
			}
			for _, u := range g.Neighbors(graph.VertexID(v)) {
				if int(u) < v && (a.Parts[u] != a.Parts[v] || on[u]) {
					on[v], changed = true, true
					break
				}
			}
		}
	}
	var frontier []graph.VertexID
	var cross int64
	for v := range on {
		if on[v] {
			frontier = append(frontier, graph.VertexID(v))
		}
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if int(u) < v && a.Parts[u] != a.Parts[v] {
				cross++
				break
			}
		}
	}
	return frontier, cross
}

// TestClassifyFrontierMatchesFixpoint holds Classify's frontier, its
// membership bits and the cross-part count to the fixpoint reference on
// random graphs with sorted and shuffled adjacency lists, under range and
// label-propagation partitions, for K ∈ {1, 2, 3, 4, 7} and the empty
// graph. ClassifyInto on reused, dirty buffers must agree too.
func TestClassifyFrontierMatchesFixpoint(t *testing.T) {
	type part func(g *graph.CSR, k int) (*Assignment, error)
	strategies := map[string]part{
		StrategyRanges: Ranges,
		StrategyLabelProp: func(g *graph.CSR, k int) (*Assignment, error) {
			return LabelPropagation(g, k, 10, 0.15)
		},
	}
	empty, err := graph.FromEdgeList(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.CSR{"empty": empty}
	for seed := int64(1); seed <= 4; seed++ {
		n := 50 + int(seed)*150
		g := testGraph(t, n, n*int(seed+1), seed)
		graphs[fmt.Sprintf("random-%d", seed)] = g
		shuffled := testGraph(t, n, n*int(seed+1), seed)
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < n; v++ {
			adj := shuffled.Edges[shuffled.Offsets[v]:shuffled.Offsets[v+1]]
			rng.Shuffle(len(adj), func(i, j int) { adj[i], adj[j] = adj[j], adj[i] })
		}
		shuffled.ResetSorted()
		graphs[fmt.Sprintf("shuffled-%d", seed)] = shuffled
	}
	frontier := []graph.VertexID{7, 7, 7}
	bits := []uint64{^uint64(0), ^uint64(0)}
	for name, g := range graphs {
		for sname, build := range strategies {
			for _, k := range []int{1, 2, 3, 4, 7} {
				if k > g.NumVertices() && g.NumVertices() > 0 {
					continue
				}
				a, err := build(g, k)
				if err != nil {
					t.Fatal(err)
				}
				wantFrontier, wantCross := referenceFrontier(g, a)
				cl := Classify(g, a)
				reused := ClassifyInto(g, a, frontier, bits)
				frontier, bits = reused.Frontier, reused.onFrontier
				for _, c := range []Classification{cl, reused} {
					if !slices.Equal(c.Frontier, wantFrontier) {
						t.Fatalf("%s %s K=%d: frontier %d vertices, reference %d", name, sname, k, len(c.Frontier), len(wantFrontier))
					}
					if c.CrossDefers != wantCross {
						t.Fatalf("%s %s K=%d: CrossDefers %d, reference %d", name, sname, k, c.CrossDefers, wantCross)
					}
					next := 0
					for v := 0; v < g.NumVertices(); v++ {
						on := next < len(wantFrontier) && wantFrontier[next] == graph.VertexID(v)
						if on {
							next++
						}
						if c.OnFrontier(graph.VertexID(v)) != on {
							t.Fatalf("%s %s K=%d: OnFrontier(%d) = %v, reference %v", name, sname, k, v, !on, on)
						}
					}
				}
				if k == 1 && (len(cl.Frontier) != 0 || cl.CrossDefers != 0) {
					t.Fatalf("%s %s K=1: frontier %d, cross %d", name, sname, len(cl.Frontier), cl.CrossDefers)
				}
				if int64(len(cl.Frontier)) < cl.CrossDefers || len(cl.Frontier) > g.NumVertices() {
					t.Fatalf("%s %s K=%d: frontier %d vs cross %d", name, sname, k, len(cl.Frontier), cl.CrossDefers)
				}
			}
		}
	}
}
