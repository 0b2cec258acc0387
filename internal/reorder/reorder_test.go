package reorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
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

func TestIdentity(t *testing.T) {
	p := Identity(5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := randomGraph(t, 5, 8, 1)
	h := Apply(g, p)
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("identity permutation changed edge count")
	}
	for v := 0; v < 5; v++ {
		if h.Degree(graph.VertexID(v)) != g.Degree(graph.VertexID(v)) {
			t.Fatal("identity permutation changed degrees")
		}
	}
}

func TestDegreeDescending(t *testing.T) {
	g := randomGraph(t, 200, 1500, 2)
	p := DegreeDescending(g)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	h := Apply(g, p)
	if !IsDegreeDescending(h) {
		t.Fatal("DBG output degrees not descending")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if !h.IsUndirected() {
		t.Fatal("DBG output not symmetric")
	}
	if !h.EdgesSorted() {
		t.Fatal("DBG output adjacency not sorted")
	}
}

func TestDBGDeterministicTieBreak(t *testing.T) {
	g := randomGraph(t, 100, 300, 3)
	p1 := DegreeDescending(g)
	p2 := DegreeDescending(g)
	for i := range p1.NewID {
		if p1.NewID[i] != p2.NewID[i] {
			t.Fatal("DBG not deterministic")
		}
	}
}

func TestApplyPreservesAdjacency(t *testing.T) {
	g := randomGraph(t, 50, 200, 4)
	h, p := DBG(g)
	// Edge {u,v} in g iff {NewID[u],NewID[v]} in h.
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			if !h.HasEdge(p.NewID[u], p.NewID[v]) {
				t.Fatalf("edge (%d,%d) lost in reorder", u, v)
			}
		}
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
}

func TestIsDegreeDescendingDetectsViolation(t *testing.T) {
	// Path 0-1-2: degrees 1,2,1 — not descending.
	g, err := graph.FromEdgeList(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if IsDegreeDescending(g) {
		t.Fatal("violation not detected")
	}
	h, _ := DBG(g)
	if !IsDegreeDescending(h) {
		t.Fatal("DBG failed to fix ordering")
	}
}

func TestShuffleEdgesPreservesSetAndBreaksOrder(t *testing.T) {
	g := randomGraph(t, 100, 800, 5)
	before := graph.ComputeStats(g)
	ShuffleEdges(g, 99)
	if g.SortednessKnown() {
		t.Fatal("ShuffleEdges kept the graph's sortedness memo")
	}
	after := graph.ComputeStats(g)
	if before.DirectedEdges != after.DirectedEdges {
		t.Fatal("shuffle changed edge count")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.EdgesSorted() {
		t.Fatal("shuffle left all adjacency sorted (vanishingly unlikely)")
	}
	if !g.IsUndirected() {
		t.Fatal("shuffle broke symmetry")
	}
}

func TestTranslateColors(t *testing.T) {
	g := randomGraph(t, 20, 60, 6)
	_, p := DBG(g)
	colors := make([]uint16, 20)
	for i := range colors {
		colors[i] = uint16(i + 1)
	}
	back := TranslateColors(colors, p)
	for old := 0; old < 20; old++ {
		if back[old] != colors[p.NewID[old]] {
			t.Fatal("translation wrong")
		}
	}
}

func TestValidateCatchesBadPermutation(t *testing.T) {
	p := Identity(3)
	p.NewID[0] = 1 // duplicate with NewID[1]
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate assignment not caught")
	}
	p = Identity(3)
	p.NewID[0] = 7
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range not caught")
	}
	p = Identity(3)
	p.OldID[0], p.OldID[1] = p.OldID[1], p.OldID[0]
	if err := p.Validate(); err == nil {
		t.Fatal("inverse mismatch not caught")
	}
}

// Property: DBG over random graphs always yields a valid permutation and a
// degree-descending, structurally intact graph.
func TestDBGInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		g := randomGraph(t, n, 4*n, seed)
		h, p := DBG(g)
		return p.Validate() == nil &&
			h.Validate() == nil &&
			IsDegreeDescending(h) &&
			h.NumEdges() == g.NumEdges() &&
			h.IsUndirected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDBGOnPaperDatasets(t *testing.T) {
	for _, d := range gen.SmallRegistry()[:4] {
		g, err := d.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", d.Abbrev, err)
		}
		h, _ := DBG(g)
		if !IsDegreeDescending(h) {
			t.Fatalf("%s: DBG violated", d.Abbrev)
		}
	}
}

func BenchmarkDBG(b *testing.B) {
	g, err := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DBG(g)
	}
}
