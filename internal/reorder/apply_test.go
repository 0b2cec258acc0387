package reorder

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
)

// referenceApply is Apply as it was before the counting scatter: copy
// every renamed list to its new slot, then sort each list. The
// differential tests hold Apply to it byte for byte.
func referenceApply(g *graph.CSR, p *Permutation) *graph.CSR {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for old := 0; old < n; old++ {
		offsets[p.NewID[old]+1] = int64(g.Degree(graph.VertexID(old)))
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	edges := make([]graph.VertexID, g.NumEdges())
	for old := 0; old < n; old++ {
		dst := edges[offsets[p.NewID[old]]:]
		for i, d := range g.Neighbors(graph.VertexID(old)) {
			dst[i] = p.NewID[d]
		}
	}
	out := &graph.CSR{Offsets: offsets, Edges: edges}
	out.SortEdges()
	return out
}

// checkApply asserts that Apply(g, p) is referenceApply(g, p) byte for
// byte, records "sorted" truthfully, and leaves g as it was.
func checkApply(t *testing.T, label string, g *graph.CSR, p *Permutation) *graph.CSR {
	t.Helper()
	before := g.Clone()
	want, got := referenceApply(g, p), Apply(g, p)
	if !reflect.DeepEqual(want.Offsets, got.Offsets) {
		t.Fatalf("%s: offsets differ from the reference relabel", label)
	}
	if !reflect.DeepEqual(want.Edges, got.Edges) {
		t.Fatalf("%s: edges differ from the reference relabel", label)
	}
	if !got.SortednessKnown() || !got.EdgesSorted() || !got.Clone().EdgesSorted() {
		t.Fatalf("%s: relabel did not record sorted lists", label)
	}
	if !slices.Equal(before.Offsets, g.Offsets) || !slices.Equal(before.Edges, g.Edges) {
		t.Fatalf("%s: Apply wrote to its input", label)
	}
	return got
}

// randomPermutation is a uniformly random permutation of n vertices.
func randomPermutation(n int, seed int64) *Permutation {
	p := Identity(n)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) {
		p.OldID[i], p.OldID[j] = p.OldID[j], p.OldID[i]
	})
	for nw, old := range p.OldID {
		p.NewID[old] = graph.VertexID(nw)
	}
	return p
}

// checkPermutations runs checkApply under the identity, DBG's and a
// random permutation.
func checkPermutations(t *testing.T, label string, g *graph.CSR, seed int64) {
	t.Helper()
	n := g.NumVertices()
	checkApply(t, label+"/identity", g, Identity(n))
	checkApply(t, label+"/dbg", g, DegreeDescending(g))
	checkApply(t, label+"/random", g, randomPermutation(n, seed))
}

// shuffled is a copy of g with every list in random order. The copy is
// an identity relabel, so it keeps g's symmetry record, and ShuffleEdges
// keeps it too.
func shuffled(g *graph.CSR, seed int64) *graph.CSR {
	c := Apply(g, Identity(g.NumVertices()))
	ShuffleEdges(c, seed)
	return c
}

// Apply equals the copy-then-sort relabel on every stand-in, as built and
// with shuffled lists, with and without its symmetry record; on
// asymmetric graphs; on literals with self loops, repeated entries and
// empty lists; and on the empty graph.
func TestApplyMatchesReference(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		for i, d := range gen.SmallRegistry() {
			g, err := d.Build(int64(i + 1))
			if err != nil {
				t.Fatalf("%s: %v", d.Abbrev, err)
			}
			checkPermutations(t, d.Abbrev, g, int64(i))
			checkPermutations(t, d.Abbrev+"/shuffled", shuffled(g, int64(i)), int64(i))
			checkPermutations(t, d.Abbrev+"/unrecorded", g.Clone(), int64(i))
			checkPermutations(t, d.Abbrev+"/unrecorded shuffled", shuffled(g.Clone(), int64(i)), int64(i))
		}
	})
	t.Run("full", func(t *testing.T) {
		skipFullSize(t)
		for _, g := range fullSize(t) {
			checkPermutations(t, g.abbrev, g.g, 21)
			checkPermutations(t, g.abbrev+"/shuffled", shuffled(g.g, 21), 21)
			checkPermutations(t, g.abbrev+"/unrecorded shuffled", shuffled(g.g.Clone(), 21), 21)
		}
	})
	t.Run("directed", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 50 * int(seed)
			edges := make([]graph.Edge, 6*n)
			for i := range edges {
				edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
			}
			g, err := graph.FromDirectedEdgeList(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			if g.IsUndirected() {
				t.Fatal("random directed graph came out symmetric")
			}
			checkPermutations(t, fmt.Sprintf("directed seed %d", seed), g, seed)
		}
	})
	t.Run("literals", func(t *testing.T) {
		for name, g := range map[string]*graph.CSR{
			"self loops":       {Offsets: []int64{0, 2, 3, 5}, Edges: []graph.VertexID{0, 1, 1, 2, 0}},
			"repeated entries": {Offsets: []int64{0, 4, 6, 7}, Edges: []graph.VertexID{2, 1, 2, 1, 0, 0, 0}},
			"empty lists":      {Offsets: []int64{0, 0, 2, 2, 3, 3}, Edges: []graph.VertexID{3, 3, 1}},
			"no edges":         {Offsets: []int64{0, 0, 0}, Edges: []graph.VertexID{}},
			"descending":       {Offsets: []int64{0, 3, 5, 6, 6}, Edges: []graph.VertexID{3, 2, 1, 2, 0, 1}},
		} {
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkPermutations(t, name, g, 7)
		}
	})
	t.Run("empty", func(t *testing.T) {
		for name, g := range map[string]*graph.CSR{
			"zero value":   {},
			"zero vertex":  {Offsets: []int64{0}, Edges: []graph.VertexID{}},
			"edge list 0":  mustFromEdgeList(t, 0, nil),
			"isolated one": mustFromEdgeList(t, 1, nil),
		} {
			checkPermutations(t, name, g, 0)
		}
	})
}

// DBG called from w goroutines at once on one fresh random graph gives
// every caller the same permutation and the graph that the reference
// relabel makes of it.
func TestDBGParallelEquivalence(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{60, 300}, {1500, 20000}, {4000, 15000}} {
		for _, workers := range []int{1, 2, 5, 8} {
			t.Run(fmt.Sprintf("n=%d/w=%d", tc.n, workers), func(t *testing.T) {
				seed := int64(tc.n + workers)
				wantP := DegreeDescending(randomGraph(t, tc.n, tc.m, seed))
				want := checkApply(t, "reference", randomGraph(t, tc.n, tc.m, seed), wantP)
				g := randomGraph(t, tc.n, tc.m, seed)
				gotG := make([]*graph.CSR, workers)
				gotP := make([]*Permutation, workers)
				var wg sync.WaitGroup
				for i := range workers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						gotG[i], gotP[i] = DBG(g)
					}()
				}
				wg.Wait()
				for i := range workers {
					if !reflect.DeepEqual(want.Offsets, gotG[i].Offsets) || !reflect.DeepEqual(want.Edges, gotG[i].Edges) {
						t.Fatalf("caller %d: DBG differs from the reference relabel of its permutation", i)
					}
					if !reflect.DeepEqual(wantP.NewID, gotP[i].NewID) || !reflect.DeepEqual(wantP.OldID, gotP[i].OldID) {
						t.Fatalf("caller %d: permutation differs from DegreeDescending", i)
					}
					if err := gotP[i].Validate(); err != nil {
						t.Fatal(err)
					}
					if !IsDegreeDescending(gotG[i]) {
						t.Fatalf("caller %d: DBG output not degree-descending", i)
					}
					if !gotG[i].SortednessKnown() || !gotG[i].EdgesSorted() {
						t.Fatalf("caller %d: DBG output does not record sorted lists", i)
					}
				}
			})
		}
	}
}

// A graph recorded as symmetric relabels with one scatter into the
// result alone: the offsets, the edges and the CSR header, as the
// copy-then-sort relabel allocated. Its output is recorded as symmetric
// too, and ShuffleEdges keeps the record. A graph with no record takes a
// transpose first, which allocates a second CSR.
func TestApplyFollowsSymmetryRecord(t *testing.T) {
	g := randomGraph(t, 2000, 18000, 5)
	p := DegreeDescending(g)
	q := randomPermutation(g.NumVertices(), 3)
	for label, c := range map[string]struct {
		g    *graph.CSR
		want float64
	}{
		"as built":        {g, 3},
		"relabeled":       {Apply(g, p), 3},
		"shuffled":        {shuffled(g, 5), 3},
		"shuffled clone":  {shuffled(g.Clone(), 5), 6},
		"cloned":          {g.Clone(), 6},
		"relabeled clone": {Apply(g.Clone(), p), 6},
	} {
		if got := testing.AllocsPerRun(50, func() { Apply(c.g, q) }); got != c.want {
			t.Errorf("%s: Apply allocates %v objects, want %v", label, got, c.want)
		}
	}
}

// The stand-ins the symmetry record vouches for, and their DBG
// relabels, really are symmetric.
func TestRecordedStandInsAreSymmetric(t *testing.T) {
	skipFullSize(t)
	for _, s := range fullSize(t) {
		h, _ := DBG(s.g)
		if !s.g.IsUndirected() || !h.IsUndirected() {
			t.Fatalf("%s: recorded graph or its relabel is not symmetric", s.abbrev)
		}
	}
}

// Goroutines relabeling one fresh graph at once, recorded or not, agree,
// and -race sees no data race on its sortedness memo or symmetry record.
func TestApplyConcurrentFirstUse(t *testing.T) {
	base := randomGraph(t, 800, 6000, 9)
	p := randomPermutation(base.NumVertices(), 9)
	for _, fresh := range []func() *graph.CSR{
		func() *graph.CSR { return randomGraph(t, 800, 6000, 9) },
		func() *graph.CSR { return shuffled(base.Clone(), 9) },
	} {
		g := fresh()
		want := referenceApply(fresh(), p)
		got := make([]*graph.CSR, 6)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = Apply(g, p)
				g.HasEdge(0, 1)
			}()
		}
		wg.Wait()
		for i, h := range got {
			if !reflect.DeepEqual(want.Offsets, h.Offsets) || !reflect.DeepEqual(want.Edges, h.Edges) {
				t.Fatalf("goroutine %d: relabel differs from the reference", i)
			}
		}
	}
}

// FuzzApply decodes a small CSR literal and a permutation from the input
// and holds Apply to the reference on the literal, which carries no
// symmetry record, and on the FromEdgeList graph of the same entries,
// which does.
func FuzzApply(f *testing.F) {
	f.Add([]byte{4, 2, 1, 3, 1, 2, 0, 3, 0, 1, 2, 0})
	f.Add([]byte{1, 3, 0, 0, 0})
	f.Add([]byte{0})
	f.Add([]byte{9, 0, 4, 8, 8, 1, 5, 7, 7, 7, 3, 2, 6, 0, 1, 1, 2, 3, 5, 8, 13, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := next() % 17
		lit := &graph.CSR{Offsets: make([]int64, n+1), Edges: []graph.VertexID{}}
		var edges []graph.Edge
		for v := range n {
			for range next() % 6 {
				w := graph.VertexID(next() % n)
				lit.Edges = append(lit.Edges, w)
				edges = append(edges, graph.Edge{U: graph.VertexID(v), V: w})
			}
			lit.Offsets[v+1] = int64(len(lit.Edges))
		}
		p := Identity(n)
		for i := n - 1; i > 0; i-- {
			j := next() % (i + 1)
			p.OldID[i], p.OldID[j] = p.OldID[j], p.OldID[i]
		}
		for nw, old := range p.OldID {
			p.NewID[old] = graph.VertexID(nw)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		checkApply(t, "literal", lit, p)
		g, err := graph.FromEdgeList(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		checkApply(t, "edge list", g, p)
		checkApply(t, "edge list, shuffled", shuffled(g, int64(len(data))), p)
	})
}

// standIn is one dataset stand-in under test.
type standIn struct {
	abbrev string
	g      *graph.CSR
}

// skipFullSize skips a test of the full-size stand-ins in -short mode
// and under the race detector, which slows these single-goroutine
// checks ~15× and finds nothing in them the small stand-ins miss.
func skipFullSize(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-size stand-ins: skipped in -short mode and under -race")
	}
}

// fullSize returns the full-size GD, RC, CO and CF stand-ins at seed 21,
// built once per test binary. Callers must not modify them.
func fullSize(t *testing.T) []standIn {
	t.Helper()
	out, err := buildFullSize()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var buildFullSize = sync.OnceValues(func() ([]standIn, error) {
	var out []standIn
	for _, d := range gen.Registry() {
		switch d.Abbrev {
		case "GD", "RC", "CO", "CF":
			g, err := d.Build(21)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.Abbrev, err)
			}
			out = append(out, standIn{d.Abbrev, g})
		}
	}
	return out, nil
})

func mustFromEdgeList(t *testing.T, n int, edges []graph.Edge) *graph.CSR {
	t.Helper()
	g, err := graph.FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
