package reorder

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bitcolor/internal/graph"
)

func randomCSR(t *testing.T, n, m int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			U: graph.VertexID(rng.Intn(n)),
			V: graph.VertexID(rng.Intn(n)),
		}
	}
	g, err := graph.FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// DBGParallel must produce byte-identical graphs and permutations to the
// sequential DBG at every worker count, above and below the parallel
// threshold.
func TestDBGParallelEquivalence(t *testing.T) {
	cases := []struct{ n, m int }{
		{60, 300},     // below parallelApplyMinVertices: sequential fallback
		{1500, 20000}, // parallel relabel active
		{4000, 15000}, // sparse
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 5, 8} {
			t.Run(fmt.Sprintf("n=%d/w=%d", tc.n, workers), func(t *testing.T) {
				g := randomCSR(t, tc.n, tc.m, int64(tc.n+workers))
				wantG, wantP := DBG(g)
				gotG, gotP := DBGParallel(g, workers)
				if !reflect.DeepEqual(wantG.Offsets, gotG.Offsets) {
					t.Fatal("offsets differ from sequential DBG")
				}
				if !reflect.DeepEqual(wantG.Edges, gotG.Edges) {
					t.Fatal("edges differ from sequential DBG")
				}
				if !reflect.DeepEqual(wantP.NewID, gotP.NewID) || !reflect.DeepEqual(wantP.OldID, gotP.OldID) {
					t.Fatal("permutation differs from sequential DBG")
				}
				if err := gotP.Validate(); err != nil {
					t.Fatal(err)
				}
				if !IsDegreeDescending(gotG) {
					t.Fatal("parallel DBG output not degree-descending")
				}
				if !gotG.SortednessKnown() || !wantG.SortednessKnown() {
					t.Fatal("DBG output does not record that it sorted its lists")
				}
				if !gotG.EdgesSorted() {
					t.Fatal("parallel DBG output not edge-sorted")
				}
			})
		}
	}
}

func TestApplyParallelIdentityPermutation(t *testing.T) {
	g := randomCSR(t, 2000, 12000, 3)
	out := ApplyParallel(g, Identity(g.NumVertices()), 4)
	if !reflect.DeepEqual(g.Offsets, out.Offsets) || !reflect.DeepEqual(g.Edges, out.Edges) {
		t.Fatal("identity relabel changed the graph")
	}
}
