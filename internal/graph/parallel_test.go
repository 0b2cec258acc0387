package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// randomEdges returns m random edges over n vertices, including a salting
// of self loops and exact duplicates so dedup paths are exercised.
func randomEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m+m/8)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{U: VertexID(rng.Intn(n)), V: VertexID(rng.Intn(n))})
	}
	for i := 0; i < m/16; i++ { // duplicates of existing edges
		edges = append(edges, edges[rng.Intn(len(edges))])
	}
	for i := 0; i < m/32; i++ { // self loops
		v := VertexID(rng.Intn(n))
		edges = append(edges, Edge{U: v, V: v})
	}
	return edges
}

func graphsEqual(t *testing.T, want, got *CSR, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Offsets, got.Offsets) {
		t.Fatalf("%s: offsets differ: want %v got %v", label, want.Offsets[:min(len(want.Offsets), 20)], got.Offsets[:min(len(got.Offsets), 20)])
	}
	if !reflect.DeepEqual(want.Edges, got.Edges) {
		t.Fatalf("%s: edges differ", label)
	}
}

// FromEdgeList must build byte for byte the CSR of the sort-based
// reference build, on random graphs of varying density salted with
// duplicates and self loops, the last one's adjacency larger than a 4 MiB
// L2. Each case runs w builders concurrently over one shared input,
// which FromEdgeList must only read.
func TestFromEdgeListParallelEquivalence(t *testing.T) {
	cases := []struct{ n, m int }{
		{50, 100},
		{300, 9000},
		{2000, 30000},
		{5000, 12000},
		{200000, 560000}, // ≥1M directed edges after dedup
	}
	for _, tc := range cases {
		workers := []int{1, 2, 3, 8}
		if tc.m > 1<<16 {
			workers = workers[:2] // keep the large case's memory small
		}
		for _, w := range workers {
			t.Run(fmt.Sprintf("n=%d/m=%d/w=%d", tc.n, tc.m, w), func(t *testing.T) {
				edges := randomEdges(tc.n, tc.m, int64(tc.n*31+tc.m))
				input := slices.Clone(edges)
				want, err := referenceFromEdgeList(tc.n, edges)
				if err != nil {
					t.Fatal(err)
				}
				if tc.m > 1<<16 && want.NumEdges() < 1<<20 {
					t.Fatalf("large case has %d directed edges, want ≥ %d", want.NumEdges(), 1<<20)
				}
				got := make([]*CSR, w)
				errs := make([]error, w)
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i], errs[i] = FromEdgeList(tc.n, edges)
					}()
				}
				wg.Wait()
				for i := range got {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					graphsEqual(t, want, got[i], fmt.Sprintf("builder %d", i))
				}
				if !slices.Equal(input, edges) {
					t.Fatal("FromEdgeList wrote to its input")
				}
			})
		}
	}
}

// FromEdgeList's errors match the reference build's: a negative vertex
// count, and the lowest-indexed out-of-range edge.
func TestFromEdgeListParallelErrors(t *testing.T) {
	_, wantErr := referenceFromEdgeList(-1, nil)
	_, gotErr := FromEdgeList(-1, nil)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("negative vertex count: reference %v, got %v", wantErr, gotErr)
	}
	edges := randomEdges(1000, 20000, 7)
	edges[123] = Edge{U: 5000, V: 1}
	edges[9000] = Edge{U: 1, V: 9999}
	_, wantErr = referenceFromEdgeList(1000, edges)
	_, gotErr = FromEdgeList(1000, edges)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("out-of-range edge: reference %v, got %v", wantErr, gotErr)
	}
}

func TestSortEdgesParallelEquivalence(t *testing.T) {
	g, err := FromEdgeList(3000, randomEdges(3000, 40000, 11))
	if err != nil {
		t.Fatal(err)
	}
	shuffled := g.Clone()
	// Reverse each adjacency list to unsort it deterministically.
	for v := 0; v < shuffled.NumVertices(); v++ {
		adj := shuffled.Neighbors(VertexID(v))
		for i, j := 0, len(adj)-1; i < j; i, j = i+1, j-1 {
			adj[i], adj[j] = adj[j], adj[i]
		}
	}
	if shuffled.EdgesSorted() {
		t.Fatal("reverse failed to unsort")
	}
	shuffled.SortEdgesParallel(6)
	graphsEqual(t, g, shuffled, "parallel sort")
}
