package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// referenceValidate is Validate as it was before it recorded sortedness:
// monotone offsets, the terminator, then every destination in order. The
// differential tests hold Validate to its error texts.
func referenceValidate(g *CSR) error {
	n := g.NumVertices()
	if len(g.Offsets) == 0 {
		if len(g.Edges) != 0 {
			return fmt.Errorf("graph: %d edges with empty offsets", len(g.Edges))
		}
		return nil
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: Offsets[0] = %d, want 0", g.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d (%d > %d)",
				v, g.Offsets[v], g.Offsets[v+1])
		}
	}
	if g.Offsets[n] != int64(len(g.Edges)) {
		return fmt.Errorf("graph: Offsets[%d] = %d, want len(Edges) = %d",
			n, g.Offsets[n], len(g.Edges))
	}
	for i, d := range g.Edges {
		if int(d) >= n {
			return fmt.Errorf("graph: edge %d destination %d out of range (n=%d)", i, d, n)
		}
	}
	return nil
}

// checkValidate compares Validate with the reference on a copy of g and,
// when both accept, the sortedness Validate recorded with a scan.
func checkValidate(t *testing.T, label string, g *CSR) {
	t.Helper()
	c := &CSR{Offsets: append([]int64(nil), g.Offsets...), Edges: append([]VertexID(nil), g.Edges...)}
	want, got := referenceValidate(c), c.Validate()
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("%s: Validate = %v, reference %v", label, got, want)
	}
	if got != nil {
		return
	}
	if len(c.Offsets) > 0 && !c.SortednessKnown() {
		t.Fatalf("%s: Validate left sortedness unknown", label)
	}
	if c.EdgesSorted() != c.scanSorted() {
		t.Fatalf("%s: Validate recorded sorted=%v, scan says %v", label, c.EdgesSorted(), c.scanSorted())
	}
}

// withEmptyLists builds a sorted graph over n vertices in which every
// third vertex, the first and the last are isolated.
func withEmptyLists(t *testing.T, n int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	for len(edges) < 3*n {
		u, v := rng.Intn(n), rng.Intn(n)
		if u%3 == 0 || v%3 == 0 || u == n-1 || v == n-1 {
			continue
		}
		edges = append(edges, Edge{U: VertexID(u), V: VertexID(v)})
	}
	g, err := FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reversed returns g with every adjacency list reversed: unsorted
// wherever a list holds two entries or more.
func reversed(g *CSR) *CSR {
	c := g.Clone()
	for v := 0; v < c.NumVertices(); v++ {
		adj := c.Neighbors(VertexID(v))
		for i, j := 0, len(adj)-1; i < j; i, j = i+1, j-1 {
			adj[i], adj[j] = adj[j], adj[i]
		}
	}
	return c
}

// TestValidateMatchesReference: on sorted and unsorted graphs, with and
// without empty lists, and under every corruption the tests know of,
// Validate returns the reference's error text and records the
// sortedness a scan finds.
func TestValidateMatchesReference(t *testing.T) {
	bases := map[string]*CSR{
		"paper":  paperExample(t),
		"random": mustFromEdgeList(t, 300, randomEdges(300, 2000, 3)),
		"empty":  withEmptyLists(t, 200, 5),
		"one":    mustFromEdgeList(t, 1, nil),
		"none":   {Offsets: []int64{0}, Edges: []VertexID{}},
	}
	for name, g := range map[string]*CSR{"paper": bases["paper"], "random": bases["random"], "empty": bases["empty"]} {
		bases[name+"/reversed"] = reversed(g)
	}
	// A descent at a list start that follows an empty list counts as a
	// start: 0→[1 3], 1→[], 2→[0], 3→[].
	bases["start-after-empty"] = &CSR{Offsets: []int64{0, 2, 2, 3, 3}, Edges: []VertexID{1, 3, 0}}
	rng := rand.New(rand.NewSource(7))
	for name, g := range bases {
		checkValidate(t, name, g)
		n, ne := g.NumVertices(), len(g.Edges)
		mutate := func(label string, edit func(c *CSR)) {
			c := &CSR{Offsets: append([]int64(nil), g.Offsets...), Edges: append([]VertexID(nil), g.Edges...)}
			edit(c)
			checkValidate(t, name+"/"+label, c)
		}
		if ne > 0 {
			for _, i := range []int{0, ne / 2, ne - 1, rng.Intn(ne)} {
				mutate(fmt.Sprintf("out-of-range@%d", i), func(c *CSR) { c.Edges[i] = VertexID(n) })
				mutate(fmt.Sprintf("far-out-of-range@%d", i), func(c *CSR) { c.Edges[i] = ^VertexID(0) })
				mutate(fmt.Sprintf("zero@%d", i), func(c *CSR) { c.Edges[i] = 0 })
			}
			// Two bad entries: the first in order must be named.
			mutate("two-out-of-range", func(c *CSR) {
				c.Edges[ne-1] = VertexID(n + 1)
				c.Edges[0] = VertexID(n + 2)
			})
			// Out of range only on the last entry of each list that has one.
			mutate("every-list-end", func(c *CSR) {
				for v := 0; v < n; v++ {
					if lo, hi := c.Offsets[v], c.Offsets[v+1]; hi > lo {
						c.Edges[hi-1] = VertexID(n + v)
					}
				}
			})
			mutate("edges-without-offsets", func(c *CSR) { c.Offsets = nil })
			mutate("terminator-short", func(c *CSR) { c.Offsets[n]-- })
		}
		if n > 0 {
			mutate("first-offset", func(c *CSR) { c.Offsets[0] = 1 })
			mutate("terminator-long", func(c *CSR) { c.Offsets[n]++ })
			mutate("not-monotone", func(c *CSR) { c.Offsets[n/2+1] = c.Offsets[n/2] - 1 })
			mutate("not-monotone-and-out-of-range", func(c *CSR) {
				if ne > 0 {
					c.Edges[0] = VertexID(n)
				}
				c.Offsets[n] = c.Offsets[n-1] - 1
			})
		}
	}
	checkValidate(t, "nil", &CSR{})
	checkValidate(t, "edges-only", &CSR{Edges: []VertexID{1}})
}

func mustFromEdgeList(t *testing.T, n int, edges []Edge) *CSR {
	t.Helper()
	g, err := FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzValidate holds Validate to the reference on arbitrary small CSRs:
// the first byte is the vertex count, the next n+1 bytes are degrees
// (or, when the count byte's top bit is set, raw offsets), and the rest
// are destinations, which may fall out of range.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 1, 3, 0, 1, 2})
	f.Add([]byte{4, 0, 2, 0, 1, 0, 3, 1, 2})
	f.Add([]byte{3, 0, 0, 0, 0})
	f.Add([]byte{0x83, 0, 2, 1, 3, 0, 1, 2})
	f.Add([]byte{5, 0, 1, 0, 0, 2, 0, 1, 4, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] & 0x3f)
		raw := data[0]&0x80 != 0
		data = data[1:]
		if len(data) < n+1 {
			return
		}
		g := &CSR{Offsets: make([]int64, n+1)}
		for i := range g.Offsets {
			if raw {
				g.Offsets[i] = int64(data[i])
			} else if i > 0 {
				g.Offsets[i] = g.Offsets[i-1] + int64(data[i]%4)
			}
		}
		for _, b := range data[n+1:] {
			g.Edges = append(g.Edges, VertexID(b%byte(n+2)))
		}
		if !raw && int64(len(g.Edges)) > g.Offsets[n] {
			g.Edges = g.Edges[:g.Offsets[n]]
		}
		checkValidate(t, fmt.Sprintf("%v", data), g)
	})
}

// TestEdgesSortedMemo: the first EdgesSorted on a CSR literal scans and
// records; later calls read the memo, which SortEdges and ResetSorted
// update and Clone does not inherit.
func TestEdgesSortedMemo(t *testing.T) {
	g := &CSR{Offsets: []int64{0, 3, 4, 5, 6}, Edges: []VertexID{3, 1, 2, 0, 0, 0}}
	if g.SortednessKnown() {
		t.Fatal("literal starts with sortedness known")
	}
	if g.EdgesSorted() || !g.SortednessKnown() {
		t.Fatal("unsorted literal: want false, then known")
	}
	c := g.Clone()
	if c.SortednessKnown() {
		t.Fatal("Clone inherited the memo")
	}
	g.SortEdges()
	if !g.SortednessKnown() || !g.EdgesSorted() {
		t.Fatal("SortEdges did not record sorted")
	}
	// The memo, not a scan, answers: a list reordered behind its back
	// (which the CSR contract forbids) goes unnoticed until ResetSorted.
	adj := g.Neighbors(0)
	adj[0], adj[2] = adj[2], adj[0]
	if !g.EdgesSorted() {
		t.Fatal("EdgesSorted rescanned instead of reading the memo")
	}
	g.ResetSorted()
	if g.SortednessKnown() || g.EdgesSorted() {
		t.Fatal("ResetSorted: want unknown, then a scan finding the reversal")
	}
}

// TestSortednessRecordedOnLoad: builders that sort and every loader
// (they all call Validate) leave sortedness known, so the first color
// request after a load does not scan.
func TestSortednessRecordedOnLoad(t *testing.T) {
	g := mustFromEdgeList(t, 500, randomEdges(500, 3000, 8))
	if !g.SortednessKnown() || !g.EdgesSorted() {
		t.Fatal("FromEdgeList did not record sorted")
	}
	for _, c := range []struct {
		name   string
		g      *CSR
		sorted bool
	}{{"sorted", g, true}, {"unsorted", reversed(g), false}} {
		m := mapOneShard(t, writeOneShard(t, c.g))
		r1, err := ReadBinary(bytes.NewReader(encodeV1(c.g)))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ReadBinaryV2(bytes.NewReader(encodeV2(c.g)))
		if err != nil {
			t.Fatal(err)
		}
		for label, got := range map[string]*CSR{"v1": r1, "v2": r2, "mapped": m.Graph()} {
			if !got.SortednessKnown() || got.EdgesSorted() != c.sorted {
				t.Fatalf("%s %s: known=%v sorted=%v, want known and %v",
					c.name, label, got.SortednessKnown(), got.EdgesSorted(), c.sorted)
			}
		}
		m.Close()
	}
}

// TestEdgesSortedConcurrentFirstUse: goroutines racing on a fresh
// graph's first EdgesSorted agree, and -race sees no data race.
func TestEdgesSortedConcurrentFirstUse(t *testing.T) {
	for _, base := range []*CSR{mustFromEdgeList(t, 400, randomEdges(400, 3000, 2))} {
		for _, g := range []*CSR{base.Clone(), reversed(base)} {
			want := g.Clone().EdgesSorted()
			var wg sync.WaitGroup
			got := make([]bool, 8)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = g.EdgesSorted()
				}()
			}
			wg.Wait()
			for i, s := range got {
				if s != want {
					t.Fatalf("goroutine %d: EdgesSorted = %v, want %v", i, s, want)
				}
			}
		}
	}
}
