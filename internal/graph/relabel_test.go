package graph

import (
	"bytes"
	"slices"
	"testing"
)

// identityIDs is the identity renaming of n vertices.
func identityIDs(n int) []VertexID {
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = VertexID(i)
	}
	return ids
}

// TestSymmetryRecord: FromEdgeList and a relabel of a recorded graph
// record symmetry; copies, loaders, directed builds, literals and a
// relabel of an unrecorded graph leave it unknown.
func TestSymmetryRecord(t *testing.T) {
	g := mustFromEdgeList(t, 500, randomEdges(500, 3000, 8))
	ids := identityIDs(g.NumVertices())
	rev := slices.Clone(ids)
	slices.Reverse(rev)
	recorded := map[string]*CSR{
		"FromEdgeList":         g,
		"relabel":              Relabel(g, rev, rev),
		"relabel of a relabel": Relabel(Relabel(g, rev, rev), ids, ids),
	}
	for label, c := range recorded {
		if !c.symmetric.Load() || !c.IsUndirected() {
			t.Fatalf("%s: recorded=%v undirected=%v, want both", label, c.symmetric.Load(), c.IsUndirected())
		}
	}

	r1, err := ReadBinary(bytes.NewReader(encodeV1(g)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReadBinaryV2(bytes.NewReader(encodeV2(g)))
	if err != nil {
		t.Fatal(err)
	}
	m := mapOneShard(t, writeOneShard(t, g))
	defer m.Close()
	r3, _, err := LoadBinaryV3File(writeV3File(t, g, rangeParts(g.NumVertices(), 2), 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	directed, err := FromDirectedEdgeList(3, []Edge{{0, 1}, {1, 0}, {2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for label, c := range map[string]*CSR{
		"Clone":                 g.Clone(),
		"ReadBinary":            r1,
		"ReadBinaryV2":          r2,
		"MapCSR":                m.Graph(),
		"LoadBinaryV3File":      r3,
		"FromDirectedEdgeList":  directed,
		"literal":               {Offsets: []int64{0, 1, 2}, Edges: []VertexID{1, 0}},
		"relabel of a Clone":    Relabel(g.Clone(), rev, rev),
		"relabel of a directed": Relabel(directed, identityIDs(3), identityIDs(3)),
	} {
		if c.symmetric.Load() {
			t.Fatalf("%s: recorded symmetric, want unknown", label)
		}
	}
}

// HasEdge consults the sortedness memo, recording it on first use, and
// agrees with a linear scan on sorted and unsorted graphs.
func TestHasEdgeReadsSortednessMemo(t *testing.T) {
	g := mustFromEdgeList(t, 300, randomEdges(300, 2000, 3))
	for _, c := range []*CSR{g.Clone(), reversed(g)} {
		if c.SortednessKnown() {
			t.Fatal("fresh copy starts with sortedness known")
		}
		for u := range VertexID(c.NumVertices()) {
			for v := range VertexID(c.NumVertices()) {
				if c.HasEdge(u, v) != slices.Contains(c.Neighbors(u), v) {
					t.Fatalf("HasEdge(%d, %d) disagrees with a scan", u, v)
				}
			}
		}
		if !c.SortednessKnown() {
			t.Fatal("HasEdge did not record sortedness")
		}
	}
}
