package graph_test

import (
	"os"
	"path/filepath"
	"testing"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
)

// writeGDEdgeList writes the full-size GD stand-in (seed 1) as a SNAP
// edge list, the way the repository benchmark writes its inputs.
func writeGDEdgeList(tb testing.TB) string {
	tb.Helper()
	d, err := gen.ByAbbrev("GD")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := d.Build(1)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "gd.txt")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// Loading a text edge list allocates a constant number of times per
// file, not per line: the parser reads lines in place and sizes its edge
// slice once, and the build allocates its arrays once each.
func TestLoadEdgeListFileAllocs(t *testing.T) {
	path := writeGDEdgeList(t)
	var g *graph.CSR
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if g, err = graph.LoadEdgeListFile(path); err != nil {
			t.Fatal(err)
		}
	})
	if g.NumVertices() != 24000 {
		t.Fatalf("loaded %v, want the 24000-vertex GD stand-in", g)
	}
	if allocs > 64 {
		t.Fatalf("LoadEdgeListFile made %.0f allocations on %v, want ≤ 64", allocs, g)
	}
}

func BenchmarkLoadEdgeListFile(b *testing.B) {
	path := writeGDEdgeList(b)
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.LoadEdgeListFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
