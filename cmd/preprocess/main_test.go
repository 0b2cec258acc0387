package main

import (
	"os"
	"path/filepath"
	"testing"

	"bitcolor"
	"bitcolor/internal/graph"
)

func TestRunDatasetWithTiming(t *testing.T) {
	if err := run("", "EF", "", 1, true, saveConfig{}, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dbg.bcsr")
	if err := run("", "EF", out, 1, false, saveConfig{}, false); err != nil {
		t.Fatal(err)
	}
	g, err := bitcolor.LoadGraph(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("empty output")
	}
	// The written graph must carry the DBG invariant.
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(bitcolor.VertexID(v)) > g.Degree(bitcolor.VertexID(v-1)) {
			t.Fatal("output not degree-descending")
		}
	}
}

func TestRunFromFile(t *testing.T) {
	g, err := bitcolor.Generate("EF", 2)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "in.bcsr")
	if err := bitcolor.SaveGraph(in, g); err != nil {
		t.Fatal(err)
	}
	if err := run(in, "", "", 1, false, saveConfig{}, false); err != nil {
		t.Fatal(err)
	}
}

// A text edge list goes through the split parse + build path;
// the written output must match the dataset path's result.
func TestRunFromEdgeListText(t *testing.T) {
	g, err := bitcolor.Generate("EF", 3)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "in.txt")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "dbg.bcsr")
	if err := run(in, "", out, 1, false, saveConfig{}, false); err != nil {
		t.Fatal(err)
	}
	got, err := bitcolor.LoadGraph(out)
	if err != nil {
		t.Fatal(err)
	}
	// The text format only names non-isolated vertices, so compare edge
	// counts (exact) and vertex counts as an upper bound.
	if got.NumEdges() != g.NumEdges() || got.NumVertices() > g.NumVertices() || got.NumVertices() == 0 {
		t.Fatalf("round trip changed the graph: %d/%d vs %d/%d vertices/edges",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

// TestRunWritesV2Output checks -obin-v2 produces a BCSR v2 file that
// loads back (via the sniffing loader) with the DBG invariant intact.
func TestRunWritesV2Output(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dbg.bcsr")
	if err := run("", "EF", out, 1, false, saveConfig{v2: true}, false); err != nil {
		t.Fatal(err)
	}
	if format, err := graph.SniffFormat(out); err != nil || format != graph.FormatBCSR2 {
		t.Fatalf("sniff: %v %v, want %s", format, err, graph.FormatBCSR2)
	}
	g, err := bitcolor.LoadGraph(out)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(bitcolor.VertexID(v)) > g.Degree(bitcolor.VertexID(v-1)) {
			t.Fatal("output not degree-descending")
		}
	}
}

// TestRunConvertV1ToV2 drives the pure conversion path: a v1 .bcsr in,
// an identical graph out in v2 layout, no reordering applied.
func TestRunConvertV1ToV2(t *testing.T) {
	g, err := bitcolor.Generate("EF", 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bcsr")
	if err := bitcolor.SaveGraph(in, g); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.bcsr")
	if err := run(in, "", out, 1, false, saveConfig{v2: true}, true); err != nil {
		t.Fatal(err)
	}
	got, err := bitcolor.LoadGraph(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("conversion changed the graph: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.Neighbors(bitcolor.VertexID(v)), got.Neighbors(bitcolor.VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: adjacency differs", v)
			}
		}
	}
	// -convert without -out must refuse rather than silently discard.
	if err := run(in, "", "", 1, false, saveConfig{v2: true}, true); err == nil {
		t.Fatal("-convert without -out accepted")
	}
}

// TestRunConvertV1ToV3 drives the v3 conversion path: a v1 .bcsr in, a
// shard-major v3 file out carrying the requested partition shape, same
// graph back through the sniffing loader.
func TestRunConvertV1ToV3(t *testing.T) {
	g, err := bitcolor.Generate("EF", 6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bcsr")
	if err := bitcolor.SaveGraph(in, g); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.bcsr")
	cfg := saveConfig{v3: true, shards: 2, strategy: bitcolor.PartitionLabelProp}
	if err := run(in, "", out, 1, false, cfg, true); err != nil {
		t.Fatal(err)
	}
	if format, err := graph.SniffFormat(out); err != nil || format != graph.FormatBCSR3 {
		t.Fatalf("sniff: %v %v, want %s", format, err, graph.FormatBCSR3)
	}
	h, err := bitcolor.OpenGraphFile(out)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.NumShards() != 2 || h.PartitionStrategy() != bitcolor.PartitionLabelProp {
		t.Fatalf("shards=%d strategy=%q", h.NumShards(), h.PartitionStrategy())
	}
	if got := h.Graph(); got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("conversion changed the graph: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	// The two -obin flags are mutually exclusive.
	if err := run(in, "", out, 1, false, saveConfig{v2: true, v3: true}, true); err == nil {
		t.Fatal("-obin-v2 with -obin-v3 accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", "", 1, false, saveConfig{}, false); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := run("/nope.txt", "", "", 1, false, saveConfig{}, false); err == nil {
		t.Fatal("missing file accepted")
	}
}
