package main

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bitcolor"
	"bitcolor/internal/graph"
)

func TestRunDatasetWithTiming(t *testing.T) {
	if err := run("", "EF", "", 1, true, saveConfig{}, false); err != nil {
		t.Fatal(err)
	}
}

// TestRunTimeBaselineIsGreedyLiteral pins the -time baseline to the
// paper's Algorithm 1, coloring.GreedyLiteral — the baseline
// benchsuite -exp table2 divides by — named on both stat lines.
func TestRunTimeBaselineIsGreedyLiteral(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run("", "EF", "", 1, true, saveConfig{}, false)
	os.Stdout = stdout
	w.Close()
	text := <-out
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{"GreedyLiteral (paper Algorithm 1) coloring:", "reorder/GreedyLiteral ratio:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("-time output lacks %q:\n%s", want, text)
		}
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

// TestRunWritesV3Output checks -out is a one-shard BCSR v3 file by
// default, which OpenGraphFile maps zero-copy, with the DBG invariant
// intact.
func TestRunWritesV3Output(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dbg.bcsr")
	if err := run("", "EF", out, 1, false, saveConfig{}, false); err != nil {
		t.Fatal(err)
	}
	h, err := bitcolor.OpenGraphFile(out)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Format() != bitcolor.FormatBCSR3 || h.NumShards() != 1 {
		t.Fatalf("wrote %s with %d shards, want one-shard %s", h.Format(), h.NumShards(), bitcolor.FormatBCSR3)
	}
	if runtime.GOOS == "linux" && !h.Mapped() {
		t.Error("one-shard output not mapped")
	}
	g := h.Graph()
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(bitcolor.VertexID(v)) > g.Degree(bitcolor.VertexID(v-1)) {
			t.Fatal("output not degree-descending")
		}
	}
}

// legacyFixture names a file the retired binary writers left in the
// graph package's testdata (legacy.txt is their source graph).
func legacyFixture(name string) string {
	return filepath.Join("..", "..", "internal", "graph", "testdata", name)
}

// TestRunConvertLegacyFixtures drives the pure conversion path on files
// from the retired v1 and v2 writers and an old four-shard v3 file: each
// comes out as a one-shard v3 file holding its source graph unchanged,
// with no boundary blocks, and colors like it.
func TestRunConvertLegacyFixtures(t *testing.T) {
	src, err := bitcolor.LoadGraph(legacyFixture("legacy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := bitcolor.Color(src, bitcolor.ColorOptions{Engine: bitcolor.EngineGreedy})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"legacy-v1.bcsr", "legacy-v2.bcsr", "legacy-v3-4shard.bcsr"} {
		out := filepath.Join(t.TempDir(), "out.bcsr")
		if err := run(legacyFixture(name), "", out, 1, false, saveConfig{}, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sf, err := graph.OpenShardedFile(out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sf.Shards() != 1 {
			t.Fatalf("%s: converted to %d shards, want 1", name, sf.Shards())
		}
		sf.Close()
		h, err := bitcolor.OpenGraphFile(out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := h.Graph()
		if !slices.Equal(got.Offsets, src.Offsets) || !slices.Equal(got.Edges, src.Edges) {
			t.Fatalf("%s: conversion changed the graph", name)
		}
		res, err := bitcolor.Color(got, bitcolor.ColorOptions{Engine: bitcolor.EngineDCT, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(res.Colors, want.Colors) {
			t.Fatalf("%s: converted graph colors differ from its source's", name)
		}
		h.Close()
	}
	// -convert without -out must refuse rather than silently discard.
	if err := run(legacyFixture("legacy-v1.bcsr"), "", "", 1, false, saveConfig{}, true); err == nil {
		t.Fatal("-convert without -out accepted")
	}
}

// TestRunConvertV1ToV3 drives the v3 conversion path: a v1 .bcsr in, a
// shard-major v3 file out carrying the requested partition shape, same
// graph back through the sniffing loader.
func TestRunConvertV1ToV3(t *testing.T) {
	g, err := bitcolor.LoadGraph(legacyFixture("legacy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	in := legacyFixture("legacy-v1.bcsr")
	out := filepath.Join(t.TempDir(), "out.bcsr")
	cfg := saveConfig{shards: 2, strategy: bitcolor.PartitionLabelProp}
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
	if got := h.Graph(); !slices.Equal(got.Offsets, g.Offsets) || !slices.Equal(got.Edges, g.Edges) {
		t.Fatal("conversion changed the graph")
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
