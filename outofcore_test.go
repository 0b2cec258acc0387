package bitcolor

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"bitcolor/internal/coloring"
)

// TestSaveGraphV3RoundTrip pins the eager v3 open path: SaveGraphV3's
// output sniffs as FormatBCSR3, OpenGraphFile materializes the exact
// source CSR, mapping each of the four shards once and releasing it, and
// exposes the persisted partition metadata, and LoadGraph reads the file
// too.
func TestSaveGraphV3RoundTrip(t *testing.T) {
	g, err := Generate("EF", 11)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ef.bcsr")
	if err := SaveGraphV3(path, g, 4, PartitionLabelProp); err != nil {
		t.Fatal(err)
	}
	h, err := OpenGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Format() != FormatBCSR3 {
		t.Fatalf("format = %q, want %q", h.Format(), FormatBCSR3)
	}
	if h.NumShards() != 4 || h.PartitionStrategy() != PartitionLabelProp {
		t.Fatalf("shards=%d strategy=%q", h.NumShards(), h.PartitionStrategy())
	}
	if h.OutOfCore() {
		t.Fatal("eager open reported out-of-core")
	}
	if st := h.ShardStats(); st.Maps != 4 || st.Unmaps != 4 || st.ResidentBytes != 0 {
		t.Fatalf("after the in-core open %+v, want 4 maps and unmaps, nothing resident", st)
	}
	got := h.Graph()
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("materialized %d/%d, want %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.Neighbors(VertexID(v)), got.Neighbors(VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d: %d vs %d neighbors", v, len(b), len(a))
		}
	}
	loaded, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != g.NumVertices() || loaded.NumEdges() != g.NumEdges() {
		t.Fatal("LoadGraph shape mismatch")
	}
}

// TestColorHandlePartitionCache pins the content-hash partition cache: a
// sharded run against a v3 handle reuses the persisted assignment (the
// cache-hit family increments and the colors are the engine's usual
// greedy-identical result), while a shard-count mismatch falls back to
// partitioning without a hit.
func TestColorHandlePartitionCache(t *testing.T) {
	g, err := Generate("EF", 12)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ef.bcsr")
	if err := SaveGraphV3(path, g, 4, PartitionRanges); err != nil {
		t.Fatal(err)
	}
	h, err := OpenGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ref, _, err := ColorContext(context.Background(), g,
		ColorOptions{Engine: EngineSharded, ShardCount: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver()
	hits := func() int64 {
		return o.Metrics().Counter("bitcolor_partition_cache_hits_total").Value(PartitionRanges)
	}
	// Unset shard count and strategy adopt the file's: cache hit.
	res, st, err := ColorHandle(h, ColorOptions{Engine: EngineSharded, Workers: 2, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if hits() != 1 {
		t.Fatalf("cache hits = %d, want 1", hits())
	}
	if st.Shards != 4 {
		t.Fatalf("cached run shards = %d", st.Shards)
	}
	for v := range ref.Colors {
		if res.Colors[v] != ref.Colors[v] {
			t.Fatalf("vertex %d: cached %d, fresh %d", v, res.Colors[v], ref.Colors[v])
		}
	}
	// Explicit matching count and strategy: hit again.
	if _, _, err := ColorHandle(h, ColorOptions{Engine: EngineSharded, ShardCount: 4,
		PartitionStrategy: PartitionRanges, Workers: 2, Observer: o}); err != nil {
		t.Fatal(err)
	}
	if hits() != 2 {
		t.Fatalf("cache hits = %d, want 2", hits())
	}
	// Mismatched shard count: the run still succeeds, but partitions
	// fresh — no new hit.
	if _, st, err := ColorHandle(h, ColorOptions{Engine: EngineSharded, ShardCount: 2,
		Workers: 2, Observer: o}); err != nil || st.Shards != 2 {
		t.Fatalf("mismatched run: shards=%d err=%v", st.Shards, err)
	}
	if hits() != 2 {
		t.Fatalf("cache hits after mismatch = %d, want 2", hits())
	}
	// Non-sharded engines ignore the cache entirely.
	if _, _, err := ColorHandle(h, ColorOptions{Engine: EngineBitwise, Observer: o}); err != nil {
		t.Fatal(err)
	}
	if hits() != 2 {
		t.Fatalf("cache hits after bitwise run = %d, want 2", hits())
	}
}

// TestColorHandleOutOfCore pins the end-to-end streaming path: an
// out-of-core handle colors byte-identically to the in-core engine,
// reports bounded residency, feeds the shard-map metric families, and
// rejects engines and handles the streaming executor cannot serve.
func TestColorHandleOutOfCore(t *testing.T) {
	g, err := Generate("EF", 13)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ef.bcsr")
	if err := SaveGraphV3(path, g, 4, PartitionRanges); err != nil {
		t.Fatal(err)
	}
	h, err := OpenGraphFileOutOfCore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.OutOfCore() || h.NumShards() != 4 {
		t.Fatalf("outofcore=%v shards=%d", h.OutOfCore(), h.NumShards())
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("Graph() on an out-of-core handle did not panic")
			}
		}()
		h.Graph()
	}()
	ref, _, err := ColorContext(context.Background(), g,
		ColorOptions{Engine: EngineSharded, ShardCount: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver()
	res, st, err := ColorHandle(h, ColorOptions{Engine: EngineSharded, Workers: 2,
		MaxResidentShards: 2, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.Colors {
		if res.Colors[v] != ref.Colors[v] {
			t.Fatalf("vertex %d: streamed %d, in-core %d", v, res.Colors[v], ref.Colors[v])
		}
	}
	if st.ResidentShards != 2 || st.PeakMappedBytes <= 0 {
		t.Fatalf("resident=%d peak=%d", st.ResidentShards, st.PeakMappedBytes)
	}
	m := o.Metrics()
	maps := m.Counter("bitcolor_shard_map_maps_total").Value("")
	unmaps := m.Counter("bitcolor_shard_map_unmaps_total").Value("")
	if maps <= 0 || maps != unmaps {
		t.Fatalf("shard map families: maps=%d unmaps=%d", maps, unmaps)
	}
	if peak := m.Gauge("bitcolor_shard_map_resident_bytes").GaugeValue(""); peak <= 0 {
		t.Fatalf("resident-bytes gauge = %v", peak)
	}
	if stats := h.ShardStats(); stats.ResidentBytes != 0 || stats.PeakResidentBytes != st.PeakMappedBytes {
		t.Fatalf("handle stats %+v vs run peak %d", stats, st.PeakMappedBytes)
	}
	// Streaming requires EngineSharded.
	if _, _, err := ColorHandle(h, ColorOptions{Engine: EngineBitwise}); err == nil ||
		!strings.Contains(err.Error(), "requires EngineSharded") {
		t.Fatalf("non-sharded out-of-core run: %v", err)
	}
	// And a v3 handle: a v2-backed handle must refuse OutOfCore.
	v2 := legacyFixture("legacy-v2.bcsr")
	h2, err := OpenGraphFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if _, _, err := ColorHandle(h2, ColorOptions{Engine: EngineSharded, OutOfCore: true}); err == nil ||
		!strings.Contains(err.Error(), "BCSR v3") {
		t.Fatalf("v2 out-of-core run: %v", err)
	}
	// OpenGraphFileOutOfCore itself rejects non-v3 files.
	if _, err := OpenGraphFileOutOfCore(v2); err == nil || !strings.Contains(err.Error(), "BCSR v3") {
		t.Fatalf("out-of-core open of v2: %v", err)
	}
	// Only range shards stream: a labelprop file is refused before any
	// shard is mapped, and the error points at the in-core open.
	lp := filepath.Join(t.TempDir(), "ef-lp.bcsr")
	if err := SaveGraphV3(lp, g, 4, PartitionLabelProp); err != nil {
		t.Fatal(err)
	}
	h3, err := OpenGraphFileOutOfCore(lp)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	if _, _, err := ColorHandle(h3, ColorOptions{Engine: EngineSharded}); !errors.Is(err, coloring.ErrUnorderedShards) ||
		!strings.Contains(err.Error(), "OpenGraphFile") {
		t.Fatalf("labelprop out-of-core run: %v", err)
	}
	if maps := h3.ShardStats().Maps; maps != 0 {
		t.Fatalf("refused run mapped %d sections", maps)
	}
}

// TestColorHandleOutOfCoreRecordsFileSize pins how an observed streamed
// run is recorded. The engine gets no graph, so the engine span and the
// run registry's flight recorder must take the vertex and edge counts
// from the shard file, not report an empty graph.
func TestColorHandleOutOfCoreRecordsFileSize(t *testing.T) {
	g, err := Generate("GD", 14)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gd.bcsr")
	if err := SaveGraphV3(path, g, 4, PartitionRanges); err != nil {
		t.Fatal(err)
	}
	h, err := OpenGraphFileOutOfCore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	o := NewObserver()
	if _, _, err := ColorHandle(h, ColorOptions{Engine: EngineSharded, Workers: 2, Observer: o}); err != nil {
		t.Fatal(err)
	}
	wantV, wantE := int64(g.NumVertices()), g.NumEdges()
	if wantV == 0 || wantE == 0 {
		t.Fatal("empty test graph")
	}
	spans := 0
	for _, sp := range o.Spans() {
		if sp.Name != "engine/sharded" {
			continue
		}
		spans++
		attrs := map[string]any{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["vertices"] != wantV || attrs["edges"] != wantE {
			t.Fatalf("engine span records vertices=%v edges=%v, want %d/%d",
				attrs["vertices"], attrs["edges"], wantV, wantE)
		}
	}
	if spans != 1 {
		t.Fatalf("%d engine/sharded spans", spans)
	}
	found := false
	for _, r := range RecentRuns() {
		if r.Observer() != o {
			continue
		}
		found = true
		if r.Vertices != wantV || r.Edges != wantE {
			t.Fatalf("flight recorder records vertices=%d edges=%d, want %d/%d",
				r.Vertices, r.Edges, wantV, wantE)
		}
	}
	if !found {
		t.Fatal("observed streamed run missing from the flight recorder")
	}
}
