package bitcolor

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitcolor/internal/graph"
)

// graphWriteDIMACS adapts the internal writer for the API test.
func graphWriteDIMACS(w io.Writer, g *Graph) error {
	return graph.WriteDIMACS(w, g, "api test")
}

func TestGenerateAndColorAllEngines(t *testing.T) {
	g, err := Generate("RC", 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{
		EngineGreedy, EngineBitwise, EngineDSATUR, EngineWelshPowell,
		EngineSmallestLast, EngineJonesPlassmann, EngineLubyMIS,
	} {
		res, err := Color(h, ColorOptions{Engine: e, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if res.NumColors <= 0 {
			t.Fatalf("%v: no colors", e)
		}
	}
}

func TestGreedyAndBitwiseAgree(t *testing.T) {
	g, err := Generate("CD", 2)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Preprocess(g)
	a, err := Color(h, ColorOptions{Engine: EngineGreedy})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Color(h, ColorOptions{Engine: EngineBitwise})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("vertex %d: greedy %d bitwise %d", v, a.Colors[v], b.Colors[v])
		}
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	g, err := Generate("GD", 3)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Preprocess(g)
	cfg := DefaultSimConfig(8)
	cfg.CacheVertices = 2048
	res, err := Simulate(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= 0 || res.MCVps <= 0 {
		t.Fatalf("timing missing: %+v", res.Breakdown())
	}
}

func TestPreprocessWithPermutation(t *testing.T) {
	g, err := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	h, newID, err := PreprocessWithPermutation(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(newID) != 4 {
		t.Fatalf("permutation length %d", len(newID))
	}
	// Vertex 1 has the highest degree → index 0 after DBG.
	if newID[1] != 0 {
		t.Fatalf("hub relabeled to %d, want 0", newID[1])
	}
	if h.Degree(0) != 3 {
		t.Fatalf("reordered hub degree %d", h.Degree(0))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, err := Generate("EF", 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
}

// TestParseEngineRoundTrip iterates every declared Engine constant: each
// must have a real name (not the Engine(%d) fallback) and parse back to
// itself, so a future engine cannot be added without being reachable
// from the CLIs.
func TestParseEngineRoundTrip(t *testing.T) {
	all := Engines()
	// Engines are consecutive iota constants starting at EngineGreedy;
	// Engines() must cover the full range with no gaps or duplicates.
	seen := map[Engine]bool{}
	for _, e := range all {
		if seen[e] {
			t.Fatalf("Engines() lists %v twice", e)
		}
		seen[e] = true
		if int(e) < 0 || int(e) >= len(all) {
			t.Fatalf("engine %v outside the iota range [0,%d)", e, len(all))
		}
	}
	for _, e := range all {
		name := e.String()
		if strings.HasPrefix(name, "Engine(") {
			t.Fatalf("engine %d has no String name", int(e))
		}
		got, err := ParseEngine(name)
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%s) = %v, %v", name, got, err)
		}
	}
	// One past the last declared engine must not be nameable or parseable:
	// catches an engine added to the iota block but not to Engines().
	next := Engine(len(all))
	if !strings.HasPrefix(next.String(), "Engine(") {
		t.Fatalf("Engine(%d) has a name %q but is not listed in Engines()", len(all), next.String())
	}
	if _, err := ParseEngine("quantum"); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

func TestDatasets(t *testing.T) {
	ds := Datasets()
	if len(ds) != 10 {
		t.Fatalf("datasets = %v", ds)
	}
	if _, err := Generate("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestEstimateResources(t *testing.T) {
	u, err := EstimateResources(16)
	if err != nil {
		t.Fatal(err)
	}
	if !u.FitsU200() {
		t.Fatal("P16 should fit")
	}
	if _, err := EstimateResources(5); err == nil {
		t.Fatal("P=5 accepted")
	}
}

func TestColorRejectsBadOptions(t *testing.T) {
	g, _ := NewGraph(3, []Edge{{U: 0, V: 1}})
	if _, err := Color(g, ColorOptions{Engine: Engine(99)}); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

func TestEngineRLF(t *testing.T) {
	// EF is the smallest dataset; RLF's per-class scans are quadratic.
	g, err := Generate("EF", 6)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Preprocess(g)
	res, err := Color(h, ColorOptions{Engine: EngineRLF})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors <= 0 {
		t.Fatal("RLF produced no colors")
	}
}

func TestImprovePipeline(t *testing.T) {
	g, err := Generate("CD", 4)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Preprocess(g)
	initial, err := Color(h, ColorOptions{Engine: EngineBitwise})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := Improve(h, initial, ImproveOptions{
		IteratedRounds: 6, KempePasses: 2, Equitable: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if improved.NumColors > initial.NumColors {
		t.Fatalf("Improve went from %d to %d colors", initial.NumColors, improved.NumColors)
	}
	if err := Verify(h, improved.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestImproveRejectsInvalidInitial(t *testing.T) {
	g, _ := NewGraph(2, []Edge{{U: 0, V: 1}})
	bad := &Result{Colors: []uint16{1, 1}, NumColors: 1}
	if _, err := Improve(g, bad, ImproveOptions{}); err == nil {
		t.Fatal("invalid initial coloring accepted")
	}
}

func TestSimulateBFSAndJP(t *testing.T) {
	g, err := Generate("EF", 8)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Preprocess(g)
	cfg := DefaultSimConfig(4)
	cfg.CacheVertices = h.NumVertices()
	bfs, err := SimulateBFS(h, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Depth <= 0 || bfs.TotalCycles <= 0 {
		t.Fatalf("BFS result %+v", bfs.Depth)
	}
	jp, err := SimulateJonesPlassmann(h, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, jp.Colors); err != nil {
		t.Fatal(err)
	}
	greedy, err := Simulate(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if jp.TotalCycles <= greedy.TotalCycles {
		t.Fatalf("JP on substrate (%d) not slower than greedy pipeline (%d)",
			jp.TotalCycles, greedy.TotalCycles)
	}
}

func TestEngineSpeculative(t *testing.T) {
	g, err := Generate("GD", 10)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Preprocess(g)
	res, err := Color(h, ColorOptions{Engine: EngineSpeculative, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestEngineParallelBitwise(t *testing.T) {
	g, err := Generate("GD", 10)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Preprocess(g)
	res, st, err := ColorContext(context.Background(), h, ColorOptions{Engine: EngineParallelBitwise, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 || st.Rounds < 1 {
		t.Fatalf("stats: %v", st)
	}
	// Color must accept the engine too (stats dropped).
	if _, err := Color(h, ColorOptions{Engine: EngineParallelBitwise, Workers: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDIMACSAndImproveWithTabu(t *testing.T) {
	g, err := Generate("EF", 11)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through DIMACS.
	path := filepath.Join(t.TempDir(), "g.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphWriteDIMACS(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() {
		t.Fatal("DIMACS round trip changed vertex count")
	}
	initial, err := Color(g2, ColorOptions{Engine: EngineBitwise})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := Improve(g2, initial, ImproveOptions{TabuIters: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if improved.NumColors > initial.NumColors {
		t.Fatal("tabu made it worse")
	}
}

func TestDynamicAPI(t *testing.T) {
	d := NewDynamic(16)
	a, b := d.AddVertex(), d.AddVertex()
	if err := d.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if d.Color(a) == d.Color(b) {
		t.Fatal("adjacent same color")
	}
}
