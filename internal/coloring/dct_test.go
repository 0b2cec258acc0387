package coloring

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/reorder"
)

// pathGraph builds the n-vertex path 0-1-2-…-(n-1): the worst case for
// color forwarding, because every vertex waits on its immediate
// predecessor and the dependency chain spans the whole graph.
func pathGraph(t testing.TB, n int) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)}
	}
	g, err := graph.FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDCTMatchesGreedyEveryWorkerCount pins the tentpole acceptance
// criterion: on the DBG order the DCT engine completes in exactly one
// pass with zero repairs and its coloring is byte-identical to
// sequential greedy for every worker count.
func TestDCTMatchesGreedyEveryWorkerCount(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"random": randomGraph(t, 2000, 24000, 9),
		"path":   pathGraph(t, 5000),
	}
	dbg, _ := reorder.DBG(randomGraph(t, 1500, 18000, 4))
	graphs["dbg"] = dbg
	for name, g := range graphs {
		ref, err := Greedy(context.Background(), g, MaxColorsDefault)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			res, st, err := DCTOpts(context.Background(), g, MaxColorsDefault, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, w, err)
			}
			if err := Verify(g, res.Colors); err != nil {
				t.Fatalf("%s w=%d: %v", name, w, err)
			}
			if st.Rounds != 1 || st.ConflictsFound != 0 || st.ConflictsRepaired != 0 {
				t.Fatalf("%s w=%d: not a single clean pass: rounds=%d conflicts=%d/%d",
					name, w, st.Rounds, st.ConflictsFound, st.ConflictsRepaired)
			}
			if st.Workers != w {
				t.Fatalf("%s: Workers = %d, want %d", name, st.Workers, w)
			}
			for v := range ref.Colors {
				if res.Colors[v] != ref.Colors[v] {
					t.Fatalf("%s w=%d: vertex %d: dct %d, greedy %d",
						name, w, v, res.Colors[v], ref.Colors[v])
				}
			}
			if st.TotalVertices() != int64(g.NumVertices()) {
				t.Fatalf("%s w=%d: colored %d of %d vertices",
					name, w, st.TotalVertices(), g.NumVertices())
			}
		}
	}
}

// TestDCTPathGraphStarvation is the worst-case forwarding chain: on a
// path every vertex v defers on v-1 until that color lands, so the
// engine lives off its rings and spin fallback. The run must terminate,
// alternate two colors like greedy, and never need a repair.
func TestDCTPathGraphStarvation(t *testing.T) {
	g := pathGraph(t, 50_000)
	for _, w := range []int{2, 4, 8} {
		res, st, err := DCTOpts(context.Background(), g, MaxColorsDefault, Options{Workers: w})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if res.NumColors != 2 {
			t.Fatalf("w=%d: path colored with %d colors, want 2", w, res.NumColors)
		}
		for v, c := range res.Colors {
			if want := uint16(1 + v%2); c != want {
				t.Fatalf("w=%d: vertex %d colored %d, want %d", w, v, c, want)
			}
		}
		if st.Rounds != 1 || st.ConflictsRepaired != 0 {
			t.Fatalf("w=%d: rounds=%d repaired=%d", w, st.Rounds, st.ConflictsRepaired)
		}
	}
}

// TestDCTDeferredTelemetry: deferrals are scheduling-dependent, so no
// single run is guaranteed to park — but across repeated multi-worker
// runs on a path graph (where any worker that pulls ahead must park) a
// complete absence of deferrals means the counters are dead.
func TestDCTDeferredTelemetry(t *testing.T) {
	g := pathGraph(t, 20_000)
	var deferred, retries int64
	ringPeak := 0
	for i := 0; i < 20 && deferred == 0; i++ {
		_, st, err := DCTOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		deferred += st.Deferred
		retries += st.DeferRetries
		if st.ForwardRingPeak > ringPeak {
			ringPeak = st.ForwardRingPeak
		}
	}
	if deferred == 0 {
		t.Fatal("20 multi-worker path runs never deferred a vertex")
	}
	if retries < deferred {
		t.Fatalf("retries %d < deferred %d: every park needs at least one replay", retries, deferred)
	}
	if ringPeak == 0 {
		t.Fatal("deferred vertices recorded but ring peak stayed zero")
	}
	if ringPeak > ForwardRingCap {
		t.Fatalf("ring peak %d exceeds the bound %d", ringPeak, ForwardRingCap)
	}
}

// TestDCTCancelMidPass cancels a multi-worker run shortly after start on
// a graph big enough that it cannot finish first, and asserts the engine
// returns ctx.Err() with no result — including the workers parked in
// spin waits, which must notice the abort flag.
func TestDCTCancelMidPass(t *testing.T) {
	g := pathGraph(t, 2_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, _, err := DCTOpts(ctx, g, MaxColorsDefault, Options{Workers: 4})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Log("run finished before cancellation took effect")
			return
		}
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", o.err)
		}
		if o.res != nil {
			t.Fatal("result returned alongside cancellation")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine did not return after cancellation")
	}
}

// TestDCTPaletteExhausted: a clique needs n colors; with a smaller
// palette every worker must stop and agree on ErrPaletteExhausted
// rather than hang waiting for colors that will never be published.
func TestDCTPaletteExhausted(t *testing.T) {
	const n = 80
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
		}
	}
	g, err := graph.FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		res, _, err := DCTOpts(context.Background(), g, 64, Options{MaxColors: 64, Workers: w, ForceGather: true})
		if !errors.Is(err, ErrPaletteExhausted) {
			t.Fatalf("w=%d: want ErrPaletteExhausted, got %v", w, err)
		}
		if res != nil {
			t.Fatalf("w=%d: result returned alongside palette exhaustion", w)
		}
	}
}

// TestDCTEmptyGraph pins the degenerate case.
func TestDCTEmptyGraph(t *testing.T) {
	g, err := graph.FromEdgeList(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := DCTOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 0 || st.Rounds != 0 {
		t.Fatalf("empty graph: colors=%d rounds=%d", res.NumColors, st.Rounds)
	}
}

// TestDCTRaceStress hammers the forwarding path under the race detector:
// dense random graphs where cross-worker waits are constant.
func TestDCTRaceStress(t *testing.T) {
	g := randomGraph(t, 500, 12000, 77)
	ref, err := Greedy(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, _, err := DCTOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.Colors {
			if res.Colors[v] != ref.Colors[v] {
				t.Fatalf("iteration %d vertex %d: dct %d, greedy %d", i, v, res.Colors[v], ref.Colors[v])
			}
		}
	}
}

// TestAdaptiveGatherDecision pins the average-degree heuristic across
// all three host engines: low-degree graphs auto-disable the gather
// (recorded in GatherStats), ForceGather overrides the heuristic, and
// DisableGather is never reported as an auto decision.
func TestAdaptiveGatherDecision(t *testing.T) {
	sparse := pathGraph(t, 4000)                            // avg degree ~2: below the threshold
	dense, _ := reorder.DBG(randomGraph(t, 1000, 12000, 5)) // avg degree ~24: above it
	engines := []struct {
		name string
		run  func(g *graph.CSR, opts Options) (ParallelStatsProbe, error)
	}{
		{"parallelbitwise", func(g *graph.CSR, opts Options) (ParallelStatsProbe, error) {
			_, st, err := ParallelBitwiseOpts(context.Background(), g, MaxColorsDefault, opts)
			return ParallelStatsProbe{st.Gather.AutoDisabled, st.Gather.Reads(), st.HotThreshold}, err
		}},
		{"speculative", func(g *graph.CSR, opts Options) (ParallelStatsProbe, error) {
			_, st, err := SpeculativeOpts(context.Background(), g, MaxColorsDefault, opts)
			return ParallelStatsProbe{st.Gather.AutoDisabled, st.Gather.Reads(), st.HotThreshold}, err
		}},
		{"dct", func(g *graph.CSR, opts Options) (ParallelStatsProbe, error) {
			_, st, err := DCTOpts(context.Background(), g, MaxColorsDefault, opts)
			return ParallelStatsProbe{st.Gather.AutoDisabled, st.Gather.Reads(), st.HotThreshold}, err
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			// Low degree, default options: the heuristic switches off.
			p, err := e.run(sparse, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !p.AutoDisabled || p.Reads != 0 || p.HotThreshold != 0 {
				t.Fatalf("sparse default: %+v, want auto-disabled with zero gather stats", p)
			}
			// ForceGather bypasses the heuristic.
			p, err = e.run(sparse, Options{Workers: 2, ForceGather: true})
			if err != nil {
				t.Fatal(err)
			}
			if p.AutoDisabled || p.Reads == 0 || p.HotThreshold == 0 {
				t.Fatalf("sparse forced: %+v, want gather on", p)
			}
			// Explicit disable is not an auto decision.
			p, err = e.run(sparse, Options{Workers: 2, DisableGather: true})
			if err != nil {
				t.Fatal(err)
			}
			if p.AutoDisabled || p.Reads != 0 {
				t.Fatalf("sparse disabled: %+v, want plain off", p)
			}
			// High degree, default options: the gather stays on.
			p, err = e.run(dense, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if p.AutoDisabled || p.Reads == 0 {
				t.Fatalf("dense default: %+v, want gather on", p)
			}
		})
	}
}

// ParallelStatsProbe is the slice of RunStats the adaptive-gather test
// compares across engines.
type ParallelStatsProbe struct {
	AutoDisabled bool
	Reads        int64
	HotThreshold uint32
}

// TestDCTQualityOnTable3 runs the engine across every Table 3 stand-in
// at real parallelism: always one pass, always exactly the sequential
// greedy coloring of the DBG order.
func TestDCTQualityOnTable3(t *testing.T) {
	for _, d := range gen.SmallRegistry() {
		d := d
		t.Run(d.Abbrev, func(t *testing.T) {
			g, err := d.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			h, _ := reorder.DBG(g)
			seq, err := BitwiseGreedy(context.Background(), h, MaxColorsDefault, true)
			if err != nil {
				t.Fatal(err)
			}
			res, st, err := DCTOpts(context.Background(), h, MaxColorsDefault, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if st.Rounds != 1 {
				t.Fatalf("rounds = %d", st.Rounds)
			}
			for v := range seq.Colors {
				if res.Colors[v] != seq.Colors[v] {
					t.Fatalf("vertex %d: dct %d, sequential %d", v, res.Colors[v], seq.Colors[v])
				}
			}
		})
	}
}

// TestUnsortedLiteralMatchesGreedy: a CSR literal with unsorted lists
// starts with its sortedness unknown. Every engine that promises
// sequential greedy's coloring must still give it byte for byte, on the
// run that scans and records the sortedness and on later runs that read
// the memo — and again after SortEdges flips the memo to sorted.
func TestUnsortedLiteralMatchesGreedy(t *testing.T) {
	ctx := context.Background()
	h, _ := reorder.DBG(randomGraph(t, 1200, 14000, 12))
	want, err := Greedy(ctx, h, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	rev := reverseLists(h)
	type point struct {
		engine          string
		workers, shards int
	}
	points := []point{{"bitwise", 1, 0}}
	for _, w := range []int{1, 2, 4} {
		points = append(points, point{"dct", w, 0})
		for _, s := range []int{1, 2, 3} {
			points = append(points, point{"sharded", w, s})
		}
	}
	for _, p := range points {
		g := &graph.CSR{Offsets: rev.Offsets, Edges: slices.Clone(rev.Edges)}
		info, _ := Lookup(p.engine)
		for _, phase := range []string{"first", "memo", "memo", "sorted"} {
			if phase == "sorted" {
				g.SortEdges()
			}
			res, _, err := info.Run(ctx, g, Options{Workers: p.workers, Shards: p.shards})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Colors, want.Colors) {
				t.Fatalf("%+v %s run: colors differ from sequential greedy", p, phase)
			}
			// The DCT kernels read the sortedness (bitwise never does), so
			// after their run it is known and right.
			if p.engine != "bitwise" && (!g.SortednessKnown() || g.EdgesSorted() != (phase == "sorted")) {
				t.Fatalf("%+v after %s run: known=%v sorted=%v", p, phase, g.SortednessKnown(), g.EdgesSorted())
			}
		}
	}
}
