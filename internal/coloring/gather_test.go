package coloring

import (
	"context"
	"slices"
	"testing"

	"bitcolor/internal/cache"
	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
	"bitcolor/internal/reorder"
)

// The gather is a memory-path change only: with one worker both engines
// must produce identical colorings with the gather on and off.
func TestGatherAblationIdenticalAtOneWorker(t *testing.T) {
	g := randomGraph(t, 600, 6000, 21)
	h, _ := reorder.DBG(g)
	for _, engine := range []string{"parallelbitwise", "speculative"} {
		run := func(disable bool) []uint16 {
			opts := Options{Workers: 1, DisableGather: disable}
			var colors []uint16
			if engine == "parallelbitwise" {
				res, _, err := ParallelBitwiseOpts(context.Background(), h, MaxColorsDefault, opts)
				if err != nil {
					t.Fatal(err)
				}
				colors = res.Colors
			} else {
				res, _, err := SpeculativeOpts(context.Background(), h, MaxColorsDefault, opts)
				if err != nil {
					t.Fatal(err)
				}
				colors = res.Colors
			}
			return colors
		}
		on, off := run(false), run(true)
		for v := range on {
			if on[v] != off[v] {
				t.Fatalf("%s: vertex %d: gather-on %d, gather-off %d", engine, v, on[v], off[v])
			}
		}
	}
}

// On a DBG-reordered, edge-sorted graph the gather must classify every
// speculation read, prune a nonempty sorted tail, and serve sub-threshold
// indices from the hot tier.
func TestGatherStatsOnDBGGraph(t *testing.T) {
	g := randomGraph(t, 2000, 24000, 9)
	h, _ := reorder.DBG(g)
	res, st, err := ParallelBitwiseOpts(context.Background(), h, MaxColorsDefault, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(h, res.Colors); err != nil {
		t.Fatal(err)
	}
	if st.HotThreshold != cache.HotThreshold(h.NumVertices()) {
		t.Fatalf("HotThreshold = %d, want %d", st.HotThreshold, cache.HotThreshold(h.NumVertices()))
	}
	gst := st.Gather
	if gst.Reads() == 0 {
		t.Fatal("gather classified no reads")
	}
	if gst.PrunedTail == 0 {
		t.Fatal("PUV pruned nothing on a sorted DBG graph")
	}
	// 2000 vertices fit under the paper's 512K hot capacity: every read
	// must be a hot-tier hit and the ratios must be consistent.
	if gst.HotRatio() != 1.0 || gst.HotReads != gst.Reads() {
		t.Fatalf("expected all-hot reads on a cache-resident graph: %+v", gst)
	}
	// Speculation visits the colored prefix, PUV skips the tail: together
	// they cannot exceed the total directed edge count times the sweeps.
	if gst.Reads()+gst.PrunedTail < h.NumEdges() {
		t.Fatalf("round 1 should touch every directed edge: reads=%d pruned=%d edges=%d",
			gst.Reads(), gst.PrunedTail, h.NumEdges())
	}
}

// Overriding the hot threshold must split reads between tiers and engage
// the last-block merge register on the cold tier.
func TestGatherHotThresholdOverride(t *testing.T) {
	g := randomGraph(t, 3000, 40000, 33)
	h, _ := reorder.DBG(g)
	_, st, err := ParallelBitwiseOpts(context.Background(), h, MaxColorsDefault, Options{Workers: 2, HotVertices: 128})
	if err != nil {
		t.Fatal(err)
	}
	gst := st.Gather
	if st.HotThreshold != 128 {
		t.Fatalf("HotThreshold = %d, want 128", st.HotThreshold)
	}
	if gst.HotReads == 0 {
		t.Fatal("no hot-tier reads with v_t=128 on a DBG graph")
	}
	if gst.MergedReads+gst.ColdBlockLoads == 0 {
		t.Fatal("no cold-tier reads with v_t=128 on a 3000-vertex graph")
	}
	if gst.MergedReads == 0 {
		t.Fatal("sorted adjacency produced no merged block reads")
	}
}

// Disabling the gather must zero the counters and leave the engines on
// the legacy codec path.
func TestGatherDisabledZeroStats(t *testing.T) {
	g := randomGraph(t, 500, 4000, 3)
	res, st, err := ParallelBitwiseOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 4, DisableGather: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if st.Gather.Reads() != 0 || st.Gather.PrunedTail != 0 || st.HotThreshold != 0 {
		t.Fatalf("gather disabled but stats nonzero: %+v vt=%d", st.Gather, st.HotThreshold)
	}
}

// The quality bar must hold with the gather + PUV path at real
// parallelism on every Table 3 stand-in (the default path is exercised by
// TestParallelBitwiseQualityOnTable3; this pins the Speculative engine).
// ForceGather pins the gather on: the road-network stand-ins sit below
// the adaptive average-degree threshold and would otherwise run (and
// assert on) the plain path.
func TestSpeculativeGatherQualityOnTable3(t *testing.T) {
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
			res, st, err := SpeculativeOpts(context.Background(), h, MaxColorsDefault, Options{Workers: 4, ForceGather: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(h, res.Colors); err != nil {
				t.Fatal(err)
			}
			if limit := speculativeColorLimit(seq.NumColors); res.NumColors > limit {
				t.Fatalf("speculative+gather used %d colors, sequential %d (limit %d)",
					res.NumColors, seq.NumColors, limit)
			}
			if st.Gather.PrunedTail == 0 {
				t.Fatal("round-1 PUV pruned nothing on a DBG-sorted graph")
			}
		})
	}
}

// Race stress over the gather + PUV path for the Speculative engine
// (ParallelBitwise is covered by TestParallelBitwiseRaceStress).
func TestSpeculativeGatherRaceStress(t *testing.T) {
	g := randomGraph(t, 500, 12000, 77)
	for i := 0; i < 5; i++ {
		res, _, err := SpeculativeOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(g, res.Colors); err != nil {
			t.Fatal(err)
		}
	}
}

// referenceDCTGather is the DCT kernel's per-read counting loop as it ran
// before the counts moved to once per colored vertex: every lower
// neighbor read goes through gather.load, and the pruned tail is added at
// the PUV break. Which neighbors a pass reads does not depend on their
// colors, so one sequential walk gives a one-worker run's counts.
func referenceDCTGather(g *graph.CSR, hotVertices int) metrics.GatherStats {
	n := g.NumVertices()
	ss := obs.NewShardSet(1)
	sh := ss.Shard(0)
	var ga gather
	ga.init(make([]uint32, n), hotVertices, sh)
	sorted := g.EdgesSorted()
	for v := 0; v < n; v++ {
		adj := g.Neighbors(graph.VertexID(v))
		for i, u := range adj {
			if int(u) > v {
				if !sorted {
					continue
				}
				sh.Add(obs.CtrPrunedTail, int64(len(adj)-i))
				break
			}
			ga.load(u)
		}
	}
	return metrics.GatherStats{
		HotReads:       ss.Total(obs.CtrHotReads),
		MergedReads:    ss.Total(obs.CtrMergedReads),
		ColdBlockLoads: ss.Total(obs.CtrColdBlockLoads),
		PrunedTail:     ss.Total(obs.CtrPrunedTail),
	}
}

// TestDCTGatherCountsMatchPerReadCounting: DCT's once-per-vertex gather
// counts equal the per-read counting loop's at one worker, through both
// the dct engine and the sharded engine's one-shard path, on every
// Table 3 stand-in, with every read hot (the default v_t) and with v_t
// below n so merged and cold reads occur. At two workers the hot and
// pruned counts, and the cold-tier total, are unchanged; only the split
// between merged and cold may move, since each worker keeps its own
// last-block register. An unsorted copy of each graph exercises the
// no-break path.
func TestDCTGatherCountsMatchPerReadCounting(t *testing.T) {
	ctx := context.Background()
	for _, d := range gen.SmallRegistry() {
		t.Run(d.Abbrev, func(t *testing.T) {
			g, err := d.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			h, _ := reorder.DBG(g)
			unsorted := reverseLists(h)
			n := h.NumVertices()
			for _, c := range []struct {
				name string
				g    *graph.CSR
				hot  int
			}{{"default", h, 0}, {"vt=n/4", h, n / 4}, {"unsorted vt=n/4", unsorted, n / 4}} {
				want := referenceDCTGather(c.g, c.hot)
				if c.hot > 0 && (want.MergedReads == 0 || want.ColdBlockLoads == 0) {
					t.Fatalf("%s: reference saw no cold-tier reads: %+v", c.name, want)
				}
				run := func(engine string, workers int) metrics.GatherStats {
					info, _ := Lookup(engine)
					_, st, err := info.Run(ctx, c.g, Options{Workers: workers, Shards: 1, ForceGather: true, HotVertices: c.hot})
					if err != nil {
						t.Fatal(err)
					}
					return st.Gather
				}
				for _, engine := range []string{"dct", "sharded"} {
					if got := run(engine, 1); got != want {
						t.Fatalf("%s %s w=1: gather %+v, per-read counting %+v", c.name, engine, got, want)
					}
				}
				got := run("dct", 2)
				if got.HotReads != want.HotReads || got.PrunedTail != want.PrunedTail ||
					got.MergedReads+got.ColdBlockLoads != want.MergedReads+want.ColdBlockLoads {
					t.Fatalf("%s w=2: gather %+v, per-read counting at w=1 %+v", c.name, got, want)
				}
			}
		})
	}
}

// reverseLists returns a CSR literal holding g's lists reversed, so its
// sortedness starts unknown and a scan finds it unsorted.
func reverseLists(g *graph.CSR) *graph.CSR {
	c := g.Clone()
	for v := 0; v < c.NumVertices(); v++ {
		slices.Reverse(c.Neighbors(graph.VertexID(v)))
	}
	return c
}
