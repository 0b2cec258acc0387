package coloring

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bitcolor/internal/dispatch"
	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/obs"
	"bitcolor/internal/reorder"
)

// foldGraph is one input of the fold tests: a graph and the hot-tier
// threshold v_t its runs use (0: automatic).
type foldGraph struct {
	name string
	g    *graph.CSR
	hot  int
}

// foldGraphs returns the small GD and RC stand-ins, raw and DBG'd: a
// power-law and a road-grid shape, with and without the descending-degree
// order the parallel engines special-case. The automatic v_t covers
// every vertex of a graph this small, so the DBG'd runs set v_t = 256
// to reach the merged and cold gather counts too.
func foldGraphs(t *testing.T) []foldGraph {
	t.Helper()
	var out []foldGraph
	for _, d := range gen.SmallRegistry() {
		if d.Abbrev != "GD" && d.Abbrev != "RC" {
			continue
		}
		g, err := d.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		dbg, _ := reorder.DBG(g)
		out = append(out, foldGraph{d.Abbrev, g, 0}, foldGraph{d.Abbrev + "-dbg-vt256", dbg, 256})
	}
	if len(out) != 4 {
		t.Fatalf("small GD/RC stand-ins missing: got %d graphs", len(out))
	}
	return out
}

// plainGather prints GatherStats field by field, not through its
// summary String method.
type plainGather metrics.GatherStats

// statsLine renders every nonzero RunStats field as name=value. The
// per-shard wall times are replaced by their count, the one part of
// them a run pins.
func statsLine(st metrics.RunStats) string {
	durs := len(st.ShardDurations)
	st.ShardDurations = nil
	v := reflect.ValueOf(st)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() {
			continue
		}
		val := f.Interface()
		if g, ok := val.(metrics.GatherStats); ok {
			val = plainGather(g)
		}
		fmt.Fprintf(&b, "%s=%+v ", v.Type().Field(i).Name, val)
	}
	if durs > 0 {
		fmt.Fprintf(&b, "ShardDurations=%d", durs)
	}
	return strings.TrimSpace(b.String())
}

// roundSpans renders the observer's "round" spans in end order, each as
// its attributes sorted by name, so a reordered attribute list compares
// equal while any changed name or value does not.
func roundSpans(o *obs.Observer) string {
	var rounds []string
	for _, sp := range o.Spans() {
		if sp.Name != "round" {
			continue
		}
		attrs := make([]string, 0, len(sp.Attrs))
		for _, a := range sp.Attrs {
			attrs = append(attrs, fmt.Sprintf("%s=%v", a.Key, a.Value))
		}
		slices.Sort(attrs)
		rounds = append(rounds, strings.Join(attrs, ","))
	}
	return strings.Join(rounds, " | ")
}

// foldRun is one registry run of the golden sweep.
type foldRun struct {
	key  string
	run  EngineFunc
	g    *graph.CSR
	opts Options
	// scratch names the pool slot a Scratch-backed run acquires.
	scratch string
}

// foldRuns enumerates every registry engine at one worker on each fold
// graph: the sharded engine at 0, 1 and 3 shards in core and streamed at
// residency 1, every other engine at the same three shard settings (which
// it must ignore, so they share one golden key).
func foldRuns(t *testing.T) []foldRun {
	t.Helper()
	var runs []foldRun
	for _, fg := range foldGraphs(t) {
		for _, info := range Engines() {
			for _, shards := range []int{0, 1, 3} {
				key := fg.name + "/" + info.Name
				if info.Name == "sharded" {
					key += fmt.Sprintf("/shards=%d", shards)
				}
				runs = append(runs, foldRun{key, info.Run, fg.g, Options{Workers: 1, Shards: shards, HotVertices: fg.hot}, info.Name})
			}
		}
		for _, shards := range []int{1, 3} {
			sf := openV3ForTest(t, fg.g, shards, PartitionRanges)
			runs = append(runs, foldRun{
				key:     fmt.Sprintf("%s/stream/shards=%d", fg.name, shards),
				run:     lookupRun(t, "sharded"),
				opts:    Options{Workers: 1, OutOfCore: true, MaxResidentShards: 1, ShardFile: sf, HotVertices: fg.hot},
				scratch: "sharded",
			})
		}
	}
	return runs
}

// TestRegistryFoldGolden pins every registry engine's RunStats and round
// spans at one worker to the values recorded before the engine bodies
// shared one frame: without a Scratch, twice on one pooled Scratch (the
// second run catches state a lane carries over), and under a live
// observer, whose run record arms the counter shards' live mirrors.
func TestRegistryFoldGolden(t *testing.T) {
	ctx := context.Background()
	for _, r := range foldRuns(t) {
		want := goldenFoldStats[r.key]
		check := func(how string, opts Options, c context.Context) {
			t.Helper()
			_, st, err := r.run(c, r.g, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", r.key, how, err)
			}
			if got := statsLine(st); got != want {
				t.Errorf("%s %s:\n got %s\nwant %s", r.key, how, got, want)
			}
		}
		check("without Scratch", r.opts, ctx)
		n, _ := runSize(r.g, r.opts)
		sc := AcquireScratch(r.scratch, 1, n)
		opts := r.opts
		opts.Scratch = sc
		check("on a Scratch", opts, ctx)
		check("on a reused Scratch", opts, ctx)
		sc.Release()

		o := obs.New()
		check("under an observer", r.opts, obs.NewContext(ctx, o))
		if got, want := roundSpans(o), goldenRoundSpans[r.key]; got != want {
			t.Errorf("%s round spans:\n got %s\nwant %s", r.key, got, want)
		}
	}
}

// TestRegistryFoldScratchReuse runs one sharded Scratch through the
// stream, the multi-shard engine and the one-shard path in turn: every
// run at one worker must report what a run without a Scratch reports.
// Before the one-shard run, lane 0's pooled ring is given a stale peak:
// that run provisions no rings, so it must not report one.
func TestRegistryFoldScratchReuse(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(t, 3000, 30000, 21)
	sf := openV3ForTest(t, g, 3, PartitionRanges)
	run := lookupRun(t, "sharded")
	sc := AcquireScratch("sharded", 1, g.NumVertices())
	defer sc.Release()
	steps := []struct {
		name  string
		g     *graph.CSR
		opts  Options
		stale bool
	}{
		{"stream r=2", nil, Options{Workers: 1, OutOfCore: true, MaxResidentShards: 2, ShardFile: sf}, false},
		{"stream r=1", nil, Options{Workers: 1, OutOfCore: true, MaxResidentShards: 1, ShardFile: sf}, false},
		{"3 shards", g, Options{Workers: 1, Shards: 3}, false},
		{"1 shard", g, Options{Workers: 1, Shards: 1}, true},
		{"stream r=1 again", nil, Options{Workers: 1, OutOfCore: true, MaxResidentShards: 1, ShardFile: sf}, false},
	}
	for _, s := range steps {
		_, ref, err := run(ctx, s.g, s.opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.stale {
			r := sc.ws[0].ring
			if r == nil {
				r = dispatch.NewForwardRing(ForwardRingCap)
				sc.ws[0].ring = r
			}
			r.Push(dispatch.Parked{Vertex: 9, Awaited: 1})
			r.Push(dispatch.Parked{Vertex: 8, Awaited: 2})
		}
		opts := s.opts
		opts.Scratch = sc
		_, st, err := run(ctx, s.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.opts.MaxResidentShards == 2 {
			// Two mapped shards race, so the defer counts vary run to
			// run; the lanes must still account for every vertex.
			if st.TotalVertices() != int64(g.NumVertices()) {
				t.Fatalf("%s: colored %d of %d", s.name, st.TotalVertices(), g.NumVertices())
			}
			continue
		}
		if got, want := statsLine(st), statsLine(ref); got != want {
			t.Errorf("%s on a reused Scratch:\n got %s\nwant %s", s.name, got, want)
		}
	}
}

// TestRegistryFoldLaneTotals holds the fold to the counter shards: for
// every engine on the frame at two workers on a Scratch, each counter
// summed over the lanes equals its RunStats field, and the per-lane
// vertex split is the lanes' own counts. Under the observer the
// block-sweep engines' conflict counts must also be live: /debug/runs
// reads the shards' mirrors, not RunStats.
func TestRegistryFoldLaneTotals(t *testing.T) {
	g := randomGraph(t, 3000, 60000, 23)
	sf := openV3ForTest(t, g, 3, PartitionRanges)
	cases := []struct {
		engine string
		g      *graph.CSR
		opts   Options
	}{
		{"dct", g, Options{}},
		{"sharded", g, Options{Shards: 3}},
		{"sharded", nil, Options{OutOfCore: true, MaxResidentShards: 2, ShardFile: sf}},
		{"speculative", g, Options{}},
		{"parallelbitwise", g, Options{}},
	}
	conflicts := 0
	for _, c := range cases {
		for rep := 0; rep < 3; rep++ {
			sc := AcquireScratch(c.engine, 2, g.NumVertices())
			opts := c.opts
			opts.Workers, opts.Scratch = 2, sc
			o := obs.New()
			_, st, err := lookupRun(t, c.engine)(obs.NewContext(context.Background(), o), c.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			ss := sc.shards
			name := fmt.Sprintf("%s shards=%d", c.engine, c.opts.Shards)
			if c.opts.OutOfCore {
				name += " streamed"
			}
			totals := []struct {
				ctr   int
				field string
				got   int64
			}{
				{obs.CtrVertices, "TotalVertices", st.TotalVertices()},
				{obs.CtrBlocks, "TotalBlocks", st.TotalBlocks()},
				{obs.CtrHotReads, "Gather.HotReads", st.Gather.HotReads},
				{obs.CtrMergedReads, "Gather.MergedReads", st.Gather.MergedReads},
				{obs.CtrColdBlockLoads, "Gather.ColdBlockLoads", st.Gather.ColdBlockLoads},
				{obs.CtrPrunedTail, "Gather.PrunedTail", st.Gather.PrunedTail},
				{obs.CtrConflictsFound, "ConflictsFound", st.ConflictsFound},
				{obs.CtrConflictsRepaired, "ConflictsRepaired", st.ConflictsRepaired},
				{obs.CtrDeferred, "Deferred", st.Deferred},
				{obs.CtrDeferRetries, "DeferRetries", st.DeferRetries},
				{obs.CtrSpinWaits, "SpinWaits", st.SpinWaits},
			}
			for _, tot := range totals {
				if want := ss.Total(tot.ctr); tot.got != want {
					t.Errorf("%s: RunStats.%s = %d, lanes total %d", name, tot.field, tot.got, want)
				}
			}
			if len(st.VerticesPerWorker) != ss.Workers() {
				t.Fatalf("%s: %d per-worker counts for %d lanes", name, len(st.VerticesPerWorker), ss.Workers())
			}
			for i, v := range st.VerticesPerWorker {
				if want := ss.Shard(i).Get(obs.CtrVertices); v != want {
					t.Errorf("%s: lane %d: VerticesPerWorker %d, lane counter %d", name, i, v, want)
				}
			}
			if c.engine == "speculative" || c.engine == "parallelbitwise" {
				if live := ss.LiveTotal(obs.CtrConflictsFound); live != st.ConflictsFound {
					t.Errorf("%s: live conflicts_found %d after the run, RunStats %d", name, live, st.ConflictsFound)
				}
				if st.ConflictsFound > 0 {
					conflicts++
				}
			}
			sc.Release()
		}
	}
	t.Logf("%d speculative runs found conflicts", conflicts)
}

// goldenFoldStats and goldenRoundSpans were recorded from the engines as
// they stood before the shared frame, keyed graph/engine[/shards=K]. A
// key that is absent stands for empty RunStats or no round spans (the
// sequential engines). One value has moved since: the gather of
// GD/sharded/shards=3, re-recorded when both in-core sharded phases
// moved onto DCT's kernel, which tallies once per colored vertex. It now
// equals the one-shard rows' gather.
var goldenFoldStats = map[string]string{
	"GD-dbg-vt256/dct":              "Workers=1 Rounds=1 VerticesPerWorker=[2000] Gather={HotReads:11082 MergedReads:1144 ColdBlockLoads:5729 PrunedTail:17955 AutoDisabled:false} HotThreshold=256",
	"GD-dbg-vt256/jonesplassmann":   "Workers=1 Rounds=61",
	"GD-dbg-vt256/lubymis":          "Rounds=50",
	"GD-dbg-vt256/parallelbitwise":  "Workers=1 Rounds=1 VerticesPerWorker=[2000] BlocksPerWorker=[32] Gather={HotReads:11082 MergedReads:1144 ColdBlockLoads:5729 PrunedTail:17955 AutoDisabled:false} HotThreshold=256",
	"GD-dbg-vt256/sharded/shards=0": "Workers=1 Rounds=1 VerticesPerWorker=[2000] Gather={HotReads:11082 MergedReads:1144 ColdBlockLoads:5729 PrunedTail:17955 AutoDisabled:false} HotThreshold=256 Shards=1 ShardVertices=[2000] ShardDurations=1",
	"GD-dbg-vt256/sharded/shards=1": "Workers=1 Rounds=1 VerticesPerWorker=[2000] Gather={HotReads:11082 MergedReads:1144 ColdBlockLoads:5729 PrunedTail:17955 AutoDisabled:false} HotThreshold=256 Shards=1 ShardVertices=[2000] ShardDurations=1",
	"GD-dbg-vt256/sharded/shards=3": "Workers=1 Rounds=1 VerticesPerWorker=[2000 0 0] Gather={HotReads:11082 MergedReads:1144 ColdBlockLoads:5729 PrunedTail:17955 AutoDisabled:false} HotThreshold=256 Shards=3 BoundaryVertices=2000 CutEdges=11018 CrossShardDefers=1333 FrontierVertices=1333 ShardVertices=[667 0 0] ShardDurations=3",
	"GD-dbg-vt256/speculative":      "Workers=1 Rounds=1 VerticesPerWorker=[2000] BlocksPerWorker=[32] Gather={HotReads:11082 MergedReads:1144 ColdBlockLoads:5729 PrunedTail:17955 AutoDisabled:false} HotThreshold=256",
	"GD-dbg-vt256/stream/shards=1":  "Workers=1 Rounds=1 VerticesPerWorker=[2000] Shards=1 ShardVertices=[2000] ResidentShards=1 PeakMappedBytes=167744 ShardDurations=1",
	"GD-dbg-vt256/stream/shards=3":  "Workers=1 Rounds=1 VerticesPerWorker=[667 667 666] Shards=3 BoundaryVertices=2000 CutEdges=11018 ShardVertices=[667 667 666] ResidentShards=1 PeakMappedBytes=92972 ShardDurations=3",
	"GD/dct":                        "Workers=1 Rounds=1 VerticesPerWorker=[2000] Gather={HotReads:17955 MergedReads:0 ColdBlockLoads:0 PrunedTail:17955 AutoDisabled:false} HotThreshold=2000",
	"GD/jonesplassmann":             "Workers=1 Rounds=53",
	"GD/lubymis":                    "Rounds=49",
	"GD/parallelbitwise":            "Workers=1 Rounds=1 VerticesPerWorker=[2000] BlocksPerWorker=[32] Gather={HotReads:17955 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:false} HotThreshold=2000",
	"GD/sharded/shards=0":           "Workers=1 Rounds=1 VerticesPerWorker=[2000] Gather={HotReads:17955 MergedReads:0 ColdBlockLoads:0 PrunedTail:17955 AutoDisabled:false} HotThreshold=2000 Shards=1 ShardVertices=[2000] ShardDurations=1",
	"GD/sharded/shards=1":           "Workers=1 Rounds=1 VerticesPerWorker=[2000] Gather={HotReads:17955 MergedReads:0 ColdBlockLoads:0 PrunedTail:17955 AutoDisabled:false} HotThreshold=2000 Shards=1 ShardVertices=[2000] ShardDurations=1",
	"GD/sharded/shards=3":           "Workers=1 Rounds=1 VerticesPerWorker=[1997 3 0] Gather={HotReads:17955 MergedReads:0 ColdBlockLoads:0 PrunedTail:17955 AutoDisabled:false} HotThreshold=2000 Shards=3 BoundaryVertices=2000 CutEdges=11934 CrossShardDefers=1324 FrontierVertices=1330 ShardVertices=[667 3 0] ShardDurations=3",
	"GD/speculative":                "Workers=1 Rounds=1 VerticesPerWorker=[2000] BlocksPerWorker=[32] Gather={HotReads:17955 MergedReads:0 ColdBlockLoads:0 PrunedTail:17955 AutoDisabled:false} HotThreshold=2000",
	"GD/stream/shards=1":            "Workers=1 Rounds=1 VerticesPerWorker=[2000] Shards=1 ShardVertices=[2000] ResidentShards=1 PeakMappedBytes=167744 ShardDurations=1",
	"GD/stream/shards=3":            "Workers=1 Rounds=1 VerticesPerWorker=[667 667 666] Shards=3 BoundaryVertices=2000 CutEdges=11934 ShardVertices=[667 667 666] ResidentShards=1 PeakMappedBytes=56552 ShardDurations=3",
	"RC-dbg-vt256/dct":              "Workers=1 Rounds=1 VerticesPerWorker=[4096] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true}",
	"RC-dbg-vt256/jonesplassmann":   "Workers=1 Rounds=10",
	"RC-dbg-vt256/lubymis":          "Rounds=11",
	"RC-dbg-vt256/parallelbitwise":  "Workers=1 Rounds=1 VerticesPerWorker=[4096] BlocksPerWorker=[64] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true}",
	"RC-dbg-vt256/sharded/shards=0": "Workers=1 Rounds=1 VerticesPerWorker=[4096] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true} Shards=1 ShardVertices=[4096] ShardDurations=1",
	"RC-dbg-vt256/sharded/shards=1": "Workers=1 Rounds=1 VerticesPerWorker=[4096] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true} Shards=1 ShardVertices=[4096] ShardDurations=1",
	"RC-dbg-vt256/sharded/shards=3": "Workers=1 Rounds=1 VerticesPerWorker=[3910 146 40] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true} Shards=3 BoundaryVertices=3008 CutEdges=2795 CrossShardDefers=1499 FrontierVertices=2544 ShardVertices=[1366 146 40] ShardDurations=3",
	"RC-dbg-vt256/speculative":      "Workers=1 Rounds=1 VerticesPerWorker=[4096] BlocksPerWorker=[64] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true}",
	"RC-dbg-vt256/stream/shards=1":  "Workers=1 Rounds=1 VerticesPerWorker=[4096] Shards=1 ShardVertices=[4096] ResidentShards=1 PeakMappedBytes=110272 ShardDurations=1",
	"RC-dbg-vt256/stream/shards=3":  "Workers=1 Rounds=1 VerticesPerWorker=[1366 1365 1365] Shards=3 BoundaryVertices=3008 CutEdges=2795 ShardVertices=[1366 1365 1365] ResidentShards=1 PeakMappedBytes=39384 ShardDurations=3",
	"RC/dct":                        "Workers=1 Rounds=1 VerticesPerWorker=[4096] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true}",
	"RC/jonesplassmann":             "Workers=1 Rounds=11",
	"RC/lubymis":                    "Rounds=11",
	"RC/parallelbitwise":            "Workers=1 Rounds=1 VerticesPerWorker=[4096] BlocksPerWorker=[64] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true}",
	"RC/sharded/shards=0":           "Workers=1 Rounds=1 VerticesPerWorker=[4096] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true} Shards=1 ShardVertices=[4096] ShardDurations=1",
	"RC/sharded/shards=1":           "Workers=1 Rounds=1 VerticesPerWorker=[4096] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true} Shards=1 ShardVertices=[4096] ShardDurations=1",
	"RC/sharded/shards=3":           "Workers=1 Rounds=1 VerticesPerWorker=[4042 12 42] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true} Shards=3 BoundaryVertices=237 CutEdges=123 CrossShardDefers=118 FrontierVertices=2676 ShardVertices=[1366 12 42] ShardDurations=3",
	"RC/speculative":                "Workers=1 Rounds=1 VerticesPerWorker=[4096] BlocksPerWorker=[64] Gather={HotReads:0 MergedReads:0 ColdBlockLoads:0 PrunedTail:0 AutoDisabled:true}",
	"RC/stream/shards=1":            "Workers=1 Rounds=1 VerticesPerWorker=[4096] Shards=1 ShardVertices=[4096] ResidentShards=1 PeakMappedBytes=110272 ShardDurations=1",
	"RC/stream/shards=3":            "Workers=1 Rounds=1 VerticesPerWorker=[1366 1365 1365] Shards=3 BoundaryVertices=237 CutEdges=123 ShardVertices=[1366 1365 1365] ResidentShards=1 PeakMappedBytes=36948 ShardDurations=3",
}

var goldenRoundSpans = map[string]string{
	"GD-dbg-vt256/dct":              "conflicts_found=0,deferred=0,pending=2000,recolored=0,ring_peak=0,round=1",
	"GD-dbg-vt256/parallelbitwise":  "conflicts_found=0,pending=2000,recolored=0,round=1",
	"GD-dbg-vt256/sharded/shards=0": "conflicts_found=0,deferred=0,pending=2000,recolored=0,ring_peak=0,round=1",
	"GD-dbg-vt256/sharded/shards=1": "conflicts_found=0,deferred=0,pending=2000,recolored=0,ring_peak=0,round=1",
	"GD-dbg-vt256/sharded/shards=3": "conflicts_found=0,cross_shard_defers=1333,cut_edges=11018,deferred=0,frontier=1333,pending=2000,recolored=0,ring_peak=0,round=1,shards=3",
	"GD-dbg-vt256/speculative":      "blocks_per_worker=[32],conflicts_found=0,pending=2000,recolored=0,round=1,steals=0",
	"GD-dbg-vt256/stream/shards=1":  "conflicts_found=0,cut_edges=0,deferred=0,pending=2000,recolored=0,resident_shards=1,ring_peak=0,round=1,shards=1",
	"GD-dbg-vt256/stream/shards=3":  "conflicts_found=0,cut_edges=11018,deferred=0,pending=2000,recolored=0,resident_shards=1,ring_peak=0,round=1,shards=3",
	"GD/dct":                        "conflicts_found=0,deferred=0,pending=2000,recolored=0,ring_peak=0,round=1",
	"GD/parallelbitwise":            "conflicts_found=0,pending=2000,recolored=0,round=1",
	"GD/sharded/shards=0":           "conflicts_found=0,deferred=0,pending=2000,recolored=0,ring_peak=0,round=1",
	"GD/sharded/shards=1":           "conflicts_found=0,deferred=0,pending=2000,recolored=0,ring_peak=0,round=1",
	"GD/sharded/shards=3":           "conflicts_found=0,cross_shard_defers=1324,cut_edges=11934,deferred=0,frontier=1330,pending=2000,recolored=0,ring_peak=0,round=1,shards=3",
	"GD/speculative":                "blocks_per_worker=[32],conflicts_found=0,pending=2000,recolored=0,round=1,steals=0",
	"GD/stream/shards=1":            "conflicts_found=0,cut_edges=0,deferred=0,pending=2000,recolored=0,resident_shards=1,ring_peak=0,round=1,shards=1",
	"GD/stream/shards=3":            "conflicts_found=0,cut_edges=11934,deferred=0,pending=2000,recolored=0,resident_shards=1,ring_peak=0,round=1,shards=3",
	"RC-dbg-vt256/dct":              "conflicts_found=0,deferred=0,pending=4096,recolored=0,ring_peak=0,round=1",
	"RC-dbg-vt256/parallelbitwise":  "conflicts_found=0,pending=4096,recolored=0,round=1",
	"RC-dbg-vt256/sharded/shards=0": "conflicts_found=0,deferred=0,pending=4096,recolored=0,ring_peak=0,round=1",
	"RC-dbg-vt256/sharded/shards=1": "conflicts_found=0,deferred=0,pending=4096,recolored=0,ring_peak=0,round=1",
	"RC-dbg-vt256/sharded/shards=3": "conflicts_found=0,cross_shard_defers=1499,cut_edges=2795,deferred=0,frontier=2544,pending=4096,recolored=0,ring_peak=0,round=1,shards=3",
	"RC-dbg-vt256/speculative":      "blocks_per_worker=[64],conflicts_found=0,pending=4096,recolored=0,round=1,steals=0",
	"RC-dbg-vt256/stream/shards=1":  "conflicts_found=0,cut_edges=0,deferred=0,pending=4096,recolored=0,resident_shards=1,ring_peak=0,round=1,shards=1",
	"RC-dbg-vt256/stream/shards=3":  "conflicts_found=0,cut_edges=2795,deferred=0,pending=4096,recolored=0,resident_shards=1,ring_peak=0,round=1,shards=3",
	"RC/dct":                        "conflicts_found=0,deferred=0,pending=4096,recolored=0,ring_peak=0,round=1",
	"RC/parallelbitwise":            "conflicts_found=0,pending=4096,recolored=0,round=1",
	"RC/sharded/shards=0":           "conflicts_found=0,deferred=0,pending=4096,recolored=0,ring_peak=0,round=1",
	"RC/sharded/shards=1":           "conflicts_found=0,deferred=0,pending=4096,recolored=0,ring_peak=0,round=1",
	"RC/sharded/shards=3":           "conflicts_found=0,cross_shard_defers=118,cut_edges=123,deferred=0,frontier=2676,pending=4096,recolored=0,ring_peak=0,round=1,shards=3",
	"RC/speculative":                "blocks_per_worker=[64],conflicts_found=0,pending=4096,recolored=0,round=1,steals=0",
	"RC/stream/shards=1":            "conflicts_found=0,cut_edges=0,deferred=0,pending=4096,recolored=0,resident_shards=1,ring_peak=0,round=1,shards=1",
	"RC/stream/shards=3":            "conflicts_found=0,cut_edges=123,deferred=0,pending=4096,recolored=0,resident_shards=1,ring_peak=0,round=1,shards=3",
}
