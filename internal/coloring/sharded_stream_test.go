package coloring

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
	"bitcolor/internal/partition"
	"bitcolor/internal/reorder"
)

// writeV3ForTest persists g as a BCSR v3 file partitioned the way
// ShardedOpts would partition it, and returns the path.
func writeV3ForTest(t *testing.T, g *graph.CSR, shards int, strategy string) string {
	t.Helper()
	a, err := BuildPartition(g, shards, strategy)
	if err != nil {
		t.Fatal(err)
	}
	code, err := partition.StrategyCode(strategy)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bcsr3")
	if err := graph.SaveBinaryV3File(path, g, a.Parts, a.K, code); err != nil {
		t.Fatal(err)
	}
	return path
}

// openV3ForTest opens a freshly written v3 file and registers cleanup.
func openV3ForTest(t *testing.T, g *graph.CSR, shards int, strategy string) *graph.ShardedFile {
	t.Helper()
	sf, err := graph.OpenShardedFile(writeV3ForTest(t, g, shards, strategy))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() })
	return sf
}

// TestStreamedMatchesShardedEverySweepPoint pins the ordered stream
// against the in-core sharded engine at every (shards × workers ×
// residency × strategy) grid point, on random, path and DBG-reordered
// graphs. On a range file the colors are byte-identical to in-core and
// to sequential greedy, the persisted partition totals equal the
// in-core run's, and the stream has no frontier: FrontierVertices and
// CrossShardDefers are exactly 0. A file whose partition is not
// index-ordered (labelprop at more than one shard) is refused with
// ErrUnorderedShards before anything is mapped.
func TestStreamedMatchesShardedEverySweepPoint(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"random": randomGraph(t, 2000, 24000, 9),
		"path":   pathGraph(t, 5000),
	}
	dbg, _ := reorder.DBG(randomGraph(t, 1500, 18000, 4))
	graphs["dbg"] = dbg
	refused := 0
	for name, g := range graphs {
		seq, err := Greedy(context.Background(), g, MaxColorsDefault)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shardedShardSweep {
			for _, strat := range shardedStrategies {
				sf := openV3ForTest(t, g, s, strat)
				if !slices.IsSorted(sf.Parts()) {
					if strat != PartitionLabelProp {
						t.Fatalf("%s s=%d: %s file is not index-ordered", name, s, strat)
					}
					for _, r := range []int{1, 2} {
						res, _, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
							Options{Workers: 2, OutOfCore: true, MaxResidentShards: r, ShardFile: sf})
						if !errors.Is(err, ErrUnorderedShards) || res != nil {
							t.Fatalf("%s s=%d r=%d %s: want ErrUnorderedShards, got %v", name, s, r, strat, err)
						}
					}
					if got := sf.Stats(); got.Maps != 0 {
						t.Fatalf("%s s=%d %s: refused run mapped %d sections", name, s, strat, got.Maps)
					}
					refused++
					continue
				}
				for _, w := range shardedWorkerSweep {
					ref, ist, err := ShardedOpts(context.Background(), g, MaxColorsDefault,
						Options{Workers: w, Shards: s, PartitionStrategy: strat})
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range []int{1, 2} {
						res, st, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
							Options{Workers: w, OutOfCore: true, MaxResidentShards: r, ShardFile: sf})
						if err != nil {
							t.Fatalf("%s s=%d w=%d r=%d %s: %v", name, s, w, r, strat, err)
						}
						for v := range ref.Colors {
							if res.Colors[v] != ref.Colors[v] || res.Colors[v] != seq.Colors[v] {
								t.Fatalf("%s s=%d w=%d r=%d %s: vertex %d: streamed %d, in-core %d, greedy %d",
									name, s, w, r, strat, v, res.Colors[v], ref.Colors[v], seq.Colors[v])
							}
						}
						if err := VerifySharded(sf, res.Colors); err != nil {
							t.Fatalf("%s s=%d w=%d r=%d %s: %v", name, s, w, r, strat, err)
						}
						if st.Rounds != 1 || st.Shards != s || st.Workers != ist.Workers {
							t.Fatalf("%s s=%d w=%d r=%d %s: rounds=%d shards=%d workers=%d",
								name, s, w, r, strat, st.Rounds, st.Shards, st.Workers)
						}
						if st.CutEdges != ist.CutEdges || st.BoundaryVertices != ist.BoundaryVertices {
							t.Fatalf("%s s=%d w=%d r=%d %s: partition totals diverge: streamed %d/%d, in-core %d/%d",
								name, s, w, r, strat, st.CutEdges, st.BoundaryVertices, ist.CutEdges, ist.BoundaryVertices)
						}
						if st.FrontierVertices != 0 || st.CrossShardDefers != 0 {
							t.Fatalf("%s s=%d w=%d r=%d %s: ordered stream has frontier %d, cross-shard defers %d",
								name, s, w, r, strat, st.FrontierVertices, st.CrossShardDefers)
						}
						if st.TotalVertices() != int64(g.NumVertices()) {
							t.Fatalf("%s s=%d w=%d r=%d %s: colored %d of %d",
								name, s, w, r, strat, st.TotalVertices(), g.NumVertices())
						}
						if want := min(r, s); st.ResidentShards != want || st.PeakMappedBytes <= 0 {
							t.Fatalf("%s s=%d w=%d r=%d %s: resident=%d peak=%d",
								name, s, w, r, strat, st.ResidentShards, st.PeakMappedBytes)
						}
					}
				}
				if got := sf.Stats(); got.Maps != got.Unmaps || got.ResidentBytes != 0 {
					t.Fatalf("%s s=%d %s: leaked mappings: %+v", name, s, strat, got)
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no labelprop file was refused: the refusal arm never ran")
	}
}

// TestStreamedTable3StandIns runs the out-of-core executor across every
// Table 3 stand-in at real shard and residency parallelism: a range
// file always streams to the sequential greedy coloring of the DBG
// order, and a labelprop file is refused before anything is mapped.
func TestStreamedTable3StandIns(t *testing.T) {
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
			sf := openV3ForTest(t, h, 4, PartitionRanges)
			res, st, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
				Options{Workers: 4, OutOfCore: true, MaxResidentShards: 2, ShardFile: sf})
			if err != nil {
				t.Fatal(err)
			}
			if st.Rounds != 1 || st.FrontierVertices != 0 {
				t.Fatalf("rounds = %d, frontier = %d", st.Rounds, st.FrontierVertices)
			}
			for v := range seq.Colors {
				if res.Colors[v] != seq.Colors[v] {
					t.Fatalf("vertex %d: streamed %d, sequential %d", v, res.Colors[v], seq.Colors[v])
				}
			}

			lp := openV3ForTest(t, h, 4, PartitionLabelProp)
			res, _, err = ShardedOpts(context.Background(), nil, MaxColorsDefault,
				Options{Workers: 4, OutOfCore: true, MaxResidentShards: 2, ShardFile: lp})
			if !errors.Is(err, ErrUnorderedShards) || res != nil {
				t.Fatalf("labelprop: want ErrUnorderedShards, got %v", err)
			}
			if got := lp.Stats(); got.Maps != 0 {
				t.Fatalf("labelprop: refused run mapped %d sections", got.Maps)
			}
		})
	}
}

// streamShardPayload mirrors the v3 section layout: one shard's mapped
// main-section footprint, inter-section alignment included.
func streamShardPayload(nvLocal int, neLocal int64) int64 {
	align := func(x int64) int64 { return (x + 63) &^ 63 }
	edgesOff := align(int64(nvLocal+1) * 8)
	vmapOff := align(edgesOff + neLocal*4)
	return vmapOff + int64(nvLocal)*4
}

// TestStreamedBoundedResidency pins the out-of-core invariant on a
// 4-shard graph: the peak mapped bytes stay within residency × the
// largest shard payload (the stream maps nothing else), and with one
// resident shard below the full CSR footprint — the graph never resides
// in memory whole.
func TestStreamedBoundedResidency(t *testing.T) {
	g := randomGraph(t, 4000, 48000, 21)
	const shards = 4
	sf := openV3ForTest(t, g, shards, PartitionRanges)
	var maxShard int64
	for s := 0; s < shards; s++ {
		nv, ne := sf.ShardSize(s)
		if p := streamShardPayload(nv, ne); p > maxShard {
			maxShard = p
		}
	}
	fullCSR := int64(g.NumVertices()+1)*8 + g.NumEdges()*4
	for _, r := range []int{1, 2} {
		_, st, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
			Options{Workers: 2, OutOfCore: true, MaxResidentShards: r, ShardFile: sf})
		if err != nil {
			t.Fatal(err)
		}
		if st.PeakMappedBytes <= 0 || (r == 1 && st.PeakMappedBytes >= fullCSR) {
			t.Fatalf("r=%d: peak mapped %d bytes not below the %d-byte full CSR", r, st.PeakMappedBytes, fullCSR)
		}
		if limit := int64(r) * maxShard; st.PeakMappedBytes > limit {
			t.Fatalf("r=%d: peak mapped %d bytes exceeds residency × largest shard payload (%d)",
				r, st.PeakMappedBytes, limit)
		}
		if got := sf.Stats(); got.ResidentBytes != 0 {
			t.Fatalf("r=%d: resident bytes %d after run", r, got.ResidentBytes)
		}
	}
}

// TestStreamedScratchReuse runs the streamed executor repeatedly through
// one Scratch, interleaved with in-core runs, across residency limits:
// pooled buffers must never leak one run's state into the next.
func TestStreamedScratchReuse(t *testing.T) {
	g := randomGraph(t, 1200, 9600, 11)
	ref, err := Greedy(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	sf := openV3ForTest(t, g, 4, PartitionRanges)
	sc := AcquireScratch("sharded", 2, g.NumVertices())
	defer sc.Release()
	for i := 0; i < 3; i++ {
		for _, r := range []int{1, 2, 4} {
			res, _, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
				Options{Workers: 2, OutOfCore: true, MaxResidentShards: r, ShardFile: sf, Scratch: sc})
			if err != nil {
				t.Fatalf("iter %d r=%d: %v", i, r, err)
			}
			for v := range ref.Colors {
				if res.Colors[v] != ref.Colors[v] {
					t.Fatalf("iter %d r=%d: vertex %d: streamed %d, greedy %d",
						i, r, v, res.Colors[v], ref.Colors[v])
				}
			}
		}
		if res, _, err := ShardedOpts(context.Background(), g, MaxColorsDefault,
			Options{Workers: 2, Shards: 4, Scratch: sc}); err != nil {
			t.Fatalf("iter %d in-core: %v", i, err)
		} else {
			for v := range ref.Colors {
				if res.Colors[v] != ref.Colors[v] {
					t.Fatalf("iter %d in-core: vertex %d differs", i, v)
				}
			}
		}
	}
}

// TestStreamedPartitionReuse pins the cached-partition fast path of the
// in-core engine: a precomputed assignment matching the run's shape is
// used verbatim (identical colors and partition stats), while a
// mismatched one is ignored rather than trusted.
func TestStreamedPartitionReuse(t *testing.T) {
	g := randomGraph(t, 1500, 12000, 7)
	a, err := BuildPartition(g, 4, PartitionLabelProp)
	if err != nil {
		t.Fatal(err)
	}
	ref, ist, err := ShardedOpts(context.Background(), g, MaxColorsDefault,
		Options{Workers: 2, Shards: 4, PartitionStrategy: PartitionLabelProp})
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := ShardedOpts(context.Background(), g, MaxColorsDefault,
		Options{Workers: 2, Shards: 4, Partition: a})
	if err != nil {
		t.Fatal(err)
	}
	if st.CutEdges != ist.CutEdges || st.FrontierVertices != ist.FrontierVertices {
		t.Fatalf("cached partition not used: cut %d vs %d, frontier %d vs %d",
			st.CutEdges, ist.CutEdges, st.FrontierVertices, ist.FrontierVertices)
	}
	for v := range ref.Colors {
		if res.Colors[v] != ref.Colors[v] {
			t.Fatalf("vertex %d: cached-partition %d, fresh %d", v, res.Colors[v], ref.Colors[v])
		}
	}
	// A K-mismatched assignment must be ignored (run still succeeds and
	// reports the stats of a freshly built 2-shard partition).
	_, st2, err := ShardedOpts(context.Background(), g, MaxColorsDefault,
		Options{Workers: 2, Shards: 2, Partition: a})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Shards != 2 {
		t.Fatalf("mismatched cached partition changed the run: %+v", st2)
	}
}

// TestStreamedPaletteExhausted: the 80-clique under a 64-color palette
// must fail with ErrPaletteExhausted out of core too — the failure
// surfaces in the second shard, and every worker stops.
func TestStreamedPaletteExhausted(t *testing.T) {
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
	sf := openV3ForTest(t, g, 2, PartitionRanges)
	for _, w := range []int{1, 4} {
		res, _, err := ShardedOpts(context.Background(), nil, 64,
			Options{MaxColors: 64, Workers: w, OutOfCore: true, MaxResidentShards: 2, ShardFile: sf})
		if !errors.Is(err, ErrPaletteExhausted) {
			t.Fatalf("w=%d: want ErrPaletteExhausted, got %v", w, err)
		}
		if res != nil {
			t.Fatalf("w=%d: result returned alongside palette exhaustion", w)
		}
	}
	if got := sf.Stats(); got.ResidentBytes != 0 {
		t.Fatalf("resident bytes %d after failed run", got.ResidentBytes)
	}
}

// TestStreamedCancel covers both cancellation points: before the call
// (immediate ctx.Err) and mid-pass on a graph too big to finish first
// (the runner loop and OwnerLoop checkpoints must both notice).
func TestStreamedCancel(t *testing.T) {
	small := openV3ForTest(t, randomGraph(t, 200, 800, 2), 2, PartitionRanges)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := ShardedOpts(ctx, nil, MaxColorsDefault,
		Options{Workers: 2, OutOfCore: true, ShardFile: small})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatal("result returned alongside cancellation")
	}

	big := openV3ForTest(t, pathGraph(t, 1_000_000), 4, PartitionRanges)
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := ShardedOpts(ctx, nil, MaxColorsDefault,
			Options{Workers: 2, OutOfCore: true, MaxResidentShards: 1, ShardFile: big})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("streamed engine did not return after cancellation")
	}
}

// TestStreamedEmptyAndSingleShard pins the degenerate shapes: an empty
// graph and a one-shard file both stream to the correct (trivial or
// greedy-identical) coloring.
func TestStreamedEmptyAndSingleShard(t *testing.T) {
	empty, err := graph.FromEdgeList(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sfe := openV3ForTest(t, empty, 1, PartitionRanges)
	res, st, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
		Options{Workers: 4, OutOfCore: true, ShardFile: sfe})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 0 || st.FrontierVertices != 0 {
		t.Fatalf("empty graph: colors=%d frontier=%d", res.NumColors, st.FrontierVertices)
	}

	g := randomGraph(t, 800, 6400, 5)
	ref, err := Greedy(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	sf1 := openV3ForTest(t, g, 1, PartitionRanges)
	res, st, err = ShardedOpts(context.Background(), nil, MaxColorsDefault,
		Options{Workers: 2, OutOfCore: true, ShardFile: sf1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 || st.FrontierVertices != 0 || st.CutEdges != 0 {
		t.Fatalf("single-shard stream: %+v", st)
	}
	for v := range ref.Colors {
		if res.Colors[v] != ref.Colors[v] {
			t.Fatalf("vertex %d: streamed %d, greedy %d", v, res.Colors[v], ref.Colors[v])
		}
	}
}

// TestVerifySharded pins the streamed verifier: it accepts a proper
// coloring and rejects a conflicted, uncolored or mis-sized one.
func TestVerifySharded(t *testing.T) {
	g := randomGraph(t, 600, 4800, 13)
	sf := openV3ForTest(t, g, 3, PartitionRanges)
	res, _, err := ShardedOpts(context.Background(), g, MaxColorsDefault, Options{Workers: 2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	colors := append([]uint16(nil), res.Colors...)
	if err := VerifySharded(sf, colors); err != nil {
		t.Fatal(err)
	}
	if err := VerifySharded(sf, colors[:10]); err == nil {
		t.Fatal("mis-sized colors accepted")
	}
	// Force a conflict on the first edge.
	var u, v graph.VertexID = 0, 0
	for x := 0; x < g.NumVertices(); x++ {
		if adj := g.Neighbors(graph.VertexID(x)); len(adj) > 0 {
			u, v = graph.VertexID(x), adj[0]
			break
		}
	}
	if u != v {
		bad := append([]uint16(nil), colors...)
		bad[u] = bad[v]
		if err := VerifySharded(sf, bad); err == nil {
			t.Fatal("conflicting coloring accepted")
		}
		bad[u] = 0
		if err := VerifySharded(sf, bad); err == nil {
			t.Fatal("uncolored vertex accepted")
		}
	}
	if got := sf.Stats(); got.ResidentBytes != 0 {
		t.Fatalf("verifier leaked %d resident bytes", got.ResidentBytes)
	}
}

// bridgedShardsGraph builds k range shards of size vertices each: every
// shard is a path whose vertices all neighbor the shard's first vertex,
// and that first vertex neighbors the previous shard's last vertex. With
// two or more shards resident, a shard's first vertex waits on a shard
// still coloring its path and every vertex behind it waits on that one,
// so waits cross shards and fill the forwarding rings.
func bridgedShardsGraph(t testing.TB, k, size int) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	for s := 0; s < k; s++ {
		lo := s * size
		if s > 0 {
			edges = append(edges, graph.Edge{U: graph.VertexID(lo - 1), V: graph.VertexID(lo)})
		}
		for v := lo + 1; v < lo+size; v++ {
			edges = append(edges,
				graph.Edge{U: graph.VertexID(lo), V: graph.VertexID(v)},
				graph.Edge{U: graph.VertexID(v - 1), V: graph.VertexID(v)})
		}
	}
	g, err := graph.FromEdgeList(k*size, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStreamedOrderedWindow runs the ordered stream at residency 2 and 4
// and w ∈ {1, 2, 4} on a path and on bridgedShardsGraph, where a shard's
// first vertex waits on the previous shard: waits cross shards inside
// the window (parks on the forwarding ring, and ring-full inline waits
// when a whole shard queues behind its first vertex). Every run must map
// each shard exactly once, color like sequential greedy with no
// frontier, fill one stats entry per shard, and leave nothing mapped.
// Run it under -race: those waits are the window's only cross-shard
// communication.
func TestStreamedOrderedWindow(t *testing.T) {
	const shards, size = 4, 3000
	graphs := map[string]*graph.CSR{
		"path":    pathGraph(t, shards*size),
		"bridged": bridgedShardsGraph(t, shards, size),
	}
	for name, g := range graphs {
		seq, err := Greedy(context.Background(), g, MaxColorsDefault)
		if err != nil {
			t.Fatal(err)
		}
		sf := openV3ForTest(t, g, shards, PartitionRanges)
		for _, r := range []int{2, 4} {
			for _, w := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s r=%d w=%d", name, r, w)
				before := sf.Stats()
				res, st, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
					Options{Workers: w, OutOfCore: true, MaxResidentShards: r, ShardFile: sf})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				after := sf.Stats()
				if maps, unmaps := after.Maps-before.Maps, after.Unmaps-before.Unmaps; maps != shards || unmaps != shards || after.ResidentBytes != 0 {
					t.Fatalf("%s: maps %d, unmaps %d, resident %d bytes; want each shard mapped once and released",
						label, maps, unmaps, after.ResidentBytes)
				}
				for v := range seq.Colors {
					if res.Colors[v] != seq.Colors[v] {
						t.Fatalf("%s: vertex %d: streamed %d, greedy %d", label, v, res.Colors[v], seq.Colors[v])
					}
				}
				if st.Rounds != 1 || st.FrontierVertices != 0 || st.CrossShardDefers != 0 || st.ResidentShards != r {
					t.Fatalf("%s: rounds=%d frontier=%d cross=%d resident=%d",
						label, st.Rounds, st.FrontierVertices, st.CrossShardDefers, st.ResidentShards)
				}
				if st.DeferRetries < st.Deferred {
					t.Fatalf("%s: %d parks but %d replays", label, st.Deferred, st.DeferRetries)
				}
				if len(st.ShardVertices) != shards {
					t.Fatalf("%s: %d shard entries", label, len(st.ShardVertices))
				}
				for s, nv := range st.ShardVertices {
					if nv != size {
						t.Fatalf("%s: shard %d colored %d of %d vertices", label, s, nv, size)
					}
				}
			}
		}
	}
}

// descentAt reorders the list holding edges[at-1] and edges[at] so that
// its only descent is at entry at, from a neighbor above the list's
// vertex v to one below it: two ascending runs, upper neighbors then
// lower ones. A run that trusted the list to be sorted would stop at the
// first upper neighbor and miss the lower ones after it.
func descentAt(t *testing.T, g *graph.CSR, at int64) {
	t.Helper()
	v, _ := slices.BinarySearch(g.Offsets, at+1)
	v-- // the list holding entry at
	list := g.Edges[g.Offsets[v]:g.Offsets[v+1]]
	d := int(at - g.Offsets[v])
	k, _ := slices.BinarySearch(list, graph.VertexID(v)) // lower neighbors
	lower, upper := slices.Clone(list[:k]), slices.Clone(list[k:])
	var order []graph.VertexID
	switch {
	case d == 0 || k == 0 || k == len(list):
		t.Fatalf("entry %d: vertex %d has %d lower of %d neighbors, descent offset %d", at, v, k, len(list), d)
	case d <= len(upper): // upper[:d], lower, upper[d:]
		order = append(append(append(order, upper[:d]...), lower...), upper[d:]...)
	default: // lower[:j], upper, lower[j:] with j+len(upper) = d
		j := d - len(upper)
		order = append(append(append(order, lower[:j]...), upper...), lower[j:]...)
	}
	copy(list, order)
}

// TestStreamedUnsortedSeams streams files whose shards each hold an
// unsorted list across every seam where MapShard, at w workers, cuts the
// shard's edges section (entry ne·p/w; each shard here is long enough to
// split). Every descent lies on such a seam, so the stream learns the
// lists are unsorted only from the seam comparisons; it must then read
// whole lists and still color byte-identically to sequential greedy at
// every workers × residency point.
func TestStreamedUnsortedSeams(t *testing.T) {
	for _, w := range []int{2, 3} {
		g := randomGraph(t, 4000, 500000, 53)
		a, err := BuildPartition(g, 2, PartitionRanges)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			lo, _ := slices.BinarySearch(a.Parts, int32(s))
			hi, _ := slices.BinarySearch(a.Parts, int32(s+1))
			base, ne := g.Offsets[lo], g.Offsets[hi]-g.Offsets[lo]
			for p := int64(1); p < int64(w); p++ {
				descentAt(t, g, base+ne*p/int64(w))
			}
		}
		g.ResetSorted()
		path := filepath.Join(t.TempDir(), "unsorted.bcsr")
		if err := graph.SaveBinaryV3File(path, g, a.Parts, a.K, graph.V3PartitionRanges); err != nil {
			t.Fatal(err)
		}
		sf, err := graph.OpenShardedFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Greedy(context.Background(), g, MaxColorsDefault)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			for _, r := range []int{1, 2} {
				res, _, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
					Options{Workers: workers, OutOfCore: true, MaxResidentShards: r, ShardFile: sf})
				if err != nil {
					t.Fatalf("seams of %d, w=%d r=%d: %v", w, workers, r, err)
				}
				if !slices.Equal(res.Colors, seq.Colors) {
					t.Fatalf("seams of %d, w=%d r=%d: streamed colors differ from greedy", w, workers, r)
				}
				if err := VerifyShardedParallel(sf, res.Colors, workers); err != nil {
					t.Fatalf("seams of %d, w=%d r=%d: %v", w, workers, r, err)
				}
			}
		}
		if got := sf.Stats(); got.Maps != got.Unmaps || got.ResidentBytes != 0 {
			t.Fatalf("seams of %d: leaked mappings: %+v", w, got)
		}
		sf.Close()
	}
}

// TestStreamedCorruptShard flips a byte of shard 2's edges. At every
// residency the run must end in that shard's checksum error — with the
// shards around it mapped and colored concurrently when the window
// allows — release every mapping it made and leave no goroutine behind.
func TestStreamedCorruptShard(t *testing.T) {
	g := randomGraph(t, 4000, 32000, 17)
	path := writeV3ForTest(t, g, 4, PartitionRanges)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 2's edges section is its vertices' adjacency, verbatim.
	a, err := BuildPartition(g, 4, PartitionRanges)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := slices.BinarySearch(a.Parts, 2)
	hi, _ := slices.BinarySearch(a.Parts, 3)
	sec := g.Edges[g.Offsets[lo]:g.Offsets[hi]]
	want := make([]byte, 4*len(sec))
	for i, u := range sec {
		binary.LittleEndian.PutUint32(want[4*i:], uint32(u))
	}
	at := bytes.Index(img, want)
	if at < 0 {
		t.Fatal("shard 2's edges not found in the file")
	}
	img[at+len(want)/2] ^= 0x10
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := graph.OpenShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	baseline := runtime.NumGoroutine()
	for _, r := range []int{1, 2, 4} {
		for _, w := range []int{1, 2} {
			res, _, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
				Options{Workers: w, OutOfCore: true, MaxResidentShards: r, ShardFile: sf})
			if err == nil || !strings.Contains(err.Error(), "v3 shard 2 section checksum mismatch") || res != nil {
				t.Fatalf("r=%d w=%d: want shard 2's checksum error, got %v", r, w, err)
			}
			if got := sf.Stats(); got.Maps == 0 || got.Maps != got.Unmaps || got.ResidentBytes != 0 {
				t.Fatalf("r=%d w=%d: mappings not released: %+v", r, w, got)
			}
		}
	}
	// The engine joins every goroutine it starts; one that has called
	// Done may still be on its way out, so allow it a moment.
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after the failed runs, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardStatsOneEntryPerShard pins the RunStats contract the
// benchmark harness relies on: whenever Shards > 0, ShardVertices and
// ShardDurations hold one entry per shard, and the vertex entries plus
// the in-core frontier cover the graph — in core at 1, 2 and 4 shards (one shard
// is the dctRun delegate), with and without a Scratch, and streamed.
func TestShardStatsOneEntryPerShard(t *testing.T) {
	g := randomGraph(t, 1200, 9600, 23)
	check := func(label string, st metrics.RunStats, shards int) {
		t.Helper()
		if st.Shards != shards || len(st.ShardVertices) != shards || len(st.ShardDurations) != shards {
			t.Fatalf("%s: shards %d with %d vertex and %d duration entries, want %d",
				label, st.Shards, len(st.ShardVertices), len(st.ShardDurations), shards)
		}
		sum := int64(st.FrontierVertices)
		for _, v := range st.ShardVertices {
			sum += v
		}
		if sum != int64(g.NumVertices()) {
			t.Fatalf("%s: shard entries cover %d of %d vertices", label, sum, g.NumVertices())
		}
	}
	for _, w := range []int{1, 2} {
		sc := AcquireScratch("sharded", w, g.NumVertices())
		for _, s := range []int{1, 2, 4} {
			for _, scratch := range []*Scratch{nil, sc} {
				_, st, err := ShardedOpts(context.Background(), g, MaxColorsDefault,
					Options{Workers: w, Shards: s, Scratch: scratch})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("in-core s=%d w=%d scratch=%v", s, w, scratch != nil), st, s)
			}
			sf := openV3ForTest(t, g, s, PartitionRanges)
			_, st, err := ShardedOpts(context.Background(), nil, MaxColorsDefault,
				Options{Workers: w, OutOfCore: true, MaxResidentShards: 2, ShardFile: sf, Scratch: sc})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("streamed s=%d w=%d", s, w), st, s)
		}
		sc.Release()
	}
}
