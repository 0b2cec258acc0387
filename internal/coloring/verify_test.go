package coloring

import (
	"context"
	"fmt"
	"testing"

	"bitcolor/internal/graph"
	"bitcolor/internal/reorder"
)

// verifyWorkerCounts are the splits the differential tests cover.
var verifyWorkerCounts = []int{1, 2, 3, 8}

// faultSites lists the positions [0, m) of an adjacency layout next to
// every range boundary of every split in verifyWorkerCounts — the
// position before, on and after each cut — plus both ends.
func faultSites(offsets []int64) []int {
	m := len(offsets) - 1
	seen := map[int]bool{}
	var sites []int
	add := func(i int) {
		if i >= 0 && i < m && !seen[i] {
			seen[i] = true
			sites = append(sites, i)
		}
	}
	add(0)
	add(m - 1)
	for _, w := range verifyWorkerCounts {
		for r := 1; r < w; r++ {
			b := verifyCut(offsets, w, r)
			add(b - 1)
			add(b)
			add(b + 1)
		}
	}
	return sites
}

// faultyColorings derives from a proper coloring the colorings a
// verifier must reject: at each site, the vertex uncolored, and the
// vertex given the color of its first and of its last neighbor (a
// conflict whose other end may lie in another range); and at each pair
// of neighboring sites, two faults, so the lower one must win.
func faultyColorings(offsets []int64, edges, vmap []graph.VertexID, colors []uint16) map[string][]uint16 {
	vertex := func(i int) graph.VertexID {
		if vmap != nil {
			return vmap[i]
		}
		return graph.VertexID(i)
	}
	out := map[string][]uint16{"valid": colors}
	edit := func(label string, f func(c []uint16)) {
		c := append([]uint16(nil), colors...)
		f(c)
		out[label] = c
	}
	sites := faultSites(offsets)
	for _, i := range sites {
		v := vertex(i)
		edit(fmt.Sprintf("uncolored %d", v), func(c []uint16) { c[v] = 0 })
		if adj := edges[offsets[i]:offsets[i+1]]; len(adj) > 0 {
			first, last := adj[0], adj[len(adj)-1]
			edit(fmt.Sprintf("conflict %d-%d", v, first), func(c []uint16) { c[v] = c[first] })
			edit(fmt.Sprintf("conflict %d-%d", v, last), func(c []uint16) { c[v] = c[last] })
		}
	}
	for k := 1; k < len(sites); k++ {
		lo, hi := vertex(sites[k-1]), vertex(sites[k])
		edit(fmt.Sprintf("uncolored %d and %d", lo, hi), func(c []uint16) { c[lo], c[hi] = 0, 0 })
	}
	return out
}

// verifyGraphs are the differential inputs: uniform random, a DBG'd
// (hub-first, skewed) graph, and one with runs of empty lists.
func verifyGraphs(t *testing.T) map[string]*graph.CSR {
	dbg, _ := reorder.DBG(randomGraph(t, 1500, 15000, 3))
	sparse := randomGraph(t, 800, 300, 5) // most vertices isolated
	return map[string]*graph.CSR{"random": randomGraph(t, 2000, 16000, 2), "dbg": dbg, "sparse": sparse}
}

// TestVerifyParallelMatchesVerify: on every faulty coloring the split
// verifier returns exactly Verify's error, at every worker count.
func TestVerifyParallelMatchesVerify(t *testing.T) {
	for name, g := range verifyGraphs(t) {
		res, err := Greedy(context.Background(), g, MaxColorsDefault)
		if err != nil {
			t.Fatal(err)
		}
		for label, c := range faultyColorings(g.Offsets, g.Edges, nil, res.Colors) {
			want := fmt.Sprint(Verify(g, c))
			if (label == "valid") != (want == "<nil>") {
				t.Fatalf("%s %s: Verify = %s", name, label, want)
			}
			for _, w := range verifyWorkerCounts {
				if got := fmt.Sprint(VerifyParallel(g, c, w)); got != want {
					t.Fatalf("%s %s w=%d: got %s, want %s", name, label, w, got, want)
				}
			}
		}
		for _, w := range verifyWorkerCounts {
			got, want := fmt.Sprint(VerifyParallel(g, res.Colors[1:], w)), fmt.Sprint(Verify(g, res.Colors[1:]))
			if got != want {
				t.Fatalf("%s short colors w=%d: got %s, want %s", name, w, got, want)
			}
		}
	}
	empty := &graph.CSR{Offsets: []int64{0}}
	for _, w := range verifyWorkerCounts {
		if err := VerifyParallel(empty, nil, w); err != nil {
			t.Fatalf("empty graph w=%d: %v", w, err)
		}
	}
}

// TestVerifyShardedParallelMatchesVerifySharded: the same faults, placed
// at the range boundaries inside each shard, get VerifySharded's exact
// error from the split shard verifier, for both partition strategies.
func TestVerifyShardedParallelMatchesVerifySharded(t *testing.T) {
	g := verifyGraphs(t)["dbg"]
	res, err := Greedy(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{PartitionRanges, PartitionLabelProp} {
		sf := openV3ForTest(t, g, 3, strategy)
		var largest int64 // the largest single shard mapping
		for s := 0; s < sf.Shards(); s++ {
			sm, err := sf.MapShard(s)
			if err != nil {
				t.Fatal(err)
			}
			largest = max(largest, sf.Stats().ResidentBytes)
			cases := faultyColorings(sm.Offsets, sm.Edges, sm.VMap, res.Colors)
			sm.Close()
			for label, c := range cases {
				want := fmt.Sprint(VerifySharded(sf, c))
				for _, w := range verifyWorkerCounts {
					if got := fmt.Sprint(VerifyShardedParallel(sf, c, w)); got != want {
						t.Fatalf("%s shard %d %s w=%d: got %s, want %s", strategy, s, label, w, got, want)
					}
				}
			}
		}
		// One shard mapped at a time, and every mapping released.
		if st := sf.Stats(); st.Maps != st.Unmaps || st.PeakResidentBytes > largest {
			t.Fatalf("%s: %d maps / %d unmaps, peak %d bytes", strategy, st.Maps, st.Unmaps, st.PeakResidentBytes)
		}
	}
}
