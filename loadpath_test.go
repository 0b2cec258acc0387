package bitcolor

// Root-level load-path tests: the mapped one-shard BCSR v3 view must be
// indistinguishable, through the public API, from the copying readers —
// same adjacency bytes on every Table 3 generator, same colorings at
// every worker count — files from the retired writers must still open,
// and the pooled-Scratch hot path must stay allocation-free all the way
// through ColorContext.

import (
	"bufio"
	"context"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
	"bitcolor/internal/reorder"
)

// legacyFixture names a file the retired binary writers left under
// internal/graph/testdata (legacy.txt is their source graph).
func legacyFixture(name string) string {
	return filepath.Join("internal", "graph", "testdata", name)
}

// colorsOf colors g with the engine and fails the test on error.
func colorsOf(t *testing.T, g *Graph, opts ColorOptions) []uint16 {
	t.Helper()
	res, _, err := ColorContext(context.Background(), g, opts)
	if err != nil {
		t.Fatalf("%v w=%d: %v", opts.Engine, opts.Workers, err)
	}
	return res.Colors
}

// TestMappedV3MatchesSourceAllDatasets saves each of the ten Table 3
// generators (small variants — same generator code, reduced parameters)
// as a one-shard v3 file and checks OpenGraphFile maps it, element-
// identical to the source and to the copying v3 reader, and that dct at
// one and two workers and the sharded engine on the cached partition
// color it byte-identically to the source.
func TestMappedV3MatchesSourceAllDatasets(t *testing.T) {
	dir := t.TempDir()
	for _, d := range gen.SmallRegistry() {
		g, err := d.Build(1)
		if err != nil {
			t.Fatalf("%s: build: %v", d.Abbrev, err)
		}
		prepared, err := Preprocess(g)
		if err != nil {
			t.Fatalf("%s: preprocess: %v", d.Abbrev, err)
		}
		path := filepath.Join(dir, d.Abbrev+".bcsr")
		if err := SaveGraph(path, prepared); err != nil {
			t.Fatalf("%s: save: %v", d.Abbrev, err)
		}
		copied, _, err := graph.LoadBinaryV3File(path)
		if err != nil {
			t.Fatalf("%s: copying read: %v", d.Abbrev, err)
		}
		h, err := OpenGraphFile(path)
		if err != nil {
			t.Fatalf("%s: open: %v", d.Abbrev, err)
		}
		if h.Format() != FormatBCSR3 || h.NumShards() != 1 {
			t.Fatalf("%s: sniffed %q with %d shards, want a one-shard %q", d.Abbrev, h.Format(), h.NumShards(), FormatBCSR3)
		}
		if runtime.GOOS == "linux" && !h.Mapped() {
			t.Fatalf("%s: one-shard file not mapped", d.Abbrev)
		}
		mapped := h.Graph()
		for label, want := range map[string]*Graph{"source": prepared, "copying reader": copied} {
			if !slices.Equal(mapped.Offsets, want.Offsets) || !slices.Equal(mapped.Edges, want.Edges) {
				t.Fatalf("%s: mapped graph differs from the %s", d.Abbrev, label)
			}
		}
		for _, w := range []int{1, 2} {
			opts := ColorOptions{Engine: EngineDCT, Workers: w}
			if !slices.Equal(colorsOf(t, mapped, opts), colorsOf(t, prepared, opts)) {
				t.Fatalf("%s: dct w=%d colors differ on the mapped graph", d.Abbrev, w)
			}
			res, _, err := ColorHandle(h, ColorOptions{Engine: EngineSharded, Workers: w})
			if err != nil {
				t.Fatalf("%s: sharded w=%d on the cached partition: %v", d.Abbrev, w, err)
			}
			if !slices.Equal(res.Colors, colorsOf(t, prepared, opts)) {
				t.Fatalf("%s: sharded w=%d colors differ on the cached partition", d.Abbrev, w)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatalf("%s: close: %v", d.Abbrev, err)
		}
		if st := h.ShardStats(); st.Maps != st.Unmaps || st.ResidentBytes != 0 {
			t.Fatalf("%s: after Close %+v, want maps == unmaps and nothing resident", d.Abbrev, st)
		}
	}
}

// TestMappedSortednessFromData: the mapped graph's sortedness comes from
// its lists, never from the header's flag. A shuffled graph reports
// unsorted; a crafted file whose flag claims sorted lists over shuffled
// ones (header checksum recomputed) is not reported sorted either, and
// colors like greedy, both mapped in core and streamed out of core.
func TestMappedSortednessFromData(t *testing.T) {
	g, err := Generate("GD", 3)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := g.Clone()
	reorder.ShuffleEdges(shuffled, 7)
	if shuffled.EdgesSorted() {
		t.Fatal("ShuffleEdges left every list sorted")
	}
	want := colorsOf(t, shuffled, ColorOptions{Engine: EngineGreedy})
	for _, shards := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "shuffled.bcsr")
		if err := SaveGraphV3(path, shuffled, shards, PartitionRanges); err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Header bytes [12:16) hold the flags (bit 1: sorted) and
		// [56:64) the FNV-1a of bytes [0:56).
		binary.LittleEndian.PutUint32(img[12:16], binary.LittleEndian.Uint32(img[12:16])|2)
		h64 := fnv.New64a()
		h64.Write(img[:56])
		binary.LittleEndian.PutUint64(img[56:64], h64.Sum64())
		crafted := filepath.Join(t.TempDir(), "crafted.bcsr")
		if err := os.WriteFile(crafted, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			for _, p := range []string{path, crafted} {
				h, err := OpenGraphFile(p)
				if err != nil {
					t.Fatalf("%s: %v", filepath.Base(p), err)
				}
				mg := h.Graph()
				if !mg.SortednessKnown() || mg.EdgesSorted() {
					t.Fatalf("%s: known=%v sorted=%v, want known unsorted", filepath.Base(p), mg.SortednessKnown(), mg.EdgesSorted())
				}
				for _, w := range []int{1, 2} {
					if got := colorsOf(t, mg, ColorOptions{Engine: EngineDCT, Workers: w}); !slices.Equal(got, want) {
						t.Fatalf("%s: dct w=%d colors differ from greedy", filepath.Base(p), w)
					}
				}
				h.Close()
			}
		}
		h, err := OpenGraphFileOutOfCore(crafted)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := ColorHandle(h, ColorOptions{Engine: EngineSharded, Workers: 2})
		h.Close()
		if err != nil {
			t.Fatalf("%d shards streamed: %v", shards, err)
		}
		if !slices.Equal(res.Colors, want) {
			t.Fatalf("%d shards streamed: colors differ from greedy", shards)
		}
	}
}

// TestOpenGraphFileCorruptOneShard flips one byte in each region of a
// one-shard file: every open fails with a checksum error and leaves no
// mapping of the file behind.
func TestOpenGraphFileCorruptOneShard(t *testing.T) {
	g, err := Generate("EF", 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The v3 layout of one shard: a 64-byte header, the meta section
	// (parts padded to 8 bytes, two totals, one 80-byte directory
	// record), then 64-byte-aligned offsets, edges and vertex map.
	nv, ne := uint64(g.NumVertices()), uint64(g.NumEdges())
	align := func(x uint64) uint64 { return (x + 63) &^ 63 }
	meta := uint64(64)
	offsets := align(meta + (nv*4+7)&^7 + 16 + 80)
	edges := align(offsets + (nv+1)*8)
	vmap := align(edges + ne*4)
	for region, at := range map[string]uint64{
		"header": 20, "meta": meta + 4, "offsets": offsets + 8, "edges": edges + 4, "vertex map": vmap + 4,
	} {
		bad := append([]byte(nil), img...)
		bad[at] ^= 0x10
		p := filepath.Join(t.TempDir(), "bad.bcsr")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if h, err := OpenGraphFile(p); err == nil || !strings.Contains(err.Error(), "checksum") {
			if err == nil {
				h.Close()
			}
			t.Fatalf("%s byte flipped: err = %v, want a checksum error", region, err)
		}
		if runtime.GOOS == "linux" && mapsFile(t, p) {
			t.Fatalf("%s byte flipped: %s is still mapped after the failed open", region, p)
		}
	}
}

// mapsFile reports whether this process has path mapped, from
// /proc/self/maps.
func mapsFile(t *testing.T, path string) bool {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasSuffix(sc.Text(), path) {
			return true
		}
	}
	return false
}

// TestLegacyFixturesOpenAndColor: files from the retired v1 and v2
// writers and a four-shard v3 file with boundary blocks open through
// OpenGraphFile and LoadGraph as their source graph and color
// byte-identically to it.
func TestLegacyFixturesOpenAndColor(t *testing.T) {
	src, err := LoadGraph(legacyFixture("legacy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := colorsOf(t, src, ColorOptions{Engine: EngineDCT, Workers: 2})
	for name, format := range map[string]string{
		"legacy-v1.bcsr": FormatBCSR1, "legacy-v2.bcsr": FormatBCSR2, "legacy-v3-4shard.bcsr": FormatBCSR3,
	} {
		h, err := OpenGraphFile(legacyFixture(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.Format() != format || h.Mapped() {
			t.Fatalf("%s: format %q mapped %v, want %q by copy", name, h.Format(), h.Mapped(), format)
		}
		loaded, err := LoadGraph(legacyFixture(name))
		if err != nil {
			t.Fatalf("%s: LoadGraph: %v", name, err)
		}
		for label, g := range map[string]*Graph{"OpenGraphFile": h.Graph(), "LoadGraph": loaded} {
			if !slices.Equal(g.Offsets, src.Offsets) || !slices.Equal(g.Edges, src.Edges) {
				t.Fatalf("%s via %s: graph differs from its source", name, label)
			}
			if got := colorsOf(t, g, ColorOptions{Engine: EngineDCT, Workers: 2}); !slices.Equal(got, want) {
				t.Fatalf("%s via %s: colors differ from the source's", name, label)
			}
		}
		h.Close()
	}
}

// TestMappedColoringMatchesCopied colors the same file once through the
// mapped handle and once through the copying loader, at several worker
// counts, and requires byte-identical color assignments. The dct engine
// guarantees determinism at any worker count, so any divergence here
// means the mapped view presented different adjacency data.
func TestMappedColoringMatchesCopied(t *testing.T) {
	g, err := Generate("RC", 1)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rc.bcsr")
	if err := SaveGraph(path, prepared); err != nil {
		t.Fatal(err)
	}
	copied, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := OpenGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	mapped := h.Graph()

	color := func(g *Graph, e Engine, workers, shards int) []uint16 {
		res, err := Color(g, ColorOptions{Engine: e, Workers: workers, ShardCount: shards})
		if err != nil {
			t.Fatalf("%v w=%d s=%d: %v", e, workers, shards, err)
		}
		return res.Colors
	}
	check := func(e Engine, workers, shards int) {
		want := color(copied, e, workers, shards)
		got := color(mapped, e, workers, shards)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v w=%d s=%d: vertex %d colored %d on mapped graph, %d on copied",
					e, workers, shards, v, got[v], want[v])
			}
		}
	}
	check(EngineBitwise, 1, 0)
	for _, w := range []int{1, 2, 4} {
		check(EngineDCT, w, 0)
	}
	// The sharded engine carries the same any-parallelism determinism
	// guarantee, so the full (shards × workers) grid must agree between
	// the mapped and copied views too.
	for _, s := range []int{1, 2, 4} {
		for _, w := range []int{1, 2, 4} {
			check(EngineSharded, w, s)
		}
	}
}

// TestColorContextZeroAllocScratch proves the public hot path — repeated
// ColorContext calls with a pooled Scratch — does zero steady-state heap
// allocations for the bitwise and dct engines at one worker. This is the
// load-once, color-many service pattern the Scratch API exists for.
func TestColorContextZeroAllocScratch(t *testing.T) {
	g, err := Generate("RC", 1)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A shared Pool is part of the serving hot path, so the zero-alloc
	// contract must hold through admission too (the uncontended
	// Acquire/Release pair is allocation-free by design).
	pool := NewPool(2)
	// EngineSharded at its ShardCount default (single shard) delegates to
	// the same sequential DCT loop, so it shares the zero-alloc contract.
	for _, e := range []Engine{EngineBitwise, EngineDCT, EngineSharded} {
		s := AcquireScratch(e, 1, prepared)
		opts := ColorOptions{Engine: e, Workers: 1, Scratch: s, Pool: pool}
		// Warm run: the first call grows the arena to the graph's size.
		if _, _, err := ColorContext(ctx, prepared, opts); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, _, err := ColorContext(ctx, prepared, opts); err != nil {
				t.Fatal(err)
			}
		})
		s.Release()
		if avg != 0 {
			t.Errorf("%v w=1 via ColorContext on pooled Scratch: %.1f allocs/run, want 0", e, avg)
		}
	}
}

// TestRegistryZeroAllocSweep walks the whole engine registry through the
// pooled path (Scratch + shared Pool, one worker). Every engine must
// accept the combination; the engines with a steady-state zero-alloc
// contract (bitwise, dct, sharded) must additionally stay at zero heap
// allocations per run, so a new engine registration cannot silently
// regress the serving hot path.
func TestRegistryZeroAllocSweep(t *testing.T) {
	// The sweep covers every engine, including the slow MIS family, so it
	// uses the small RC variant (a few thousand vertices) rather than the
	// full generator the focused zero-alloc test above exercises.
	var g *Graph
	for _, d := range gen.SmallRegistry() {
		if d.Abbrev == "RC" {
			small, err := d.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			g = small
		}
	}
	if g == nil {
		t.Fatal("small RC dataset missing from gen.SmallRegistry")
	}
	prepared, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pool := NewPool(1)
	zeroAlloc := map[Engine]bool{EngineBitwise: true, EngineDCT: true, EngineSharded: true}
	for _, e := range Engines() {
		s := AcquireScratch(e, 1, prepared)
		opts := ColorOptions{Engine: e, Workers: 1, Scratch: s, Pool: pool}
		if _, _, err := ColorContext(ctx, prepared, opts); err != nil {
			t.Errorf("%v through shared pool: %v", e, err)
			s.Release()
			continue
		}
		if zeroAlloc[e] {
			avg := testing.AllocsPerRun(10, func() {
				if _, _, err := ColorContext(ctx, prepared, opts); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%v w=1 pooled: %.1f allocs/run, want 0", e, avg)
			}
		}
		s.Release()
	}
	if pool.InUse() != 0 || pool.Waiting() != 0 {
		t.Errorf("pool not idle after sweep: in use %d, waiting %d", pool.InUse(), pool.Waiting())
	}
}

// TestResidentRequestSkipsSortScan: every way a resident graph arrives —
// built from edges, preprocessed, or opened from a mapped BCSR v3 file —
// leaves its sortedness recorded, so no color request scans adjacency
// for it. A CSR literal records it on its first request.
func TestResidentRequestSkipsSortScan(t *testing.T) {
	g, err := Generate("GD", 1)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gd.bcsr")
	if err := SaveGraph(path, prepared); err != nil {
		t.Fatal(err)
	}
	h, err := OpenGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	literal := &Graph{Offsets: prepared.Offsets, Edges: prepared.Edges}
	if literal.SortednessKnown() {
		t.Fatal("CSR literal starts with sortedness known")
	}
	opts := ColorOptions{Engine: EngineDCT, Workers: 2}
	if _, _, err := ColorContext(context.Background(), literal, opts); err != nil {
		t.Fatal(err)
	}
	for name, gr := range map[string]*Graph{"generated": g, "preprocessed": prepared, "mapped v3": h.Graph(), "literal after a request": literal} {
		if !gr.SortednessKnown() {
			t.Errorf("%s graph: sortedness unknown, so a color request would scan", name)
		}
	}
	if !h.Mapped() {
		t.Log("mapped path unavailable here; the copying reader was checked instead")
	}
}
