package bitcolor

// Root-level load-path tests: the mapped BCSR v2 view must be
// indistinguishable, through the public API, from the copying readers —
// same adjacency bytes on every Table 3 generator, same colorings at
// every worker count — and the pooled-Scratch hot path must stay
// allocation-free all the way through ColorContext.

import (
	"context"
	"path/filepath"
	"testing"

	"bitcolor/internal/gen"
)

// TestMappedV2MatchesV1AllDatasets saves each of the ten Table 3
// generators (small variants — same generator code, reduced parameters)
// in both binary formats and checks the mapped v2 graph is
// element-identical to what the copying v1 reader produces.
func TestMappedV2MatchesV1AllDatasets(t *testing.T) {
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
		v1 := filepath.Join(dir, d.Abbrev+".v1.bcsr")
		v2 := filepath.Join(dir, d.Abbrev+".v2.bcsr")
		if err := SaveGraph(v1, prepared); err != nil {
			t.Fatalf("%s: save v1: %v", d.Abbrev, err)
		}
		if err := SaveGraphV2(v2, prepared); err != nil {
			t.Fatalf("%s: save v2: %v", d.Abbrev, err)
		}
		gv1, err := LoadGraph(v1)
		if err != nil {
			t.Fatalf("%s: load v1: %v", d.Abbrev, err)
		}
		h, err := OpenGraphFile(v2)
		if err != nil {
			t.Fatalf("%s: open v2: %v", d.Abbrev, err)
		}
		if h.Format() != FormatBCSR2 {
			t.Fatalf("%s: sniffed %q, want %q", d.Abbrev, h.Format(), FormatBCSR2)
		}
		gv2 := h.Graph()
		if len(gv2.Offsets) != len(gv1.Offsets) || len(gv2.Edges) != len(gv1.Edges) {
			t.Fatalf("%s: shape mismatch: v2 %d/%d vs v1 %d/%d",
				d.Abbrev, len(gv2.Offsets), len(gv2.Edges), len(gv1.Offsets), len(gv1.Edges))
		}
		for i, o := range gv1.Offsets {
			if gv2.Offsets[i] != o {
				t.Fatalf("%s: Offsets[%d] = %d, want %d", d.Abbrev, i, gv2.Offsets[i], o)
			}
		}
		for i, e := range gv1.Edges {
			if gv2.Edges[i] != e {
				t.Fatalf("%s: Edges[%d] = %d, want %d", d.Abbrev, i, gv2.Edges[i], e)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatalf("%s: close: %v", d.Abbrev, err)
		}
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
	if err := SaveGraphV2(path, prepared); err != nil {
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
// built from edges, preprocessed, or opened from a mapped BCSR v2 file —
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
	if err := SaveGraphV2(path, prepared); err != nil {
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
	for name, gr := range map[string]*Graph{"generated": g, "preprocessed": prepared, "mapped v2": h.Graph(), "literal after a request": literal} {
		if !gr.SortednessKnown() {
			t.Errorf("%s graph: sortedness unknown, so a color request would scan", name)
		}
	}
	if !h.Mapped() {
		t.Log("mapped path unavailable here; the copying reader was checked instead")
	}
}
