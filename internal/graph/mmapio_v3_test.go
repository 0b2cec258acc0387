package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// rangeParts assigns vertices to k contiguous ranges — the shape the
// ranges strategy produces.
func rangeParts(n, k int) []int32 {
	parts := make([]int32, n)
	for v := range parts {
		p := v * k / max(n, 1)
		if p >= k {
			p = k - 1
		}
		parts[v] = int32(p)
	}
	return parts
}

// scatterParts assigns vertices round-robin — maximally non-contiguous,
// exercising the binary-search LocalIndex path.
func scatterParts(n, k int) []int32 {
	parts := make([]int32, n)
	for v := range parts {
		parts[v] = int32(v % k)
	}
	return parts
}

func v3TestGraph(t testing.TB, n, m int, seed int64) *CSR {
	t.Helper()
	g, err := FromEdgeList(n, randomEdges(n, m, seed))
	if err != nil {
		t.Fatalf("FromEdgeList: %v", err)
	}
	return g
}

func writeV3(t testing.TB, g *CSR, parts []int32, k int, strategy uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryV3(&buf, g, parts, k, strategy); err != nil {
		t.Fatalf("WriteBinaryV3: %v", err)
	}
	return buf.Bytes()
}

func writeV3File(t testing.TB, g *CSR, parts []int32, k int, strategy uint32) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := SaveBinaryV3File(path, g, parts, k, strategy); err != nil {
		t.Fatalf("SaveBinaryV3File: %v", err)
	}
	return path
}

// openMaterialize is the in-core open of a v3 file: OpenShardedFile,
// then Materialize. It returns the handle, closed again, for its
// metadata and mapping counters.
func openMaterialize(path string) (*CSR, *ShardedFile, error) {
	sf, err := OpenShardedFile(path)
	if err != nil {
		return nil, nil, err
	}
	defer sf.Close()
	g, err := sf.Materialize()
	return g, sf, err
}

// materialize is openMaterialize that fails the test on error.
func materialize(t testing.TB, path string) (*CSR, *ShardedFile) {
	t.Helper()
	g, sf, err := openMaterialize(path)
	if err != nil {
		t.Fatalf("in-core open of %s: %v", filepath.Base(path), err)
	}
	return g, sf
}

// TestBinaryV3RoundTrip writes a graph at several shard counts, with
// range and scattered partitions, and opens each file in core: the
// graph, the persisted partition, totals and sorted flag come back, and
// Materialize maps each shard exactly once and releases it.
func TestBinaryV3RoundTrip(t *testing.T) {
	g := v3TestGraph(t, 500, 3000, 7)
	for _, k := range []int{1, 2, 4, 7} {
		for name, parts := range map[string][]int32{
			"ranges":  rangeParts(g.NumVertices(), k),
			"scatter": scatterParts(g.NumVertices(), k),
		} {
			label := fmt.Sprintf("k=%d/%s", k, name)
			got, sf := materialize(t, writeV3File(t, g, parts, k, V3PartitionRanges))
			sameCSR(t, got, g, label)
			if sf.Shards() != k || sf.Strategy() != V3PartitionRanges {
				t.Fatalf("%s: %d shards strategy %d", label, sf.Shards(), sf.Strategy())
			}
			if sf.SourceHash() != ContentHash(g) {
				t.Fatalf("%s: source hash mismatch", label)
			}
			if sf.hdr.sorted() != g.EdgesSorted() || !got.SortednessKnown() || got.EdgesSorted() != g.EdgesSorted() {
				t.Fatalf("%s: sorted flag mismatch", label)
			}
			if !slices.Equal(sf.Parts(), parts) {
				t.Fatalf("%s: persisted parts differ from the written ones", label)
			}
			cut, boundary := v3Totals(g, parts)
			if sf.CutEdges() != cut || sf.Boundary() != boundary {
				t.Fatalf("%s: totals (%d,%d), want (%d,%d)", label, sf.CutEdges(), sf.Boundary(), cut, boundary)
			}
			if st := sf.Stats(); st.Maps != int64(k) || st.Unmaps != int64(k) || st.ResidentBytes != 0 {
				t.Fatalf("%s: after Materialize %+v, want %d maps and unmaps, nothing resident", label, st, k)
			}
		}
	}
}

// TestV3WritesNoBoundaryBlocks: every directory record a writer emits
// has nBoundary == nbEdges == 0, with the cut totals still persisted.
func TestV3WritesNoBoundaryBlocks(t *testing.T) {
	g := v3TestGraph(t, 300, 2000, 31)
	for _, parts := range [][]int32{rangeParts(300, 4), scatterParts(300, 3)} {
		k := int(slices.Max(parts)) + 1
		sf, err := OpenShardedFile(writeV3File(t, g, parts, k, V3PartitionRanges))
		if err != nil {
			t.Fatal(err)
		}
		if sf.CutEdges() == 0 || sf.Boundary() == 0 {
			t.Fatalf("k=%d: totals (%d, %d), want a cut", k, sf.CutEdges(), sf.Boundary())
		}
		for s, d := range sf.meta.dir {
			if d.nBoundary != 0 || d.nbEdges != 0 {
				t.Fatalf("k=%d shard %d: %d boundary vertices, %d entries; want none", k, s, d.nBoundary, d.nbEdges)
			}
		}
		sf.Close()
	}
}

func TestBinaryV3EmptyGraph(t *testing.T) {
	g, _ := FromEdgeList(0, nil)
	got, sf := materialize(t, writeV3File(t, g, nil, 1, V3PartitionRanges))
	if got.NumVertices() != 0 || got.NumEdges() != 0 || sf.Shards() != 1 {
		t.Fatalf("empty graph round-trip: %d vertices, %d edges, %d shards", got.NumVertices(), got.NumEdges(), sf.Shards())
	}
}

func TestBinaryV3WriterRejects(t *testing.T) {
	g := v3TestGraph(t, 10, 20, 1)
	var buf bytes.Buffer
	if err := WriteBinaryV3(&buf, g, rangeParts(10, 2), 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := WriteBinaryV3(&buf, g, rangeParts(9, 2), 2, 0); err == nil {
		t.Fatal("short parts accepted")
	}
	if err := WriteBinaryV3(&buf, g, []int32{0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, 2, 0); err == nil {
		t.Fatal("out-of-range part accepted")
	}
	if err := WriteBinaryV3(&buf, g, rangeParts(10, 2), 2, 99); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestVertexLists pins the counting-sort views: every part's list is
// ascending, matches the assignment, shares the caller's backing buffer,
// and together the lists cover each vertex exactly once.
func TestVertexLists(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, k = 500, 4
	parts := make([]int32, n)
	for v := range parts {
		parts[v] = int32(rng.Intn(k))
	}
	buf := make([]VertexID, n)
	lists := VertexLists(parts, k, buf)
	if len(lists) != k {
		t.Fatalf("%d lists for K=%d", len(lists), k)
	}
	seen := make([]bool, n)
	total := 0
	for p, list := range lists {
		for i, v := range list {
			if i > 0 && list[i-1] >= v {
				t.Fatalf("part %d not ascending at %d: %d >= %d", p, i, list[i-1], v)
			}
			if int(parts[v]) != p {
				t.Fatalf("vertex %d listed in part %d but assigned %d", v, p, parts[v])
			}
			if seen[v] {
				t.Fatalf("vertex %d listed twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("lists cover %d of %d vertices", total, n)
	}
	if len(lists[0]) > 0 && &lists[0][0] != &buf[0] {
		t.Fatal("VertexLists did not use the caller buffer")
	}
	if fresh := VertexLists(parts, k, nil); !slices.EqualFunc(fresh, lists, slices.Equal[[]VertexID]) {
		t.Fatal("VertexLists without a buffer differs from the buffered lists")
	}
}

func TestSniffFormatV3(t *testing.T) {
	g := v3TestGraph(t, 40, 100, 3)
	path := writeV3File(t, g, rangeParts(40, 2), 2, V3PartitionLabelProp)
	format, err := SniffFormat(path)
	if err != nil {
		t.Fatalf("SniffFormat: %v", err)
	}
	if format != FormatBCSR3 {
		t.Fatalf("SniffFormat = %q, want %q", format, FormatBCSR3)
	}
}

// TestBinaryV3ConversionRoundTrip drives the v2 → v3 conversion shape
// preprocess -convert uses: a graph saved as v2, reloaded, repartitioned
// and saved as v3 must reconstruct the identical CSR.
func TestBinaryV3ConversionRoundTrip(t *testing.T) {
	g := v3TestGraph(t, 300, 2400, 5)
	dir := t.TempDir()
	v2Path := filepath.Join(dir, "g.v2.bcsr")
	if err := os.WriteFile(v2Path, encodeV2(g), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBinaryV2File(v2Path)
	if err != nil {
		t.Fatalf("LoadBinaryV2File: %v", err)
	}
	v3Path := filepath.Join(dir, "g.v3.bcsr")
	if err := SaveBinaryV3File(v3Path, loaded, rangeParts(300, 4), 4, V3PartitionRanges); err != nil {
		t.Fatalf("SaveBinaryV3File: %v", err)
	}
	back, sf := materialize(t, v3Path)
	sameCSR(t, back, g, "v2→v3 conversion")
	if sf.SourceHash() != ContentHash(g) {
		t.Fatal("conversion changed the content hash")
	}
}

// writeBytes writes a file image to a fresh temporary file.
func writeBytes(t testing.TB, img []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "g.bcsr")
	if err := os.WriteFile(p, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBinaryV3CorruptionDetected flips one byte in each layer of a
// three-shard file, and cuts the file at each layer: every in-core open
// fails with the layer's error and leaves no shard mapped.
func TestBinaryV3CorruptionDetected(t *testing.T) {
	g := v3TestGraph(t, 200, 1500, 11)
	img := writeV3(t, g, scatterParts(200, 3), 3, V3PartitionRanges)
	cases := []struct {
		name string
		at   int
		want string
	}{
		{"header version byte", 5, "unsupported version"},
		{"header flags", 12, "v3 header checksum mismatch"},
		{"header shard count", 32, "v3 header checksum mismatch"},
		{"meta parts byte", binaryV3HeaderSize + 3, "v3 meta checksum mismatch"},
		{"meta directory byte", binaryV3HeaderSize + 200*4 + 16 + 40, "v3 meta checksum mismatch"},
		{"first section byte", 1156, "v3 shard 0 section checksum mismatch"},      // inside shard 0's offsets
		{"last section byte", len(img) - 65, "v3 shard 2 vmap checksum mismatch"}, // past the ≤63-byte trailing pad
	}
	for _, tc := range cases {
		bad := append([]byte(nil), img...)
		bad[tc.at] ^= 0x40
		_, sf, err := openMaterialize(writeBytes(t, bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: corruption at byte %d: err = %v, want %q", tc.name, tc.at, err, tc.want)
		}
		if sf != nil {
			checkReleased(t, sf, tc.name)
		}
	}
	for _, cut := range []int{binaryV3HeaderSize - 1, binaryV3HeaderSize + 10, len(img) / 2, len(img) - 65} {
		if _, _, err := openMaterialize(writeBytes(t, img[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestOpenShardedFile(t *testing.T) {
	g := v3TestGraph(t, 400, 2600, 13)
	for _, tc := range []struct {
		name  string
		parts []int32
		k     int
	}{
		{"ranges", rangeParts(400, 4), 4},
		{"scatter", scatterParts(400, 4), 4},
	} {
		path := writeV3File(t, g, tc.parts, tc.k, V3PartitionRanges)
		sf, err := OpenShardedFile(path)
		if err != nil {
			t.Fatalf("%s: OpenShardedFile: %v", tc.name, err)
		}
		if sf.NumVertices() != 400 || sf.NumEdges() != g.NumEdges() || sf.Shards() != tc.k {
			t.Fatalf("%s: shape %d/%d/%d", tc.name, sf.NumVertices(), sf.NumEdges(), sf.Shards())
		}
		cut, boundary := v3Totals(g, tc.parts)
		if sf.CutEdges() != cut || sf.Boundary() != boundary {
			t.Fatalf("%s: totals (%d,%d), want (%d,%d)", tc.name, sf.CutEdges(), sf.Boundary(), cut, boundary)
		}
		for s := 0; s < tc.k; s++ {
			sm, err := sf.MapShard(s, 1)
			if err != nil {
				t.Fatalf("%s: MapShard(%d): %v", tc.name, s, err)
			}
			for i, v := range sm.VMap {
				if tc.parts[v] != int32(s) {
					t.Fatalf("%s: shard %d holds foreign vertex %d", tc.name, s, v)
				}
				j, ok := sm.LocalIndex(v)
				if !ok || j != i {
					t.Fatalf("%s: LocalIndex(%d) = %d,%v want %d", tc.name, v, j, ok, i)
				}
				want := g.Neighbors(v)
				got := sm.Neighbors(i)
				if len(got) != len(want) {
					t.Fatalf("%s: shard %d vertex %d degree %d, want %d", tc.name, s, v, len(got), len(want))
				}
				for x := range want {
					if got[x] != want[x] {
						t.Fatalf("%s: shard %d vertex %d adjacency differs at %d", tc.name, s, v, x)
					}
				}
			}
			if err := sm.Close(); err != nil {
				t.Fatalf("%s: ShardMap.Close: %v", tc.name, err)
			}
		}
		st := sf.Stats()
		if st.Maps == 0 || st.Maps != st.Unmaps {
			t.Fatalf("%s: stats maps=%d unmaps=%d", tc.name, st.Maps, st.Unmaps)
		}
		if st.ResidentBytes != 0 || st.PeakResidentBytes <= 0 {
			t.Fatalf("%s: stats resident=%d peak=%d", tc.name, st.ResidentBytes, st.PeakResidentBytes)
		}
		if err := sf.Close(); err != nil {
			t.Fatalf("%s: Close: %v", tc.name, err)
		}
		if _, err := sf.MapShard(0, 1); err == nil {
			t.Fatalf("%s: MapShard after Close succeeded", tc.name)
		}
	}
}

// TestShardedFileMaterialize: the in-core open of a multi-shard file
// maps each shard once and releases it, range and scattered partitions
// alike, and fails once the handle is closed.
func TestShardedFileMaterialize(t *testing.T) {
	g := v3TestGraph(t, 250, 1800, 17)
	for name, parts := range map[string][]int32{"ranges": rangeParts(250, 3), "scatter": scatterParts(250, 3)} {
		sf, err := OpenShardedFile(writeV3File(t, g, parts, 3, V3PartitionRanges))
		if err != nil {
			t.Fatalf("%s: OpenShardedFile: %v", name, err)
		}
		got, err := sf.Materialize()
		if err != nil {
			t.Fatalf("%s: Materialize: %v", name, err)
		}
		sameCSR(t, got, g, name)
		st := sf.Stats()
		if st.Maps != 3 || st.Unmaps != 3 || st.ResidentBytes != 0 || st.PeakResidentBytes <= 0 {
			t.Fatalf("%s: after Materialize %+v, want 3 maps and unmaps, nothing resident", name, st)
		}
		sf.Close()
		if _, err := sf.Materialize(); err == nil {
			t.Fatalf("%s: Materialize after Close succeeded", name)
		}
	}
}

// sealV3Meta recomputes a v3 image's meta CRC32-C and header FNV-1a
// after an edit to its header or meta section.
func sealV3Meta(img []byte) {
	nv, k := binary.LittleEndian.Uint64(img[16:24]), binary.LittleEndian.Uint32(img[32:36])
	meta := img[binaryV3HeaderSize : binaryV3HeaderSize+v3MetaLen(nv, k)]
	binary.LittleEndian.PutUint32(img[48:52], crc32.Checksum(meta, crcTable))
	rewriteHeaderSum(img)
}

// TestV3WholeGraphChecks: behind valid checksums, a header or meta
// field that disagrees with the shards' lists fails only the in-core
// open's whole-graph checks — the sorted flag, the source hash and the
// persisted totals — each with its own error, after every shard was
// mapped once and released.
func TestV3WholeGraphChecks(t *testing.T) {
	g := v3TestGraph(t, 300, 2000, 37)
	parts := rangeParts(300, 4)
	img := writeV3(t, g, parts, 4, V3PartitionRanges)
	hash := ContentHash(g)
	cut, boundary := v3Totals(g, parts)
	totals := binaryV3HeaderSize + int(v3MetaLen(300, 4)) - 4*binaryV3DirRecord - 16
	for _, tc := range []struct {
		name string
		edit func(b []byte)
		want string
	}{
		{"sorted flag", func(b []byte) { b[12] ^= byte(binaryV3FlagSorted) },
			"graph: v3 sorted flag false disagrees with payload"},
		{"source hash", func(b []byte) { binary.LittleEndian.PutUint64(b[40:], hash+1) },
			fmt.Sprintf("graph: v3 source hash mismatch (got %#x, want %#x)", hash, hash+1)},
		{"cut edges", func(b []byte) { binary.LittleEndian.PutUint64(b[totals:], uint64(cut-1)) },
			fmt.Sprintf("graph: v3 totals (%d cut, %d boundary) disagree with payload (%d, %d)", cut-1, boundary, cut, boundary)},
		{"boundary", func(b []byte) { binary.LittleEndian.PutUint64(b[totals+8:], uint64(boundary-1)) },
			fmt.Sprintf("graph: v3 totals (%d cut, %d boundary) disagree with payload (%d, %d)", cut, boundary-1, cut, boundary)},
	} {
		bad := slices.Clone(img)
		tc.edit(bad)
		sealV3Meta(bad)
		_, sf, err := openMaterialize(writeBytes(t, bad))
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if st := sf.Stats(); st.Maps != 4 || st.Unmaps != 4 || st.ResidentBytes != 0 {
			t.Fatalf("%s: after the failed open %+v, want 4 maps and unmaps, nothing resident", tc.name, st)
		}
	}
}

func TestOpenShardedFileRejectsCorruption(t *testing.T) {
	g := v3TestGraph(t, 120, 900, 19)
	path := writeV3File(t, g, rangeParts(120, 2), 2, V3PartitionRanges)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(t *testing.T, at int) string {
		bad := append([]byte(nil), img...)
		bad[at] ^= 0x20
		p := filepath.Join(t.TempDir(), "bad.bcsr")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Header and meta corruption fail at open.
	for _, at := range []int{8, binaryV3HeaderSize + 1, binaryV3HeaderSize + 120*4 + 16 + 8} {
		if sf, err := OpenShardedFile(flip(t, at)); err == nil {
			sf.Close()
			t.Errorf("corruption at byte %d accepted at open", at)
		}
	}
	// Section corruption fails at MapShard time: flip a byte of the
	// last shard's edges.
	valid, err := OpenShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := int(valid.meta.dir[valid.Shards()-1].edgesOff) + 8
	valid.Close()
	sf, err := OpenShardedFile(flip(t, at))
	if err != nil {
		t.Fatalf("open with section corruption: %v", err)
	}
	defer sf.Close()
	failed := false
	for s := 0; s < sf.Shards(); s++ {
		if sm, err := sf.MapShard(s, 1); err != nil {
			failed = true
		} else {
			sm.Close()
		}
	}
	if !failed {
		t.Error("section corruption never detected by MapShard")
	}
	// An older file's boundary blocks are never mapped, but Materialize
	// still CRC-checks them.
	old := legacyBytes(t, "legacy-v3-4shard.bcsr")
	oldSF, err := OpenShardedFile(legacyPath("legacy-v3-4shard.bcsr"))
	if err != nil {
		t.Fatal(err)
	}
	d := oldSF.meta.dir[oldSF.Shards()-1]
	oldSF.Close()
	if d.nBoundary == 0 {
		t.Fatal("the old fixture's last shard should carry a boundary block")
	}
	old[d.bndOff+8] ^= 0x20
	p := filepath.Join(t.TempDir(), "old-bad.bcsr")
	if err := os.WriteFile(p, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, matSF, err := openMaterialize(p)
	if err == nil || !strings.Contains(err.Error(), "v3 shard 3 section checksum mismatch") {
		t.Errorf("boundary-block corruption: Materialize err = %v, want a shard 3 checksum mismatch", err)
	}
	checkReleased(t, matSF, "boundary-block corruption")
	badSF, err := OpenShardedFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < badSF.Shards(); s++ {
		sm, err := badSF.MapShard(s, 1)
		if err != nil {
			t.Errorf("MapShard(%d) read a boundary block: %v", s, err)
			continue
		}
		sm.Close()
	}
	badSF.Close()
	// Truncated file fails at open.
	p = filepath.Join(t.TempDir(), "trunc.bcsr")
	if err := os.WriteFile(p, img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if sf, err := OpenShardedFile(p); err == nil {
		sf.Close()
		t.Error("truncated file accepted at open")
	}
}

// TestMappedCSRConcurrentClose is the regression test for the
// double-Close hazard: racing Closes must never reach a second munmap.
// Run under -race this also proves the arbitration is data-race free.
func TestMappedCSRConcurrentClose(t *testing.T) {
	path := writeOneShard(t, v3TestGraph(t, 100, 600, 23))
	for round := 0; round < 20; round++ {
		m := mapOneShard(t, path)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := m.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestShardMapConcurrentClose proves the hardened close path carries
// over to the v3 shard maps.
func TestShardMapConcurrentClose(t *testing.T) {
	g := v3TestGraph(t, 200, 1400, 29)
	path := writeV3File(t, g, rangeParts(200, 2), 2, V3PartitionRanges)
	sf, err := OpenShardedFile(path)
	if err != nil {
		t.Fatalf("OpenShardedFile: %v", err)
	}
	defer sf.Close()
	for round := 0; round < 10; round++ {
		sm, err := sf.MapShard(round%2, 2)
		if err != nil {
			t.Fatalf("MapShard: %v", err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := sm.Close(); err != nil {
					t.Errorf("ShardMap.Close: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	if st := sf.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("resident bytes %d after all maps closed", st.ResidentBytes)
	}
}

// TestSumDescents holds the fused checksum-and-count pass to
// crc32.Checksum and a plain descent count, across chunk boundaries
// and on bytes it cannot alias (an odd start address).
func TestSumDescents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 8191, 8192, 8193, 3*8192 + 5} {
		es := make([]VertexID, n)
		for i := range es {
			es[i] = VertexID(rng.Intn(50))
		}
		raw := make([]byte, 1+4*n)
		for i, e := range es {
			binary.LittleEndian.PutUint32(raw[1+4*i:], e)
		}
		want := 0
		for i := 1; i < n; i++ {
			if es[i] < es[i-1] {
				want++
			}
		}
		aligned := append([]byte(nil), raw[1:]...)
		for label, b := range map[string][]byte{"aligned": aligned, "unaligned": raw[1:]} {
			sum, desc := sumDescents(b)
			if sum != crc32.Checksum(b, crcTable) || desc != want {
				t.Fatalf("n=%d %s: sum %#x desc %d, want %#x and %d", n, label, sum, desc, crc32.Checksum(b, crcTable), want)
			}
		}
	}
}
