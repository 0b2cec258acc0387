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

func TestBinaryV3RoundTrip(t *testing.T) {
	g := v3TestGraph(t, 500, 3000, 7)
	for _, k := range []int{1, 2, 4, 7} {
		for name, parts := range map[string][]int32{
			"ranges":  rangeParts(g.NumVertices(), k),
			"scatter": scatterParts(g.NumVertices(), k),
		} {
			label := fmt.Sprintf("k=%d/%s", k, name)
			img := writeV3(t, g, parts, k, V3PartitionRanges)
			got, meta, err := ReadBinaryV3(bytes.NewReader(img))
			if err != nil {
				t.Fatalf("%s: ReadBinaryV3: %v", label, err)
			}
			sameCSR(t, got, g, label)
			if meta.Shards != k || meta.Strategy != V3PartitionRanges {
				t.Fatalf("%s: meta = %d shards strategy %d", label, meta.Shards, meta.Strategy)
			}
			if meta.SourceHash != ContentHash(g) {
				t.Fatalf("%s: source hash mismatch", label)
			}
			if meta.EdgesSorted != g.EdgesSorted() {
				t.Fatalf("%s: sorted flag mismatch", label)
			}
			for v, p := range parts {
				if meta.Parts[v] != p {
					t.Fatalf("%s: parts[%d] = %d, want %d", label, v, meta.Parts[v], p)
				}
			}
			cut, boundary := v3Totals(g, parts)
			if meta.CutEdges != cut || meta.Boundary != boundary {
				t.Fatalf("%s: totals (%d,%d), want (%d,%d)", label, meta.CutEdges, meta.Boundary, cut, boundary)
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
	img := writeV3(t, g, nil, 1, V3PartitionRanges)
	got, meta, err := ReadBinaryV3(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("ReadBinaryV3: %v", err)
	}
	if got.NumVertices() != 0 || meta.Shards != 1 {
		t.Fatalf("empty graph round-trip: %d vertices, %d shards", got.NumVertices(), meta.Shards)
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
	back, meta, err := LoadBinaryV3File(v3Path)
	if err != nil {
		t.Fatalf("LoadBinaryV3File: %v", err)
	}
	sameCSR(t, back, g, "v2→v3 conversion")
	if meta.SourceHash != ContentHash(g) {
		t.Fatal("conversion changed the content hash")
	}
}

func TestBinaryV3CorruptionDetected(t *testing.T) {
	g := v3TestGraph(t, 200, 1500, 11)
	img := writeV3(t, g, scatterParts(200, 3), 3, V3PartitionRanges)
	cases := []struct {
		name string
		at   int
	}{
		{"header version byte", 5},
		{"header flags", 12},
		{"header shard count", 32},
		{"meta parts byte", binaryV3HeaderSize + 3},
		{"meta directory byte", binaryV3HeaderSize + 200*4 + 16 + 40},
		{"first section byte", 1156},         // inside shard 0's offsets
		{"last section byte", len(img) - 65}, // past the ≤63-byte trailing pad
	}
	for _, tc := range cases {
		bad := append([]byte(nil), img...)
		bad[tc.at] ^= 0x40
		if _, _, err := ReadBinaryV3(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: corruption at byte %d accepted", tc.name, tc.at)
		}
	}
	for _, cut := range []int{binaryV3HeaderSize - 1, binaryV3HeaderSize + 10, len(img) / 2, len(img) - 65} {
		if _, _, err := ReadBinaryV3(bytes.NewReader(img[:cut])); err == nil {
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
			sm, err := sf.MapShard(s)
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
		if _, err := sf.MapShard(0); err == nil {
			t.Fatalf("%s: MapShard after Close succeeded", tc.name)
		}
	}
}

func TestShardedFileMaterialize(t *testing.T) {
	g := v3TestGraph(t, 250, 1800, 17)
	path := writeV3File(t, g, rangeParts(250, 3), 3, V3PartitionRanges)
	sf, err := OpenShardedFile(path)
	if err != nil {
		t.Fatalf("OpenShardedFile: %v", err)
	}
	defer sf.Close()
	got, err := sf.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	sameCSR(t, got, g, "Materialize")
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
		if sm, err := sf.MapShard(s); err != nil {
			failed = true
		} else {
			sm.Close()
		}
	}
	if !failed {
		t.Error("section corruption never detected by MapShard")
	}
	// An older file's boundary blocks are never mapped, but the copying
	// reader still CRC-checks them.
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
	if _, _, err := LoadBinaryV3File(p); err == nil {
		t.Error("boundary-block corruption accepted by the copying reader")
	}
	badSF, err := OpenShardedFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < badSF.Shards(); s++ {
		sm, err := badSF.MapShard(s)
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
		sm, err := sf.MapShard(round % 2)
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
