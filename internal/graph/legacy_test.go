package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The files under testdata were written once by the retired writers:
// legacy.txt is a SNAP edge list, and legacy-v1.bcsr, legacy-v2.bcsr and
// legacy-v3-4shard.bcsr hold the graph that loads from it, the last in
// four range shards with the boundary blocks v3 writers used to emit.
// encodeV1 and encodeV2 rebuild the first two byte for byte, so reader
// tests can make old files of any shape.

// legacyPath names a committed fixture.
func legacyPath(name string) string { return filepath.Join("testdata", name) }

// legacyBytes reads a committed fixture.
func legacyBytes(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(legacyPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// legacySource is the graph every binary fixture holds.
func legacySource(t testing.TB) *CSR {
	t.Helper()
	g, err := LoadEdgeListFile(legacyPath("legacy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// encodeV1 is the retired v1 layout: magic, version, counts, offsets,
// edges, all little-endian.
func encodeV1(g *CSR) []byte {
	b := []byte(binaryMagic)
	for _, x := range []uint64{1, uint64(g.NumVertices()), uint64(len(g.Edges))} {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	for _, o := range g.Offsets {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	for _, e := range g.Edges {
		b = binary.LittleEndian.AppendUint32(b, e)
	}
	return b
}

// encodeV2 is the retired v2 layout with a little-endian payload (see
// the format comment in mmapio.go).
func encodeV2(g *CSR) []byte {
	nv, ne := uint64(g.NumVertices()), uint64(len(g.Edges))
	offsetsOff, edgesOff := v2Layout(nv)
	b := make([]byte, edgesOff+ne*4)
	for i, o := range g.Offsets {
		binary.LittleEndian.PutUint64(b[offsetsOff+8*uint64(i):], uint64(o))
	}
	for i, e := range g.Edges {
		binary.LittleEndian.PutUint32(b[edgesOff+4*uint64(i):], e)
	}
	copy(b[0:4], binaryMagic)
	binary.LittleEndian.PutUint64(b[4:12], binaryV2Version)
	binary.LittleEndian.PutUint64(b[16:24], nv)
	binary.LittleEndian.PutUint64(b[24:32], ne)
	binary.LittleEndian.PutUint64(b[32:40], offsetsOff)
	binary.LittleEndian.PutUint64(b[40:48], edgesOff)
	sum := uint64(crc32.Checksum(b[offsetsOff:offsetsOff+(nv+1)*8], crcTable))<<32 |
		uint64(crc32.Checksum(b[edgesOff:], crcTable))
	binary.LittleEndian.PutUint64(b[48:56], sum)
	rewriteHeaderSum(b)
	return b
}

// TestLegacyFixtures: the reference encoders reproduce the old writers'
// bytes, every copying reader returns the source graph from its
// fixture, and the old four-shard file — boundary blocks and all —
// still opens, maps shard by shard and materializes.
func TestLegacyFixtures(t *testing.T) {
	src := legacySource(t)
	if !bytes.Equal(encodeV1(src), legacyBytes(t, "legacy-v1.bcsr")) {
		t.Fatal("encodeV1 differs from the v1 writer's fixture")
	}
	if !bytes.Equal(encodeV2(src), legacyBytes(t, "legacy-v2.bcsr")) {
		t.Fatal("encodeV2 differs from the v2 writer's fixture")
	}
	v1, err := LoadBinaryFile(legacyPath("legacy-v1.bcsr"))
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, v1, src, "v1 fixture")
	v2, err := LoadBinaryV2File(legacyPath("legacy-v2.bcsr"))
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, v2, src, "v2 fixture")
	v3, meta, err := LoadBinaryV3File(legacyPath("legacy-v3-4shard.bcsr"))
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, v3, src, "v3 fixture")
	if meta.Shards != 4 || meta.SourceHash != ContentHash(src) {
		t.Fatalf("v3 fixture meta: %d shards, hash %#x", meta.Shards, meta.SourceHash)
	}

	sf, err := OpenShardedFile(legacyPath("legacy-v3-4shard.bcsr"))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	withBlocks := 0
	for s := range sf.meta.dir {
		if sf.meta.dir[s].nBoundary > 0 {
			withBlocks++
		}
		sm, err := sf.MapShard(s, 1)
		if err != nil {
			t.Fatalf("MapShard(%d): %v", s, err)
		}
		for i, v := range sm.VMap {
			if !slices.Equal(sm.Neighbors(i), src.Neighbors(v)) {
				t.Fatalf("shard %d vertex %d: adjacency differs from the source", s, v)
			}
		}
		sm.Close()
	}
	if withBlocks == 0 {
		t.Fatal("the old v3 fixture should carry boundary blocks")
	}
	got, err := sf.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, got, src, "v3 fixture materialized")
}
