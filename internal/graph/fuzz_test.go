package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic and must only return
// structurally valid graphs.

// FuzzReadEdgeList holds the edge-list loader to the parser and CSR build
// it replaced (checkEdgeListMatchesReference).
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 5\n")
	f.Add("999999999999 0\n")
	f.Add("a b\n")
	f.Add("")
	f.Add("% header\r\n0 1\r\n1 2\r\n\r\n2 0\r\n")            // CRLF
	f.Add("0\t1\n\t1 \t2\t\n2\v0\f\n")                        // tabs and other ASCII blanks
	f.Add("0\u00a01\n1 2\u00a0\n\u00a03 4\n3\u20035\n")       // Unicode separators
	f.Add("00000000000000000001 2\n12345678901234567890 1\n") // 20-digit IDs
	f.Add("18446744073709551615 0\n0 1\n")                    // 2^64-1
	f.Add("0 1\n18446744073709551616 0\n")                    // 2^64: out of range
	f.Add("0 1\n1 2\n4294967296 0\n2 3\n4294967296 3\n")      // an ID of 2^32 mid-file
	f.Add("1000000000 1000000007\n1000000007 1999999999\n1999999999 1000000000\n")
	f.Add("0 1 0.5\n1 2 x y\n0 1x\n") // extra fields, then a bad ID
	f.Fuzz(checkEdgeListMatchesReference)
}

// The differential check on the two inputs too large for the fuzz seed
// corpus: as seeds they stall the fuzzer for seconds at a time while it
// minimizes their descendants.
func TestReadEdgeListMatchesReference(t *testing.T) {
	for name, input := range map[string]string{
		"benchmark-shaped": gdShapedEdgeList(t, 1500, 4), // past edgeProbeCap
		"line over 1 MiB":  "0 1\n1 " + strings.Repeat("2", 1<<20) + "\n",
	} {
		t.Run(name, func(t *testing.T) { checkEdgeListMatchesReference(t, input) })
	}
}

// checkEdgeListMatchesReference asserts that ReadEdges returns the
// reference parser's vertex count, densified edges and line count, or
// its error text, whether or not the reader reports its length; and that
// FromEdgeList then builds the reference build's CSR byte for byte.
func checkEdgeListMatchesReference(t *testing.T, input string) {
	wantN, wantEdges, wantLines, wantErr := referenceReadEdges(strings.NewReader(input))
	for _, r := range []io.Reader{strings.NewReader(input), struct{ io.Reader }{strings.NewReader(input)}} {
		n, edges, lines, err := ReadEdges(r)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if n != wantN || lines != wantLines || !slices.Equal(edges, wantEdges) {
			t.Fatalf("parsed n=%d lines=%d (%d edges), reference n=%d lines=%d (%d edges)",
				n, lines, len(edges), wantN, wantLines, len(wantEdges))
		}
	}
	if wantErr != nil {
		return
	}
	g, err := FromEdgeList(wantN, wantEdges)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceFromEdgeList(wantN, wantEdges)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, want, g, "edge-list CSR")
	if err := g.Validate(); err != nil {
		t.Fatalf("parser returned invalid graph: %v", err)
	}
	if g.HasSelfLoops() {
		t.Fatal("parser returned self loops")
	}
	if !g.IsUndirected() {
		t.Fatal("parser returned asymmetric graph")
	}
}

// gdShapedEdgeList writes a preferential-attachment graph the way the
// benchmark writes its GD stand-ins: each undirected edge once as "u v",
// u < v, sources ascending.
func gdShapedEdgeList(tb testing.TB, n, k int) string {
	rng := rand.New(rand.NewSource(1))
	var ends []VertexID // one entry per edge end: degree-proportional sampling
	var edges []Edge
	for v := k; v < n; v++ {
		for i := 0; i < k; i++ {
			u := VertexID(rng.Intn(k))
			if len(ends) > 0 {
				u = ends[rng.Intn(len(ends))]
			}
			edges = append(edges, Edge{U: u, V: VertexID(v)})
			ends = append(ends, u, VertexID(v))
		}
	}
	g, err := FromEdgeList(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

func FuzzReadBinary(f *testing.F) {
	// Seed with the v1 writer's fixture and some corruptions.
	valid := legacyBytes(f, "legacy-v1.bcsr")
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte("BCSR"))
	f.Add([]byte{})
	// Headers that lie: huge vertex/edge counts over a tiny payload, a
	// version from the future, counts right at the sanity caps, and an
	// offsets array inconsistent with the claimed edge count. None may
	// panic or balloon memory; all must error.
	lying := func(version, nv, ne uint64) []byte {
		b := []byte(binaryMagic)
		b = binary.LittleEndian.AppendUint64(b, version)
		b = binary.LittleEndian.AppendUint64(b, nv)
		b = binary.LittleEndian.AppendUint64(b, ne)
		return b
	}
	f.Add(lying(1, 1<<60, 8))
	f.Add(lying(1, 8, 1<<60))
	f.Add(lying(2, 4, 4))
	f.Add(lying(1, binaryMaxVertices, 0))
	f.Add(append(lying(1, 0, 5), make([]byte, 8)...)) // Offsets[0] = 0 != ne
	f.Add(valid[:len(valid)-9])                       // cut inside the edge payload
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("binary reader returned invalid graph: %v", err)
		}
	})
}

// FuzzReadBinaryV2 exercises the v2 parser with both corrupted real
// images (seeded from the v2 writer's fixture) and fabricated headers:
// bad checksums, truncated sections, misaligned section offsets,
// flipped endianness flags, and v1/v2 magic confusion must all fail
// with explicit errors — never a panic or a silent misparse.
func FuzzReadBinaryV2(f *testing.F) {
	valid := legacyBytes(f, "legacy-v2.bcsr")
	mut := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		edit(b)
		return b
	}
	f.Add(valid)
	f.Add(mut(func(b []byte) { b[len(b)-1] ^= 0xff }))                         // payload checksum
	f.Add(mut(func(b []byte) { b[57] ^= 0xff }))                               // header checksum
	f.Add(mut(func(b []byte) { b[12] ^= byte(binaryV2FlagBigEndian) }))        // flipped endianness flag
	f.Add(mut(func(b []byte) { binary.LittleEndian.PutUint64(b[4:12], 1) }))   // v1 version in v2 image
	f.Add(mut(func(b []byte) { binary.LittleEndian.PutUint64(b[32:40], 72) })) // misaligned offsets section
	f.Add(mut(func(b []byte) { binary.LittleEndian.PutUint64(b[40:48], 1<<40|64) }) /* far-away edges */)
	f.Add(valid[:binaryV2HeaderSize])   // truncated: header only
	f.Add(valid[:binaryV2HeaderSize+8]) // truncated offsets
	f.Add(valid[:len(valid)-3])         // truncated edges
	f.Add(valid[:40])                   // truncated header
	// A v1 image fed to the v2 parser (magic confusion the other way).
	f.Add(legacyBytes(f, "legacy-v1.bcsr"))
	// Fabricated header with absurd counts.
	lyingV2 := func(nv, ne uint64) []byte {
		b := make([]byte, binaryV2HeaderSize)
		copy(b[0:4], binaryMagic)
		binary.LittleEndian.PutUint64(b[4:12], binaryV2Version)
		binary.LittleEndian.PutUint64(b[16:24], nv)
		binary.LittleEndian.PutUint64(b[24:32], ne)
		off, eoff := v2Layout(nv)
		binary.LittleEndian.PutUint64(b[32:40], off)
		binary.LittleEndian.PutUint64(b[40:48], eoff)
		binary.LittleEndian.PutUint64(b[56:64], fnv1a(fnvOffset64, b[:56]))
		return b
	}
	f.Add(lyingV2(1<<60, 8))
	f.Add(lyingV2(8, 1<<60))
	f.Add(lyingV2(binaryMaxVertices, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinaryV2(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The reader validated the payload, which records sortedness.
		if !g.SortednessKnown() || g.EdgesSorted() != g.scanSorted() {
			t.Fatalf("recorded sortedness %v disagrees with a scan (%v)", g.EdgesSorted(), g.scanSorted())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("v2 reader returned invalid graph: %v", err)
		}
	})
}

// FuzzReadBinaryV3 mirrors the v2 fuzz matrix for the shard-major
// format: corrupted real images (header/meta/directory/section bit
// flips, bad strategy codes, flipped flags), truncations at every
// layer, cross-version confusion, and fabricated headers with absurd
// counts must all fail with explicit errors — never a panic, a memory
// balloon, or a silent misparse. Whatever the copying reader accepts,
// the random-access OpenShardedFile path must accept too and agree on
// the shape, and a one-shard file must map as the same graph.
func FuzzReadBinaryV3(f *testing.F) {
	g, _ := FromEdgeList(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 0, V: 5}})
	parts := []int32{0, 0, 0, 1, 1, 1}
	var buf bytes.Buffer
	if err := WriteBinaryV3(&buf, g, parts, 2, V3PartitionRanges); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	mut := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		edit(b)
		return b
	}
	f.Add(valid)
	f.Add(mut(func(b []byte) { b[57] ^= 0xff }))                               // header checksum
	f.Add(mut(func(b []byte) { b[12] ^= byte(binaryV3FlagBigEndian) }))        // flipped endianness flag
	f.Add(mut(func(b []byte) { b[13] ^= 0x01 }))                               // unknown flag bit
	f.Add(mut(func(b []byte) { binary.LittleEndian.PutUint64(b[4:12], 2) }))   // v2 version in v3 image
	f.Add(mut(func(b []byte) { binary.LittleEndian.PutUint32(b[32:36], 0) }))  // zero shards
	f.Add(mut(func(b []byte) { binary.LittleEndian.PutUint32(b[36:40], 99) })) // unknown strategy
	f.Add(mut(func(b []byte) { b[44] ^= 0xff }))                               // source hash
	f.Add(mut(func(b []byte) { b[binaryV3HeaderSize+2] ^= 0xff }))             // parts array (meta CRC)
	f.Add(mut(func(b []byte) { b[binaryV3HeaderSize+6*4+16+8] ^= 0xff }))      // directory record
	f.Add(mut(func(b []byte) { b[128+8] ^= 0xff }))                            // section payload
	f.Add(mut(func(b []byte) { b[len(b)-65] ^= 0xff }))                        // last section
	f.Add(valid[:binaryV3HeaderSize])                                          // truncated: header only
	f.Add(valid[:binaryV3HeaderSize+4])                                        // truncated parts
	f.Add(valid[:binaryV3HeaderSize+40])                                       // truncated directory
	f.Add(valid[:len(valid)/2])                                                // truncated sections
	f.Add(valid[:40])                                                          // truncated header
	// A v2 image fed to the v3 parser (version confusion the other way).
	f.Add(legacyBytes(f, "legacy-v2.bcsr"))
	// Fabricated headers with valid FNV sums and absurd counts: the
	// chunked meta read must hit EOF before any count-sized allocation.
	lyingV3 := func(nv, ne uint64, shards, strategy uint32) []byte {
		b := make([]byte, binaryV3HeaderSize)
		copy(b[0:4], binaryMagic)
		binary.LittleEndian.PutUint64(b[4:12], binaryV3Version)
		binary.LittleEndian.PutUint64(b[16:24], nv)
		binary.LittleEndian.PutUint64(b[24:32], ne)
		binary.LittleEndian.PutUint32(b[32:36], shards)
		binary.LittleEndian.PutUint32(b[36:40], strategy)
		binary.LittleEndian.PutUint64(b[56:64], fnv1a(fnvOffset64, b[:56]))
		return b
	}
	f.Add(lyingV3(1<<60, 8, 2, 0))
	f.Add(lyingV3(8, 1<<60, 2, 0))
	f.Add(lyingV3(binaryMaxVertices, 0, 1<<19, 1))
	f.Add(lyingV3(6, 10, 1<<30, 0))
	// A one-shard image, the zero-copy layout, and a file from before
	// v3 writers dropped the boundary blocks.
	var one bytes.Buffer
	if err := WriteBinaryV3(&one, g, make([]int32, 6), 1, V3PartitionRanges); err != nil {
		f.Fatal(err)
	}
	f.Add(one.Bytes())
	f.Add(legacyBytes(f, "legacy-v3-4shard.bcsr"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, meta, err := ReadBinaryV3(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("v3 reader returned invalid graph: %v", err)
		}
		if len(meta.Parts) != g.NumVertices() {
			t.Fatalf("v3 reader returned %d parts for %d vertices", len(meta.Parts), g.NumVertices())
		}
		// Whatever the copying reader accepts, the random-access path
		// must accept too and agree on the shape.
		path := filepath.Join(t.TempDir(), "fuzz.bcsr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := OpenShardedFile(path)
		if err != nil {
			t.Fatalf("OpenShardedFile rejected bytes ReadBinaryV3 accepted: %v", err)
		}
		defer sf.Close()
		if sf.NumVertices() != g.NumVertices() || sf.NumEdges() != g.NumEdges() ||
			sf.Shards() != meta.Shards || sf.SourceHash() != meta.SourceHash {
			t.Fatal("sharded handle disagrees with copying reader")
		}
		for s := 0; s < sf.Shards(); s++ {
			sm, err := sf.MapShard(s)
			if err != nil {
				t.Fatalf("MapShard(%d) rejected a file ReadBinaryV3 accepted: %v", s, err)
			}
			sm.Close()
		}
		if sf.Shards() == 1 {
			m, err := sf.MapCSR()
			if err != nil {
				t.Fatalf("MapCSR rejected a file ReadBinaryV3 accepted: %v", err)
			}
			defer m.Close()
			mg := m.Graph()
			if !slices.Equal(mg.Offsets, g.Offsets) || !slices.Equal(mg.Edges, g.Edges) ||
				mg.EdgesSorted() != g.scanSorted() {
				t.Fatal("mapped one-shard graph disagrees with the copying reader")
			}
		}
	})
}

// FuzzBinaryRoundTrip builds a graph from fuzzed edge bytes and requires
// a one-shard v3 file to reproduce it exactly through both the copying
// reader and the mapped open.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint16(4), []byte{0, 1, 2, 3, 1, 2})
	f.Add(uint16(1), []byte{0, 0})
	f.Add(uint16(200), []byte{7, 7, 3, 9})
	f.Fuzz(func(t *testing.T, n uint16, raw []byte) {
		nv := int(n)
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{U: VertexID(raw[i]), V: VertexID(raw[i+1])})
		}
		g, err := FromEdgeList(nv, edges)
		if err != nil {
			return // out-of-range vertex for this nv: not a round-trip case
		}
		path := writeOneShard(t, g)
		got, _, err := LoadBinaryV3File(path)
		if err != nil {
			t.Fatalf("decode of a freshly encoded graph: %v", err)
		}
		m := mapOneShard(t, path)
		defer m.Close()
		for label, c := range map[string]*CSR{"copying reader": got, "mapped": m.Graph()} {
			if !slices.Equal(c.Offsets, g.Offsets) || !slices.Equal(c.Edges, g.Edges) {
				t.Fatalf("%s: round trip changed the graph", label)
			}
		}
	})
}
