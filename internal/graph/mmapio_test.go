package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// randomV2Graph builds a deterministic random graph for v2 I/O tests.
func randomV2Graph(t *testing.T, n, m int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{U: VertexID(rng.Intn(n)), V: VertexID(rng.Intn(n))})
	}
	g, err := FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sameCSR(t *testing.T, got, want *CSR, label string) {
	t.Helper()
	if len(got.Offsets) != len(want.Offsets) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: shape %d/%d, want %d/%d", label,
			len(got.Offsets), len(got.Edges), len(want.Offsets), len(want.Edges))
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: Offsets[%d] = %d, want %d", label, i, got.Offsets[i], want.Offsets[i])
		}
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: Edges[%d] = %d, want %d", label, i, got.Edges[i], want.Edges[i])
		}
	}
}

func TestBinaryV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *CSR
	}{
		{"empty", &CSR{Offsets: []int64{0}, Edges: []VertexID{}}},
		{"single", randomV2Graph(t, 1, 0, 1)},
		{"small", randomV2Graph(t, 17, 40, 2)},
		{"medium", randomV2Graph(t, 500, 3000, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadBinaryV2(bytes.NewReader(encodeV2(tc.g)))
			if err != nil {
				t.Fatal(err)
			}
			sameCSR(t, got, tc.g, "copying reader")
		})
	}
}

// writeOneShard saves g with SaveCSRFile under the test's temp dir.
func writeOneShard(t testing.TB, g *CSR) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := SaveCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// mapOneShard is MapCSRFile, failing the test on error.
func mapOneShard(t testing.TB, path string) *MappedCSR {
	t.Helper()
	m, err := MapCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMapCSR: a one-shard file maps as the whole graph in place, with
// its sortedness counted from the data, its bytes charged to the
// handle's residency counters until Close, and a multi-shard file
// refused.
func TestMapCSR(t *testing.T) {
	g := randomV2Graph(t, 300, 2000, 5)
	sf, err := OpenShardedFile(writeOneShard(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	m, err := sf.MapCSR()
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && !m.Mapped() {
		t.Error("expected the zero-copy mapping on linux")
	}
	mg := m.Graph()
	if mg.Backed() != m.Mapped() {
		t.Errorf("Backed %v, Mapped %v: want equal", mg.Backed(), m.Mapped())
	}
	sameCSR(t, mg, g, "mapped view")
	if !mg.SortednessKnown() || !mg.EdgesSorted() {
		t.Error("mapped graph should record its sorted lists")
	}
	if err := mg.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := sf.Stats(); st.Maps != 1 || st.Unmaps != 0 || st.ResidentBytes <= 0 {
		t.Errorf("open mapped CSR: %+v, want one map resident", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sf.Stats(); st.Maps != st.Unmaps || st.ResidentBytes != 0 {
		t.Errorf("closed mapped CSR: %+v, want maps == unmaps and nothing resident", st)
	}

	multi, err := OpenShardedFile(writeV3File(t, g, rangeParts(300, 2), 2, V3PartitionRanges))
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	if m, err := multi.MapCSR(); err == nil {
		m.Close()
		t.Error("MapCSR accepted a two-shard file")
	}
}

func TestMappedCSRUseAfterClose(t *testing.T) {
	m := mapOneShard(t, writeOneShard(t, randomV2Graph(t, 20, 40, 6)))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Graph() after Close did not panic")
		}
	}()
	_ = m.Graph()
}

// corruptV2 returns a valid v2 image and helpers to corrupt it.
func corruptV2(t *testing.T) []byte {
	t.Helper()
	return encodeV2(randomV2Graph(t, 50, 200, 7))
}

// rewriteHeaderSum recomputes the header checksum after a deliberate
// field edit, so the test exercises the *payload* or layout check
// rather than tripping on the header checksum first.
func rewriteHeaderSum(b []byte) {
	binary.LittleEndian.PutUint64(b[56:64], fnv1a(fnvOffset64, b[:56]))
}

func TestBinaryV2CorruptInputs(t *testing.T) {
	valid := corruptV2(t)
	cases := map[string]func([]byte) []byte{
		"flipped payload byte": func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		},
		"bad header checksum": func(b []byte) []byte {
			b[57] ^= 0xff
			return b
		},
		"flipped endianness flag": func(b []byte) []byte {
			// Without fixing the header checksum: tampering must be caught.
			b[12] ^= byte(binaryV2FlagBigEndian)
			return b
		},
		"truncated header":  func(b []byte) []byte { return b[:40] },
		"truncated offsets": func(b []byte) []byte { return b[:binaryV2HeaderSize+8] },
		"truncated edges":   func(b []byte) []byte { return b[:len(b)-3] },
		"misaligned offsets section": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:40], 72) // not 64-aligned
			rewriteHeaderSum(b)
			return b
		},
		"inconsistent section layout": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[40:48], binary.LittleEndian.Uint64(b[40:48])+binaryV2Align)
			rewriteHeaderSum(b)
			return b
		},
		"v1 magic confusion": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[4:12], 1) // claims v1 in a v2 image
			rewriteHeaderSum(b)
			return b
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			data := corrupt(append([]byte(nil), valid...))
			if _, err := ReadBinaryV2(bytes.NewReader(data)); err == nil {
				t.Error("ReadBinaryV2 accepted corrupt input")
			}
		})
	}
}

// TestBinaryV2BigEndianPayload verifies a foreign-byte-order file is
// decoded by the copying reader.
func TestBinaryV2BigEndianPayload(t *testing.T) {
	g := randomV2Graph(t, 30, 80, 8)
	b := encodeV2(g)
	offsetsOff := binary.LittleEndian.Uint64(b[32:40])
	edgesOff := binary.LittleEndian.Uint64(b[40:48])
	// Byte-swap both sections in place and re-checksum.
	for i := offsetsOff; i < offsetsOff+uint64(len(g.Offsets))*8; i += 8 {
		binary.BigEndian.PutUint64(b[i:], uint64(g.Offsets[(i-offsetsOff)/8]))
	}
	for i := edgesOff; i < edgesOff+uint64(len(g.Edges))*4; i += 4 {
		binary.BigEndian.PutUint32(b[i:], g.Edges[(i-edgesOff)/4])
	}
	binary.LittleEndian.PutUint32(b[12:16], binaryV2FlagBigEndian)
	payloadSum := uint64(crc32.Checksum(b[offsetsOff:offsetsOff+uint64(len(g.Offsets))*8], crcTable))<<32 |
		uint64(crc32.Checksum(b[edgesOff:edgesOff+uint64(len(g.Edges))*4], crcTable))
	binary.LittleEndian.PutUint64(b[48:56], payloadSum)
	rewriteHeaderSum(b)

	got, err := ReadBinaryV2(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("copying reader on BE payload: %v", err)
	}
	sameCSR(t, got, g, "big-endian decode")
}

func TestSniffFormat(t *testing.T) {
	dir := t.TempDir()
	g := randomV2Graph(t, 10, 20, 9)
	v1, v2 := legacyPath("legacy-v1.bcsr"), legacyPath("legacy-v2.bcsr")
	el := filepath.Join(dir, "g.txt")
	f, err := os.Create(el)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("BCSR"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := filepath.Join(dir, "future.bcsr")
	fb := append([]byte(binaryMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(fb[4:], 99)
	if err := os.WriteFile(future, fb, 0o644); err != nil {
		t.Fatal(err)
	}

	for path, want := range map[string]string{
		v1: FormatBCSR1, v2: FormatBCSR2, el: FormatEdgeList, short: FormatEdgeList,
	} {
		got, err := SniffFormat(path)
		if err != nil {
			t.Errorf("SniffFormat(%s): %v", path, err)
		} else if got != want {
			t.Errorf("SniffFormat(%s) = %q, want %q", path, got, want)
		}
	}
	if _, err := SniffFormat(future); err == nil ||
		!strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("SniffFormat on future version: err = %v, want unsupported-version error", err)
	}
}

// TestSaveAtomicLeavesNoTemp checks the atomic writers rename cleanly
// and a failed write leaves the original file untouched.
func TestSaveAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	g := randomV2Graph(t, 10, 20, 10)
	path := filepath.Join(dir, "g.bcsr")
	if err := SaveCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A writer that fails must not clobber the existing file.
	if err := saveAtomic(path, func(io.Writer) error { return os.ErrInvalid }); err == nil {
		t.Fatal("saveAtomic with failing writer did not error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, after) {
		t.Fatal("failed save clobbered the target file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}
