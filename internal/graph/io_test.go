package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	input := `# SNAP-style comment
% matrix-market-style comment
0 1
1 2
2 0

10 11
`
	g, lines, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if lines != 4 {
		t.Fatalf("lines = %d, want 4", lines)
	}
	// IDs are densified: 0,1,2,10,11 → 0..4.
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.UndirectedEdgeCount() != 4 {
		t.Fatalf("edges = %d, want 4", g.UndirectedEdgeCount())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 4) {
		t.Fatal("expected edges missing after densification")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "0 b\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperExample(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.UndirectedEdgeCount() != g.UndirectedEdgeCount() {
		t.Fatalf("round trip changed shape: %s vs %s", g, g2)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	edges := make([]Edge, 2000)
	for i := range edges {
		edges[i] = Edge{U: VertexID(rng.Intn(n)), V: VertexID(rng.Intn(n))}
	}
	g, err := FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(bytes.NewReader(encodeV1(g)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Offsets, g2.Offsets) || !reflect.DeepEqual(g.Edges, g2.Edges) {
		t.Fatal("binary round trip changed the graph")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated payload.
	b := encodeV1(paperExample(t))
	trunc := b[:len(b)-3]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// Corrupt headers must fail with a specific, explanatory error — and
// must do so without attempting the allocation the lying counts imply.
func TestBinaryCorruptHeaderErrors(t *testing.T) {
	hdr := func(version, nv, ne uint64) []byte {
		b := []byte(binaryMagic)
		b = binary.LittleEndian.AppendUint64(b, version)
		b = binary.LittleEndian.AppendUint64(b, nv)
		b = binary.LittleEndian.AppendUint64(b, ne)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"short header", []byte("BCSR\x01\x00"), "truncated binary header"},
		{"future version", hdr(99, 1, 0), "unsupported version"},
		{"absurd vertices", hdr(1, 1<<60, 0), "vertices (max"},
		{"absurd edges", hdr(1, 1, 1<<60), "adjacency entries (max"},
		{"missing offsets", hdr(1, 1000, 0), "truncated offsets"},
		{"offsets disagree with ne", append(hdr(1, 0, 5), make([]byte, 8)...),
			"header claims 5 adjacency entries"},
		{"missing edges", append(hdr(1, 0, 4), make([]byte, 8)...), "truncated edges"},
	}
	// The "missing edges" case needs Offsets[0] == ne to get past the
	// consistency check.
	binary.LittleEndian.PutUint64(cases[6].data[len(cases[6].data)-8:], 4)
	for _, tc := range cases {
		_, err := ReadBinary(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := paperExample(t)
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := os.WriteFile(path, encodeV1(g), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges, g2.Edges) {
		t.Fatal("file round trip changed edges")
	}
}

func TestLoadEdgeListFileMissing(t *testing.T) {
	if _, err := LoadEdgeListFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file did not error")
	}
}

// referenceReadEdges is the edge-list parser ReadEdges replaced: every
// line through TrimSpace/Fields/ParseUint, IDs densified through a map as
// they are read. The differential tests hold ReadEdges to its output and
// error texts.
func referenceReadEdges(r io.Reader) (int, []Edge, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ids := make(map[uint64]VertexID)
	var edges []Edge
	lines := 0
	lookup := func(raw uint64) VertexID {
		if id, ok := ids[raw]; ok {
			return id
		}
		id := VertexID(len(ids))
		ids[raw] = id
		return id
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, nil, 0, fmt.Errorf("graph: malformed edge line %q", line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, nil, 0, fmt.Errorf("graph: bad vertex %q: %v", fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, nil, 0, fmt.Errorf("graph: bad vertex %q: %v", fields[1], err)
		}
		edges = append(edges, Edge{U: lookup(u), V: lookup(v)})
		lines++
	}
	if err := sc.Err(); err != nil {
		return 0, nil, 0, err
	}
	return len(ids), edges, lines, nil
}

// referenceFromEdgeList is the CSR build FromEdgeList replaced: one
// scatter in input order, a comparison sort of every list, then the
// duplicate compaction.
func referenceFromEdgeList(n int, edges []Edge) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int64, n)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]VertexID, offsets[n])
	fill := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[offsets[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		adj[offsets[e.V]+fill[e.V]] = e.U
		fill[e.V]++
	}
	g := &CSR{Offsets: offsets, Edges: adj}
	g.SortEdges()
	g.dedupSorted()
	return g, nil
}
