package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// This file provides two interchange formats:
//
//   - SNAP-style whitespace-separated edge lists ("u v" per line, '#'
//     comments), so the real paper datasets can be dropped in when
//     available;
//   - the retired v1 binary CSR format ("BCSR" magic, version, counts,
//     offsets, edges), kept readable so old files still load and
//     `preprocess -convert` can rewrite them as BCSR v3.
//
// The edge-list grammar, stated once: lines are split by bufio.Scanner
// (a trailing '\r' is dropped) and may be at most 1 MiB long. A line
// that is blank after strings.TrimSpace, or starts with '#' or '%' after
// it, is skipped. Any other line must hold at least two fields
// (strings.Fields), the first two decimal uint64 vertex IDs
// (strconv.ParseUint); further fields, such as weights, are ignored.
// parseEdgeFields is the one definition of that grammar and of its error
// texts. The loader reads the common line shape itself, without
// allocating: optional ASCII blanks, two runs of 1–19 ASCII digits
// separated by ASCII blanks, then the end of the line or an ASCII blank.
// Every other line, including comments, non-ASCII bytes and IDs of 20 or
// more digits, goes through parseEdgeFields. Raw IDs may be sparse; they
// are densified to 0..n-1 in order of first appearance, u before v
// within a line.

// ReadEdgeList parses a SNAP-format undirected edge list (grammar above)
// and builds its CSR. Returns the graph and the number of edge lines.
func ReadEdgeList(r io.Reader) (*CSR, int, error) {
	n, edges, lines, err := ReadEdges(r)
	if err != nil {
		return nil, 0, err
	}
	g, err := FromEdgeList(n, edges)
	return g, lines, err
}

// ReadEdges parses a SNAP-format edge list (grammar in the file header)
// into its densified edge set without building the CSR, so callers can
// time the build separately. Returns the vertex count, the edges, and the
// number of edge lines (one edge each).
//
// Common lines are parsed in place from the scanner's buffer, and raw
// IDs go straight into the returned slice. Once edgeProbeCap edge lines
// have parsed, a reader that can be read twice (a file, an in-memory
// reader) is counted through ReadAt, and the slice is sized once for the
// whole input. After the parse the IDs are densified in place: through a table
// when the largest raw ID is below 4× the edge count, through a presized
// map otherwise. A raw ID of 2³² or more does not fit an Edge, so from
// that line on every ID goes through the map as it is read.
func ReadEdges(r io.Reader) (int, []Edge, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20) // grows up to the 1 MiB line cap
	edges := make([]Edge, 0, edgeProbeCap)
	var (
		ids    idMap  // non-nil once an ID needs 64 bits; edges then hold dense IDs
		maxRaw uint64 // largest raw ID while edges hold raw IDs
	)
	for sc.Scan() {
		u, v, ok := parseEdgeLine(sc.Bytes())
		if !ok {
			var skip bool
			var err error
			if u, v, skip, err = parseEdgeFields(sc.Text()); err != nil {
				return 0, nil, 0, err
			}
			if skip {
				continue
			}
		}
		if ids == nil && max(u, v) > math.MaxUint32 {
			ids = make(idMap, len(edges))
			ids.densify(edges)
		}
		if len(edges) == edgeProbeCap {
			if bound := lineBound(r); bound > len(edges) {
				edges = slices.Grow(edges, bound-len(edges))
			}
		}
		if ids != nil {
			edges = append(edges, Edge{U: ids.lookup(u), V: ids.lookup(v)})
			continue
		}
		maxRaw = max(maxRaw, u, v)
		edges = append(edges, Edge{U: VertexID(u), V: VertexID(v)})
	}
	if err := sc.Err(); err != nil {
		return 0, nil, 0, err
	}
	if len(edges) == 0 {
		return 0, nil, 0, nil
	}
	if ids != nil {
		return len(ids), edges, len(edges), nil
	}
	return densify(edges, maxRaw), edges, len(edges), nil
}

// edgeProbeCap is how many edge lines ReadEdges parses before it sizes
// its edge slice for the whole input: a file that does not start with
// edges fails before anything is allocated for it.
const edgeProbeCap = 4096

// lineBound bounds the edge lines r holds when r can be read twice
// (io.ReaderAt): its newlines plus one, and at most one per 4 bytes, the
// shortest edge line ("0 1\n"). It returns 0 for any other reader.
func lineBound(r io.Reader) int {
	ra, ok := r.(io.ReaderAt)
	if !ok {
		return 0
	}
	buf := make([]byte, 64<<10)
	lines, size := 1, 0
	for {
		k, err := ra.ReadAt(buf, int64(size))
		lines += bytes.Count(buf[:k], []byte{'\n'})
		size += k
		if err != nil { // io.EOF, or an error the scanner reports too
			return min(lines, (size+1)/4)
		}
	}
}

// isBlank reports whether c is one of the ASCII bytes strings.TrimSpace
// and strings.Fields treat as space.
func isBlank(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// parseEdgeLine parses the common line shape — optional ASCII blanks,
// two runs of 1–19 ASCII digits separated by ASCII blanks, then the end
// of the line or an ASCII blank — and reports false for any other line.
// 19 digits always fit a uint64. On such a line the grammar's first two
// fields are exactly the two digit runs, whatever follows them.
func parseEdgeLine(b []byte) (u, v uint64, ok bool) {
	i := 0
	for i < len(b) && isBlank(b[i]) {
		i++
	}
	if u, i, ok = parseDigits(b, i); !ok || i == len(b) || !isBlank(b[i]) {
		return 0, 0, false
	}
	for i < len(b) && isBlank(b[i]) {
		i++
	}
	if v, i, ok = parseDigits(b, i); !ok || (i < len(b) && !isBlank(b[i])) {
		return 0, 0, false
	}
	return u, v, true
}

// parseDigits reads a run of 1–19 ASCII digits starting at b[i] and
// returns its value and the index after it.
func parseDigits(b []byte, i int) (x uint64, end int, ok bool) {
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		x = x*10 + uint64(b[i]-'0')
	}
	if n := i - start; n == 0 || n > 19 {
		return 0, i, false
	}
	return x, i, true
}

// parseEdgeFields is the edge-list grammar for one line: it reports a
// skipped line (blank or comment), a parse error, or the two raw IDs.
func parseEdgeFields(text string) (u, v uint64, skip bool, err error) {
	line := strings.TrimSpace(text)
	if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
		return 0, 0, true, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, false, fmt.Errorf("graph: malformed edge line %q", line)
	}
	u, err = strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("graph: bad vertex %q: %v", fields[0], err)
	}
	v, err = strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("graph: bad vertex %q: %v", fields[1], err)
	}
	return u, v, false, nil
}

// densify renumbers the raw IDs in edges in place, in first-appearance
// order (U before V within an edge), and returns the vertex count.
// maxRaw is the largest raw ID in edges.
func densify(edges []Edge, maxRaw uint64) int {
	if maxRaw >= 4*uint64(len(edges)) {
		ids := make(idMap, len(edges))
		ids.densify(edges)
		return len(ids)
	}
	table := make([]VertexID, maxRaw+1) // dense ID + 1; 0 = not seen yet
	n := VertexID(0)
	for i := range edges {
		e := &edges[i]
		if table[e.U] == 0 {
			n++
			table[e.U] = n
		}
		e.U = table[e.U] - 1
		if table[e.V] == 0 {
			n++
			table[e.V] = n
		}
		e.V = table[e.V] - 1
	}
	return int(n)
}

// idMap densifies raw IDs that a table would make too large.
type idMap map[uint64]VertexID

// lookup returns raw's dense ID, assigning the next one on first sight.
func (m idMap) lookup(raw uint64) VertexID {
	id, ok := m[raw]
	if !ok {
		id = VertexID(len(m))
		m[raw] = id
	}
	return id
}

// densify renumbers the raw IDs in edges in place through m. (Calls in
// a composite literal run left to right, so U is looked up before V.)
func (m idMap) densify(edges []Edge) {
	for i, e := range edges {
		edges[i] = Edge{U: m.lookup(uint64(e.U)), V: m.lookup(uint64(e.V))}
	}
}

// LoadEdgeListFile reads a SNAP edge-list file from disk.
func LoadEdgeListFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := ReadEdgeList(f)
	return g, err
}

// WriteEdgeList writes each undirected edge once as "u v" lines.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		for _, d := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < d {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, d); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

const (
	binaryMagic   = "BCSR"
	binaryVersion = uint32(1)
)

// Header sanity caps for ReadBinary. VertexID is 32-bit, so a valid file
// can never name more vertices than fit in one; the edge cap bounds
// directed adjacency entries at 2^33 (32 GiB of payload) — generous for
// any real dataset while rejecting absurd counts up front.
const (
	binaryMaxVertices = uint64(1) << 32
	binaryMaxEdges    = uint64(1) << 33
	binaryReadChunk   = uint64(1) << 16 // entries read (and allocated) per step
)

// ReadBinary deserializes a v1 binary CSR. Corrupt or
// truncated input fails with an explicit error rather than a huge
// allocation: header counts are sanity-capped, the offsets and edge
// arrays grow chunk by chunk as payload actually arrives (a lying header
// hits "truncated" long before exhausting memory), and the final graph
// is structurally validated.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 4+3*8) // magic + version, nv, ne
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graph: truncated binary header: %w", err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	version := binary.LittleEndian.Uint64(hdr[4:])
	nv := binary.LittleEndian.Uint64(hdr[12:])
	ne := binary.LittleEndian.Uint64(hdr[20:])
	if version != uint64(binaryVersion) {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if nv > binaryMaxVertices {
		return nil, fmt.Errorf("graph: header claims %d vertices (max %d)", nv, binaryMaxVertices)
	}
	if ne > binaryMaxEdges {
		return nil, fmt.Errorf("graph: header claims %d adjacency entries (max %d)", ne, binaryMaxEdges)
	}
	buf := make([]byte, 8*binaryReadChunk)
	offsets := make([]int64, 0, min(nv+1, binaryReadChunk))
	for remaining := nv + 1; remaining > 0; {
		c := min(remaining, binaryReadChunk)
		b := buf[:8*c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated offsets (%d of %d read): %w",
				len(offsets), nv+1, err)
		}
		for i := uint64(0); i < c; i++ {
			offsets = append(offsets, int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
		remaining -= c
	}
	if last := offsets[nv]; last != int64(ne) {
		return nil, fmt.Errorf("graph: offsets end at %d but header claims %d adjacency entries", last, ne)
	}
	edges := make([]VertexID, 0, min(ne, 2*binaryReadChunk))
	for remaining := ne; remaining > 0; {
		c := min(remaining, 2*binaryReadChunk)
		b := buf[:4*c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated edges (%d of %d read): %w",
				len(edges), ne, err)
		}
		for i := uint64(0); i < c; i++ {
			edges = append(edges, binary.LittleEndian.Uint32(b[4*i:]))
		}
		remaining -= c
	}
	g := &CSR{Offsets: offsets, Edges: edges}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %w", err)
	}
	return g, nil
}

// saveAtomic writes via a temp file in the target directory, fsyncs,
// and renames into place, so a crash mid-write never leaves a corrupt
// file at path — the same idiom benchsuite uses for -json emission.
func saveAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadBinaryFile reads a binary CSR file from disk.
func LoadBinaryFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
