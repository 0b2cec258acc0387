package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"unsafe"
)

// BCSR v2 is the mmap-friendly successor to the v1 stream format: the
// payload sections are 64-byte aligned so an mmap'd file can be handed
// to the engines in place (unsafe.Slice over the mapping), mirroring
// BitColor's flat CSR memory layout where offsets and edges live as raw
// contiguous arrays the bit-wise engines stream over. On-disk layout
// (header fields always little-endian regardless of payload order):
//
//	[0:4)    magic "BCSR"
//	[4:12)   version    uint64 = 2
//	[12:16)  flags      uint32 — bit 0: payload byte order (0 = LE, 1 = BE)
//	[16:24)  numVertices uint64
//	[24:32)  numEdges    uint64 (directed adjacency entries)
//	[32:40)  offsetsOff  uint64 — file offset of Offsets, 64-byte aligned
//	[40:48)  edgesOff    uint64 — file offset of Edges, 64-byte aligned
//	[48:56)  payloadSum  uint64 — CRC32-C of Offsets bytes (high 32 bits)
//	         and of Edges bytes (low 32 bits), each as stored
//	[56:64)  headerSum   uint64 — FNV-1a over header bytes [0:56)
//	[64:...) Offsets: (numVertices+1) × 8 bytes, then zero padding to a
//	         64-byte boundary, then Edges: numEdges × 4 bytes.
//
// The header checksum makes any tampered header field (including a
// flipped endianness flag) an explicit error instead of a misparse; the
// payload checksum covers the section bytes as stored, excluding
// padding. It is CRC32-Castagnoli per section rather than a single wide
// hash because mapping verifies it on every open: Castagnoli runs on a
// dedicated instruction on amd64/arm64, so the integrity pass costs a
// fraction of the coloring that follows instead of dominating it.
// Writers always emit little-endian payloads; the big-endian flag
// exists so a foreign-order file is *detected* and routed to the
// copying reader rather than mapped.
const (
	binaryV2Version    = uint64(2)
	binaryV2HeaderSize = 64
	binaryV2Align      = 64

	// binaryV2FlagBigEndian marks a big-endian payload. Such files are
	// never produced by WriteBinaryV2 but are decodable by ReadBinaryV2;
	// the mapped path refuses them and falls back to copying.
	binaryV2FlagBigEndian = uint32(1) << 0
)

const (
	fnvOffset64 = uint64(14695981039346656037)
	fnvPrime64  = uint64(1099511628211)
)

// fnv1a folds b into a running FNV-1a-64 hash.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// hostLittleEndian reports whether this machine stores multi-byte
// integers little-endian — the precondition for aliasing the mapped
// little-endian payload directly as []int64 / []uint32.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// offsetsBytes views g.Offsets as raw bytes (little-endian hosts only).
func offsetsBytes(g *CSR) []byte {
	if len(g.Offsets) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&g.Offsets[0])), len(g.Offsets)*8)
}

// edgesBytes views g.Edges as raw bytes (little-endian hosts only).
func edgesBytes(g *CSR) []byte {
	if len(g.Edges) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&g.Edges[0])), len(g.Edges)*4)
}

// crcTable is the Castagnoli polynomial table; crc32.Checksum with it
// dispatches to the hardware CRC32C instruction where available.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// v2SectionSum packs the two section checksums into the payloadSum
// field: CRC32-C of the stored Offsets bytes in the high 32 bits, of
// the stored Edges bytes in the low 32.
func v2SectionSum(offsets, edges []byte) uint64 {
	return uint64(crc32.Checksum(offsets, crcTable))<<32 | uint64(crc32.Checksum(edges, crcTable))
}

// v2PayloadSum computes the payload checksum over the sections as
// stored (little-endian). On little-endian hosts the in-memory arrays
// are already the stored representation and are checksummed directly;
// otherwise the sections are encoded chunk by chunk.
func v2PayloadSum(g *CSR) uint64 {
	if hostLittleEndian() {
		return v2SectionSum(offsetsBytes(g), edgesBytes(g))
	}
	var sumOff, sumEdge uint32
	var b [8]byte
	for _, o := range g.Offsets {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		sumOff = crc32.Update(sumOff, crcTable, b[:])
	}
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint32(b[:4], e)
		sumEdge = crc32.Update(sumEdge, crcTable, b[:4])
	}
	return uint64(sumOff)<<32 | uint64(sumEdge)
}

// v2Layout computes the section offsets for a graph of nv vertices.
func v2Layout(nv uint64) (offsetsOff, edgesOff uint64) {
	offsetsOff = binaryV2HeaderSize
	end := offsetsOff + (nv+1)*8
	edgesOff = (end + binaryV2Align - 1) &^ (binaryV2Align - 1)
	return offsetsOff, edgesOff
}

// v2Header assembles and checksums the 64-byte header.
func v2Header(g *CSR) [binaryV2HeaderSize]byte {
	var hdr [binaryV2HeaderSize]byte
	nv, ne := uint64(g.NumVertices()), uint64(len(g.Edges))
	offsetsOff, edgesOff := v2Layout(nv)
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], binaryV2Version)
	binary.LittleEndian.PutUint32(hdr[12:16], 0) // flags: LE payload
	binary.LittleEndian.PutUint64(hdr[16:24], nv)
	binary.LittleEndian.PutUint64(hdr[24:32], ne)
	binary.LittleEndian.PutUint64(hdr[32:40], offsetsOff)
	binary.LittleEndian.PutUint64(hdr[40:48], edgesOff)
	binary.LittleEndian.PutUint64(hdr[48:56], v2PayloadSum(g))
	binary.LittleEndian.PutUint64(hdr[56:64], fnv1a(fnvOffset64, hdr[:56]))
	return hdr
}

// WriteBinaryV2 serializes the CSR in the mmap-friendly v2 format.
func WriteBinaryV2(w io.Writer, g *CSR) error {
	hdr := v2Header(g)
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	nv := uint64(g.NumVertices())
	offsetsOff, edgesOff := v2Layout(nv)
	if hostLittleEndian() {
		if _, err := bw.Write(offsetsBytes(g)); err != nil {
			return err
		}
	} else {
		var b [8]byte
		for _, o := range g.Offsets {
			binary.LittleEndian.PutUint64(b[:], uint64(o))
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	var pad [binaryV2Align]byte
	if n := edgesOff - (offsetsOff + (nv+1)*8); n > 0 {
		if _, err := bw.Write(pad[:n]); err != nil {
			return err
		}
	}
	if hostLittleEndian() {
		if _, err := bw.Write(edgesBytes(g)); err != nil {
			return err
		}
	} else {
		var b [4]byte
		for _, e := range g.Edges {
			binary.LittleEndian.PutUint32(b[:], e)
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// v2Header holds the parsed and verified header fields.
type v2HeaderFields struct {
	flags      uint32
	nv, ne     uint64
	offsetsOff uint64
	edgesOff   uint64
	payloadSum uint64
}

// parseV2Header validates a raw 64-byte header: magic, version, header
// checksum, sanity caps, and section layout consistency.
func parseV2Header(hdr []byte) (v2HeaderFields, error) {
	var f v2HeaderFields
	if len(hdr) < binaryV2HeaderSize {
		return f, fmt.Errorf("graph: truncated v2 header (%d bytes)", len(hdr))
	}
	hdr = hdr[:binaryV2HeaderSize]
	if string(hdr[:4]) != binaryMagic {
		return f, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint64(hdr[4:12]); v != binaryV2Version {
		return f, fmt.Errorf("graph: unsupported version %d (want %d)", v, binaryV2Version)
	}
	if got, want := fnv1a(fnvOffset64, hdr[:56]), binary.LittleEndian.Uint64(hdr[56:64]); got != want {
		return f, fmt.Errorf("graph: v2 header checksum mismatch (got %#x, want %#x)", got, want)
	}
	f.flags = binary.LittleEndian.Uint32(hdr[12:16])
	f.nv = binary.LittleEndian.Uint64(hdr[16:24])
	f.ne = binary.LittleEndian.Uint64(hdr[24:32])
	f.offsetsOff = binary.LittleEndian.Uint64(hdr[32:40])
	f.edgesOff = binary.LittleEndian.Uint64(hdr[40:48])
	f.payloadSum = binary.LittleEndian.Uint64(hdr[48:56])
	if f.flags&^binaryV2FlagBigEndian != 0 {
		return f, fmt.Errorf("graph: unknown v2 flags %#x", f.flags)
	}
	if f.nv > binaryMaxVertices {
		return f, fmt.Errorf("graph: header claims %d vertices (max %d)", f.nv, binaryMaxVertices)
	}
	if f.ne > binaryMaxEdges {
		return f, fmt.Errorf("graph: header claims %d adjacency entries (max %d)", f.ne, binaryMaxEdges)
	}
	if f.offsetsOff%binaryV2Align != 0 || f.edgesOff%binaryV2Align != 0 {
		return f, fmt.Errorf("graph: v2 section offsets %d/%d not %d-byte aligned",
			f.offsetsOff, f.edgesOff, binaryV2Align)
	}
	wantOffsets, wantEdges := v2Layout(f.nv)
	if f.offsetsOff != wantOffsets || f.edgesOff != wantEdges {
		return f, fmt.Errorf("graph: v2 section offsets %d/%d inconsistent with %d vertices (want %d/%d)",
			f.offsetsOff, f.edgesOff, f.nv, wantOffsets, wantEdges)
	}
	return f, nil
}

// v2FileSize is the expected total file size for parsed header fields.
func (f v2HeaderFields) fileSize() uint64 { return f.edgesOff + f.ne*4 }

// ReadBinaryV2 deserializes a v2 stream by copying — the portable slow
// path the mapped loader falls back to. It decodes either payload byte
// order, verifies both checksums, and structurally validates the graph;
// corrupt or truncated input fails with an explicit error.
func ReadBinaryV2(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]byte, binaryV2HeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graph: truncated v2 header: %w", err)
	}
	f, err := parseV2Header(hdr)
	if err != nil {
		return nil, err
	}
	order := binary.ByteOrder(binary.LittleEndian)
	if f.flags&binaryV2FlagBigEndian != 0 {
		order = binary.BigEndian
	}
	var sumOff, sumEdge uint32
	buf := make([]byte, 8*binaryReadChunk)
	offsets := make([]int64, 0, min(f.nv+1, binaryReadChunk))
	for remaining := f.nv + 1; remaining > 0; {
		c := min(remaining, binaryReadChunk)
		b := buf[:8*c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated v2 offsets (%d of %d read): %w",
				len(offsets), f.nv+1, err)
		}
		sumOff = crc32.Update(sumOff, crcTable, b)
		for i := uint64(0); i < c; i++ {
			offsets = append(offsets, int64(order.Uint64(b[8*i:])))
		}
		remaining -= c
	}
	if last := offsets[f.nv]; last != int64(f.ne) {
		return nil, fmt.Errorf("graph: v2 offsets end at %d but header claims %d adjacency entries", last, f.ne)
	}
	if pad := f.edgesOff - (f.offsetsOff + (f.nv+1)*8); pad > 0 {
		if _, err := io.CopyN(io.Discard, br, int64(pad)); err != nil {
			return nil, fmt.Errorf("graph: truncated v2 section padding: %w", err)
		}
	}
	edges := make([]VertexID, 0, min(f.ne, 2*binaryReadChunk))
	for remaining := f.ne; remaining > 0; {
		c := min(remaining, 2*binaryReadChunk)
		b := buf[:4*c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated v2 edges (%d of %d read): %w",
				len(edges), f.ne, err)
		}
		sumEdge = crc32.Update(sumEdge, crcTable, b)
		for i := uint64(0); i < c; i++ {
			edges = append(edges, order.Uint32(b[4*i:]))
		}
		remaining -= c
	}
	if sum := uint64(sumOff)<<32 | uint64(sumEdge); sum != f.payloadSum {
		return nil, fmt.Errorf("graph: v2 payload checksum mismatch (got %#x, want %#x)", sum, f.payloadSum)
	}
	g := &CSR{Offsets: offsets, Edges: edges}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: v2 payload invalid: %w", err)
	}
	return g, nil
}

// SaveBinaryV2File atomically writes the graph to path in v2 format
// (temp file + fsync + rename, like SaveBinaryFile).
func SaveBinaryV2File(path string, g *CSR) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteBinaryV2(w, g) })
}

// LoadBinaryV2File reads a v2 file from disk by copying (no mmap).
func LoadBinaryV2File(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinaryV2(f)
}

// closeOnce arbitrates exactly-once teardown for handles whose Close
// releases an mmap: the first caller wins and performs the munmap, every
// later (possibly concurrent) call is a no-op. A plain bool is not
// enough — two goroutines racing Close could both observe it unset and
// issue a second munmap over an address range the kernel may already
// have reused.
type closeOnce struct {
	closed atomic.Bool
}

// first reports whether this call is the one that should tear down.
func (c *closeOnce) first() bool { return !c.closed.Swap(true) }

// done reports whether Close already ran (or is running).
func (c *closeOnce) done() bool { return c.closed.Load() }

// MappedCSR owns a graph whose payload may alias an mmap'd file. Close
// releases the mapping; using the graph after Close is a use-after-free,
// so Graph panics once closed. A MappedCSR whose construction fell back
// to the copying reader behaves identically but holds no mapping
// (Mapped reports false) and Close only bars further use.
type MappedCSR struct {
	g     *CSR
	data  []byte // the mmap'd region; nil on the copying fallback
	close closeOnce
}

// Graph returns the graph view. The returned *CSR aliases the mapping
// (when Mapped) and is valid only until Close.
func (m *MappedCSR) Graph() *CSR {
	if m.close.done() {
		panic("graph: MappedCSR used after Close")
	}
	return m.g
}

// Mapped reports whether the payload aliases an mmap'd region (false
// when construction fell back to the copying reader).
func (m *MappedCSR) Mapped() bool { return m.data != nil }

// Close unmaps the backing region (if any) and invalidates the graph
// view. Idempotent, including under concurrent double-Close: only the
// first caller performs the munmap.
func (m *MappedCSR) Close() error {
	if !m.close.first() {
		return nil
	}
	data := m.data
	m.data = nil
	*m.g = CSR{}
	if data != nil {
		return munmap(data)
	}
	return nil
}

// Format names reported by SniffFormat and used as the load-metric
// label throughout the stack.
const (
	FormatEdgeList = "edgelist"
	FormatBCSR1    = "bcsr-v1"
	FormatBCSR2    = "bcsr-v2"
	FormatBCSR3    = "bcsr-v3"
)

// SniffFormat identifies a graph file by content: the BCSR magic plus
// version selects v1 or v2; anything else is treated as a SNAP edge
// list (including files too short to hold a binary header). A BCSR
// magic with an unknown version is an explicit error, not an edge list.
func SniffFormat(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var hdr [12]byte
	if n, _ := io.ReadFull(f, hdr[:]); n < len(hdr) || string(hdr[:4]) != binaryMagic {
		return FormatEdgeList, nil
	}
	switch v := binary.LittleEndian.Uint64(hdr[4:12]); v {
	case 1:
		return FormatBCSR1, nil
	case binaryV2Version:
		return FormatBCSR2, nil
	case binaryV3Version:
		return FormatBCSR3, nil
	default:
		return "", fmt.Errorf("graph: %s: BCSR magic with unsupported version %d", path, v)
	}
}

// errMmapFallback marks conditions where the file is well-formed but
// cannot be aliased in place on this host; MapBinaryFile then falls
// back to the copying reader instead of failing.
var errMmapFallback = errors.New("graph: mmap fast path unavailable")

// MapBinaryFile opens a BCSR v2 file zero-copy: the file is mmap'd,
// both checksums are verified, and the Offsets/Edges sections are
// aliased in place via unsafe.Slice — no payload copy, no payload
// allocation. On hosts or files where aliasing is impossible (non-Linux
// builds, big-endian payload or host, misaligned mapping) it falls back
// to the copying ReadBinaryV2 path transparently; corrupt input is an
// error on either path, never a fallback. The returned handle must be
// Closed to release the mapping.
func MapBinaryFile(path string) (*MappedCSR, error) {
	m, err := mapBinaryFile(path)
	if err == nil {
		return m, nil
	}
	if !errors.Is(err, errMmapFallback) {
		return nil, err
	}
	g, err := LoadBinaryV2File(path)
	if err != nil {
		return nil, err
	}
	return &MappedCSR{g: g}, nil
}

// mapBinaryFile is the zero-copy attempt behind MapBinaryFile. It
// returns an error wrapping errMmapFallback for host/layout conditions
// where the copying reader should take over, and a plain error for
// corrupt input.
func mapBinaryFile(path string) (*MappedCSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < binaryV2HeaderSize {
		return nil, fmt.Errorf("graph: v2 file too short (%d bytes)", st.Size())
	}
	// Parse the header from a plain read first so corrupt headers fail
	// identically on every platform, before any mapping exists.
	hdr := make([]byte, binaryV2HeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("graph: truncated v2 header: %w", err)
	}
	fields, err := parseV2Header(hdr)
	if err != nil {
		return nil, err
	}
	if want := fields.fileSize(); uint64(st.Size()) < want {
		return nil, fmt.Errorf("graph: v2 file truncated (%d bytes, layout needs %d)", st.Size(), want)
	}
	if !hostLittleEndian() || fields.flags&binaryV2FlagBigEndian != 0 {
		return nil, fmt.Errorf("%w: payload/host byte order mismatch", errMmapFallback)
	}
	data, err := mmapFile(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errMmapFallback, err)
	}
	m, err := newMappedCSR(data, fields)
	if err != nil {
		munmap(data)
		return nil, err
	}
	return m, nil
}

// newMappedCSR aliases the parsed sections of an mmap'd (or otherwise
// in-memory) v2 image, verifying the payload checksum and the graph's
// structural invariants so a crafted file can never panic an engine.
func newMappedCSR(data []byte, fields v2HeaderFields) (*MappedCSR, error) {
	offEnd := fields.offsetsOff + (fields.nv+1)*8
	edgeEnd := fields.edgesOff + fields.ne*4
	if uint64(len(data)) < edgeEnd || offEnd > fields.edgesOff {
		return nil, fmt.Errorf("graph: v2 sections exceed file size %d", len(data))
	}
	sum := v2SectionSum(data[fields.offsetsOff:offEnd], data[fields.edgesOff:edgeEnd])
	if sum != fields.payloadSum {
		return nil, fmt.Errorf("graph: v2 payload checksum mismatch (got %#x, want %#x)", sum, fields.payloadSum)
	}
	offPtr := unsafe.Pointer(&data[fields.offsetsOff])
	if uintptr(offPtr)%8 != 0 {
		return nil, fmt.Errorf("%w: mapping not 8-byte aligned", errMmapFallback)
	}
	g := &CSR{}
	g.Offsets = unsafe.Slice((*int64)(offPtr), fields.nv+1)
	if fields.ne > 0 {
		g.Edges = unsafe.Slice((*VertexID)(unsafe.Pointer(&data[fields.edgesOff])), fields.ne)
	} else {
		g.Edges = []VertexID{}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: v2 payload invalid: %w", err)
	}
	// The offset scan is sequential, the edge walks are effectively
	// random from the kernel's viewpoint; hint accordingly (best effort).
	adviseMapping(data, fields.offsetsOff, offEnd, fields.edgesOff, edgeEnd)
	m := &MappedCSR{g: g, data: data}
	m.g.backing = m
	return m, nil
}
