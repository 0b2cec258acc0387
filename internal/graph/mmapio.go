package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"unsafe"
)

// BCSR v2 is the retired single-section successor to v1: 64-byte
// aligned offsets and edges behind a checksummed header. Nothing writes
// it any more — a one-shard BCSR v3 file holds the same two sections
// and is what OpenGraphFile maps in place — but the copying reader
// stays so old files still load and `preprocess -convert` can rewrite
// them. On-disk layout (header fields always little-endian regardless
// of payload order):
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
// padding.
const (
	binaryV2Version    = uint64(2)
	binaryV2HeaderSize = 64
	binaryV2Align      = 64

	// binaryV2FlagBigEndian marks a big-endian payload, which
	// ReadBinaryV2 decodes.
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
// integers little-endian — the precondition for aliasing mapped
// little-endian sections directly as []int64 / []uint32.
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

// v2Layout computes the section offsets for a graph of nv vertices.
func v2Layout(nv uint64) (offsetsOff, edgesOff uint64) {
	offsetsOff = binaryV2HeaderSize
	end := offsetsOff + (nv+1)*8
	edgesOff = (end + binaryV2Align - 1) &^ (binaryV2Align - 1)
	return offsetsOff, edgesOff
}

// v2HeaderFields holds the parsed and verified header fields.
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

// ReadBinaryV2 deserializes a v2 stream by copying. It decodes either
// payload byte order, verifies both checksums, and structurally
// validates the graph; corrupt or truncated input fails with an
// explicit error.
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

// LoadBinaryV2File reads a v2 file from disk by copying.
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

// Format names reported by SniffFormat and used as the load-metric
// label throughout the stack.
const (
	FormatEdgeList = "edgelist"
	FormatBCSR1    = "bcsr-v1"
	FormatBCSR2    = "bcsr-v2"
	FormatBCSR3    = "bcsr-v3"
)

// SniffFormat identifies a graph file by content: the BCSR magic plus
// version selects v1, v2 or v3; anything else is treated as a SNAP edge
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
