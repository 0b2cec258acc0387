package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"
)

// BCSR v3 is the shard-major successor to v2: the CSR is stored
// partition-first so an out-of-core runner can map one shard's sections
// at a time instead of the whole payload, mirroring GraphScale's
// partition-major layout where each engine streams only its own slice
// plus the boundary data. On-disk layout (header fields always
// little-endian):
//
//	[0:4)    magic "BCSR"
//	[4:12)   version    uint64 = 3
//	[12:16)  flags      uint32 — bit 0: payload byte order (0 = LE,
//	         1 = BE, detection only); bit 1: edges sorted ascending
//	[16:24)  numVertices uint64
//	[24:32)  numEdges    uint64 (directed adjacency entries, global)
//	[32:36)  shards      uint32 — partition count K ≥ 1
//	[36:40)  strategy    uint32 — V3Partition* code of the assignment
//	[40:48)  sourceHash  uint64 — ContentHash of the source CSR (the
//	         partition-cache key)
//	[48:52)  metaSum     uint32 — CRC32-C of the meta section
//	[52:56)  reserved    uint32 = 0
//	[56:64)  headerSum   uint64 — FNV-1a over header bytes [0:56)
//
// The meta section starts at offset 64: parts (numVertices × int32),
// zero-padded to 8 bytes, then cutEdges uint64 + boundary uint64 (the
// partition.Classify totals the sharded engine reports), then the shard
// directory: K records of 10 uint64s {offsetsOff, edgesOff, vmapOff,
// bndOff, nvLocal, neLocal, nBoundary, nbEdges, sumA, sumB} where sumA
// packs CRC32-C(offsets)<<32|CRC32-C(edges) and sumB packs
// CRC32-C(vmap)<<32|CRC32-C(bnd).
//
// Each shard then contributes its 64-byte-aligned sections in order:
//
//	offsets  (nvLocal+1) × int64 — local CSR offsets
//	edges    neLocal × uint32    — full global adjacency of the shard's
//	         vertices, concatenated in vmap order (verbatim from the
//	         source CSR, so the global graph reconstructs exactly)
//	vmap     nvLocal × uint32    — ascending global IDs (local→global)
//	bnd      boundary block, empty when nBoundary == 0, else
//	         [boffsets (nBoundary+1)×int64 | bverts nBoundary×uint32 |
//	         bedges nbEdges×uint32]
//
// Writers emit nBoundary = nbEdges = 0, so no shard has a boundary
// block. Files written before the ordered stream replaced the frontier
// phase carry one per shard (the frontier vertices' lower adjacency);
// the copying reader still reads and CRC-checks those bytes and then
// ignores them, and nothing maps them.
//
// Section placement is fully determined by the counts, so a reader
// recomputes the layout and rejects any directory that disagrees — a
// lying directory can never alias sections or leak padding. A one-shard
// file's shard 0 is the whole CSR: its vmap is the identity and its
// offsets and edges are the global arrays, which is what lets
// ShardedFile.MapCSR hand them to the engines in place.
const (
	binaryV3Version    = uint64(3)
	binaryV3HeaderSize = 64
	binaryV3Align      = 64
	binaryV3DirRecord  = 80

	binaryV3FlagBigEndian = uint32(1) << 0
	binaryV3FlagSorted    = uint32(1) << 1

	// binaryMaxShards caps the partition count a header may claim.
	binaryMaxShards = uint64(1) << 20
)

// Partition strategy codes persisted in the v3 header. They mirror the
// coloring package's strategy names (partition.StrategyCode maps
// between the two) so a cached assignment is only reused when the same
// strategy is requested.
const (
	V3PartitionRanges    = uint32(0)
	V3PartitionLabelProp = uint32(1)

	v3MaxStrategy = V3PartitionLabelProp
)

// ContentHash fingerprints a CSR as FNV-1a-64 over its stored
// little-endian representation (offsets bytes, then edges bytes) — the
// partition-cache key: a v3 file whose sourceHash matches a graph's
// ContentHash holds a valid assignment for exactly that graph.
func ContentHash(g *CSR) uint64 {
	if hostLittleEndian() {
		return fnv1a(fnv1a(fnvOffset64, offsetsBytes(g)), edgesBytes(g))
	}
	h := fnvOffset64
	var b [8]byte
	for _, o := range g.Offsets {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		h = fnv1a(h, b[:])
	}
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint32(b[:4], e)
		h = fnv1a(h, b[:4])
	}
	return h
}

// v3Totals computes the cut edges and boundary vertices of an
// assignment with partition.Classify semantics — the totals v3 persists.
func v3Totals(g *CSR, parts []int32) (cutEdges int64, boundary int) {
	for v := 0; v < g.NumVertices(); v++ {
		pv := parts[v]
		cross := false
		for _, u := range g.Neighbors(VertexID(v)) {
			if parts[u] != pv {
				cross = true
				if VertexID(v) < u {
					cutEdges++
				}
			}
		}
		if cross {
			boundary++
		}
	}
	return cutEdges, boundary
}

// v3HeaderFields holds the parsed and verified v3 header.
type v3HeaderFields struct {
	flags      uint32
	nv, ne     uint64
	shards     uint32
	strategy   uint32
	sourceHash uint64
	metaSum    uint32
}

func (f v3HeaderFields) sorted() bool { return f.flags&binaryV3FlagSorted != 0 }

// v3MetaLen is the meta-section size implied by the header counts alone,
// so a reader can size its read before trusting any directory bytes.
func v3MetaLen(nv uint64, shards uint32) uint64 {
	partsLen := (nv*4 + 7) &^ 7
	return partsLen + 16 + uint64(shards)*binaryV3DirRecord
}

// v3ShardDir is one shard's directory record: section offsets, element
// counts and packed section checksums.
type v3ShardDir struct {
	offsetsOff, edgesOff, vmapOff, bndOff uint64
	nvLocal, neLocal, nBoundary, nbEdges  uint64
	sumA, sumB                            uint64
}

// bndLen is the boundary block's byte length (0 when the shard has no
// frontier vertices — no section at all, not an empty prefix array).
func (d *v3ShardDir) bndLen() uint64 {
	if d.nBoundary == 0 {
		return 0
	}
	return (d.nBoundary+1)*8 + d.nBoundary*4 + d.nbEdges*4
}

func align64(x uint64) uint64 { return (x + binaryV3Align - 1) &^ (binaryV3Align - 1) }

// v3PlaceSections fills the directory's section offsets from its counts
// and returns the total (64-byte padded) file size. Placement is a pure
// function of the counts: readers recompute it and require the stored
// directory to agree byte for byte.
func v3PlaceSections(nv uint64, dir []v3ShardDir) uint64 {
	cur := align64(binaryV3HeaderSize + v3MetaLen(nv, uint32(len(dir))))
	for s := range dir {
		d := &dir[s]
		d.offsetsOff = cur
		d.edgesOff = align64(d.offsetsOff + (d.nvLocal+1)*8)
		d.vmapOff = align64(d.edgesOff + d.neLocal*4)
		d.bndOff = align64(d.vmapOff + d.nvLocal*4)
		cur = align64(d.bndOff + d.bndLen())
	}
	return cur
}

// v3Header assembles and checksums the 64-byte header.
func v3Header(f v3HeaderFields) [binaryV3HeaderSize]byte {
	var hdr [binaryV3HeaderSize]byte
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], binaryV3Version)
	binary.LittleEndian.PutUint32(hdr[12:16], f.flags)
	binary.LittleEndian.PutUint64(hdr[16:24], f.nv)
	binary.LittleEndian.PutUint64(hdr[24:32], f.ne)
	binary.LittleEndian.PutUint32(hdr[32:36], f.shards)
	binary.LittleEndian.PutUint32(hdr[36:40], f.strategy)
	binary.LittleEndian.PutUint64(hdr[40:48], f.sourceHash)
	binary.LittleEndian.PutUint32(hdr[48:52], f.metaSum)
	binary.LittleEndian.PutUint64(hdr[56:64], fnv1a(fnvOffset64, hdr[:56]))
	return hdr
}

// parseV3Header validates a raw 64-byte v3 header: magic, version,
// header checksum, flag/strategy domain and sanity caps.
func parseV3Header(hdr []byte) (v3HeaderFields, error) {
	var f v3HeaderFields
	if len(hdr) < binaryV3HeaderSize {
		return f, fmt.Errorf("graph: truncated v3 header (%d bytes)", len(hdr))
	}
	hdr = hdr[:binaryV3HeaderSize]
	if string(hdr[:4]) != binaryMagic {
		return f, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint64(hdr[4:12]); v != binaryV3Version {
		return f, fmt.Errorf("graph: unsupported version %d (want %d)", v, binaryV3Version)
	}
	if got, want := fnv1a(fnvOffset64, hdr[:56]), binary.LittleEndian.Uint64(hdr[56:64]); got != want {
		return f, fmt.Errorf("graph: v3 header checksum mismatch (got %#x, want %#x)", got, want)
	}
	f.flags = binary.LittleEndian.Uint32(hdr[12:16])
	f.nv = binary.LittleEndian.Uint64(hdr[16:24])
	f.ne = binary.LittleEndian.Uint64(hdr[24:32])
	f.shards = binary.LittleEndian.Uint32(hdr[32:36])
	f.strategy = binary.LittleEndian.Uint32(hdr[36:40])
	f.sourceHash = binary.LittleEndian.Uint64(hdr[40:48])
	f.metaSum = binary.LittleEndian.Uint32(hdr[48:52])
	if f.flags&^(binaryV3FlagBigEndian|binaryV3FlagSorted) != 0 {
		return f, fmt.Errorf("graph: unknown v3 flags %#x", f.flags)
	}
	if rsv := binary.LittleEndian.Uint32(hdr[52:56]); rsv != 0 {
		return f, fmt.Errorf("graph: v3 reserved header field %#x nonzero", rsv)
	}
	if f.nv > binaryMaxVertices {
		return f, fmt.Errorf("graph: header claims %d vertices (max %d)", f.nv, binaryMaxVertices)
	}
	if f.ne > binaryMaxEdges {
		return f, fmt.Errorf("graph: header claims %d adjacency entries (max %d)", f.ne, binaryMaxEdges)
	}
	if f.shards == 0 || uint64(f.shards) > binaryMaxShards {
		return f, fmt.Errorf("graph: header claims %d shards (want 1..%d)", f.shards, binaryMaxShards)
	}
	if f.strategy > v3MaxStrategy {
		return f, fmt.Errorf("graph: unknown v3 partition strategy code %d", f.strategy)
	}
	return f, nil
}

// v3Meta is the parsed and verified meta section.
type v3Meta struct {
	parts    []int32
	cutEdges uint64
	boundary uint64
	dir      []v3ShardDir
	fileSize uint64
}

// parseV3Meta validates the meta section bytes against the header: CRC,
// part domain, count sums, and — decisively — that the stored directory
// equals the layout recomputed from its own counts.
func parseV3Meta(meta []byte, f v3HeaderFields) (*v3Meta, error) {
	if uint64(len(meta)) != v3MetaLen(f.nv, f.shards) {
		return nil, fmt.Errorf("graph: v3 meta section is %d bytes (layout needs %d)",
			len(meta), v3MetaLen(f.nv, f.shards))
	}
	if got := crc32.Checksum(meta, crcTable); got != f.metaSum {
		return nil, fmt.Errorf("graph: v3 meta checksum mismatch (got %#x, want %#x)", got, f.metaSum)
	}
	m := &v3Meta{}
	if hostLittleEndian() && f.nv > 0 && uintptr(unsafe.Pointer(&meta[0]))%4 == 0 {
		// The stored parts are the array: alias the meta bytes. Decoding
		// them into a second O(V) buffer made the mapped one-shard open
		// of the GD stand-in 1.2× the retired v2 mapper's, against 0.99×
		// aliased; the extra allocation, not the loop, is the cost.
		m.parts = unsafe.Slice((*int32)(unsafe.Pointer(&meta[0])), f.nv)
	} else {
		m.parts = make([]int32, f.nv)
		for i := range m.parts {
			m.parts[i] = int32(binary.LittleEndian.Uint32(meta[4*i:]))
		}
	}
	for i, p := range m.parts {
		if uint32(p) >= f.shards {
			return nil, fmt.Errorf("graph: v3 part %d for vertex %d out of range [0,%d)", p, i, f.shards)
		}
	}
	pos := (f.nv*4 + 7) &^ 7
	for i := f.nv * 4; i < pos; i++ {
		if meta[i] != 0 {
			return nil, fmt.Errorf("graph: v3 meta padding byte %d nonzero", i)
		}
	}
	m.cutEdges = binary.LittleEndian.Uint64(meta[pos:])
	m.boundary = binary.LittleEndian.Uint64(meta[pos+8:])
	if m.boundary > f.nv {
		return nil, fmt.Errorf("graph: v3 claims %d boundary vertices of %d total", m.boundary, f.nv)
	}
	if m.cutEdges > f.ne {
		return nil, fmt.Errorf("graph: v3 claims %d cut edges with %d adjacency entries", m.cutEdges, f.ne)
	}
	pos += 16
	m.dir = make([]v3ShardDir, f.shards)
	var sumNV, sumNE uint64
	for s := range m.dir {
		rec := meta[pos+uint64(s)*binaryV3DirRecord:]
		d := &m.dir[s]
		d.offsetsOff = binary.LittleEndian.Uint64(rec[0:])
		d.edgesOff = binary.LittleEndian.Uint64(rec[8:])
		d.vmapOff = binary.LittleEndian.Uint64(rec[16:])
		d.bndOff = binary.LittleEndian.Uint64(rec[24:])
		d.nvLocal = binary.LittleEndian.Uint64(rec[32:])
		d.neLocal = binary.LittleEndian.Uint64(rec[40:])
		d.nBoundary = binary.LittleEndian.Uint64(rec[48:])
		d.nbEdges = binary.LittleEndian.Uint64(rec[56:])
		d.sumA = binary.LittleEndian.Uint64(rec[64:])
		d.sumB = binary.LittleEndian.Uint64(rec[72:])
		if d.nvLocal > f.nv || d.neLocal > f.ne || d.nBoundary > d.nvLocal || d.nbEdges > d.neLocal {
			return nil, fmt.Errorf("graph: v3 shard %d directory counts out of range", s)
		}
		sumNV += d.nvLocal
		sumNE += d.neLocal
	}
	if sumNV != f.nv || sumNE != f.ne {
		return nil, fmt.Errorf("graph: v3 shard counts sum to %d vertices / %d entries (header claims %d / %d)",
			sumNV, sumNE, f.nv, f.ne)
	}
	want := append([]v3ShardDir(nil), m.dir...)
	m.fileSize = v3PlaceSections(f.nv, want)
	for s := range want {
		w, d := &want[s], &m.dir[s]
		if w.offsetsOff != d.offsetsOff || w.edgesOff != d.edgesOff ||
			w.vmapOff != d.vmapOff || w.bndOff != d.bndOff {
			return nil, fmt.Errorf("graph: v3 shard %d section offsets inconsistent with counts", s)
		}
	}
	return m, nil
}

// v3VertexLists buckets vertices per shard, ascending within each (a
// counting sort — the same list construction partition.VertexLists
// uses, re-derived here because graph cannot import partition).
func v3VertexLists(parts []int32, k int) [][]VertexID {
	buf := make([]VertexID, len(parts))
	offsets := make([]int, k+1)
	for _, p := range parts {
		offsets[p+1]++
	}
	for p := 1; p <= k; p++ {
		offsets[p] += offsets[p-1]
	}
	next := append([]int(nil), offsets[:k]...)
	for v, p := range parts {
		buf[next[p]] = VertexID(v)
		next[p]++
	}
	lists := make([][]VertexID, k)
	for p := 0; p < k; p++ {
		lists[p] = buf[offsets[p]:offsets[p+1]]
	}
	return lists
}

// v3ShardEncoder builds one shard's sections as stored bytes, reusing
// its buffers across shards so the writer's peak allocation is one
// (largest) shard rather than the whole payload.
type v3ShardEncoder struct {
	offsets, edges, vmap []byte
}

func v3Grow(b []byte, n uint64) []byte {
	if uint64(cap(b)) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// encode fills the encoder's buffers with shard d's sections. Every
// byte of each buffer is overwritten, so reuse needs no zeroing.
func (e *v3ShardEncoder) encode(g *CSR, list []VertexID, d *v3ShardDir) {
	e.offsets = v3Grow(e.offsets, (d.nvLocal+1)*8)
	e.edges = v3Grow(e.edges, d.neLocal*4)
	e.vmap = v3Grow(e.vmap, d.nvLocal*4)
	binary.LittleEndian.PutUint64(e.offsets[0:], 0)
	var off int64
	epos := 0
	for i, v := range list {
		binary.LittleEndian.PutUint32(e.vmap[4*i:], uint32(v))
		for _, u := range g.Neighbors(v) {
			binary.LittleEndian.PutUint32(e.edges[epos:], uint32(u))
			epos += 4
		}
		off += g.Offsets[v+1] - g.Offsets[v]
		binary.LittleEndian.PutUint64(e.offsets[8*(i+1):], uint64(off))
	}
}

// encodeV3Meta renders the meta section (parts, totals, directory).
func encodeV3Meta(parts []int32, cutEdges, boundary uint64, dir []v3ShardDir) []byte {
	nv := uint64(len(parts))
	meta := make([]byte, v3MetaLen(nv, uint32(len(dir))))
	for i, p := range parts {
		binary.LittleEndian.PutUint32(meta[4*i:], uint32(p))
	}
	pos := (nv*4 + 7) &^ 7
	binary.LittleEndian.PutUint64(meta[pos:], cutEdges)
	binary.LittleEndian.PutUint64(meta[pos+8:], boundary)
	pos += 16
	for s := range dir {
		d := &dir[s]
		rec := meta[pos+uint64(s)*binaryV3DirRecord:]
		for i, x := range [...]uint64{d.offsetsOff, d.edgesOff, d.vmapOff, d.bndOff,
			d.nvLocal, d.neLocal, d.nBoundary, d.nbEdges, d.sumA, d.sumB} {
			binary.LittleEndian.PutUint64(rec[8*i:], x)
		}
	}
	return meta
}

// WriteBinaryV3 serializes the CSR plus its partition assignment in the
// shard-major v3 format. parts must assign every vertex to [0,k);
// strategy is the V3Partition* code recorded for cache validation. The
// writer encodes each shard twice (once for checksums, once to emit) so
// its transient memory stays at one shard instead of the whole payload.
func WriteBinaryV3(w io.Writer, g *CSR, parts []int32, k int, strategy uint32) error {
	nv, ne := uint64(g.NumVertices()), uint64(len(g.Edges))
	if k < 1 || uint64(k) > binaryMaxShards {
		return fmt.Errorf("graph: v3 shard count %d out of range [1,%d]", k, binaryMaxShards)
	}
	if uint64(len(parts)) != nv {
		return fmt.Errorf("graph: v3 assignment covers %d of %d vertices", len(parts), nv)
	}
	if strategy > v3MaxStrategy {
		return fmt.Errorf("graph: unknown v3 partition strategy code %d", strategy)
	}
	for v, p := range parts {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("graph: v3 part %d for vertex %d out of range [0,%d)", p, v, k)
		}
	}
	cut, boundary := v3Totals(g, parts)
	lists := v3VertexLists(parts, k)
	dir := make([]v3ShardDir, k)
	for s, list := range lists {
		d := &dir[s]
		d.nvLocal = uint64(len(list))
		for _, v := range list {
			d.neLocal += uint64(g.Offsets[v+1] - g.Offsets[v])
		}
	}
	v3PlaceSections(nv, dir)
	var enc v3ShardEncoder
	for s := range dir {
		enc.encode(g, lists[s], &dir[s])
		dir[s].sumA = uint64(crc32.Checksum(enc.offsets, crcTable))<<32 |
			uint64(crc32.Checksum(enc.edges, crcTable))
		// The low half is the empty boundary block's CRC, which is 0.
		dir[s].sumB = uint64(crc32.Checksum(enc.vmap, crcTable)) << 32
	}
	meta := encodeV3Meta(parts, uint64(cut), uint64(boundary), dir)
	f := v3HeaderFields{nv: nv, ne: ne, shards: uint32(k), strategy: strategy,
		sourceHash: ContentHash(g), metaSum: crc32.Checksum(meta, crcTable)}
	if g.EdgesSorted() {
		f.flags |= binaryV3FlagSorted
	}
	hdr := v3Header(f)
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(meta); err != nil {
		return err
	}
	cur := uint64(binaryV3HeaderSize) + uint64(len(meta))
	var zeros [binaryV3Align]byte
	emit := func(off uint64, b []byte) error {
		for cur < off {
			n := min(off-cur, uint64(len(zeros)))
			if _, err := bw.Write(zeros[:n]); err != nil {
				return err
			}
			cur += n
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		cur += uint64(len(b))
		return nil
	}
	for s := range dir {
		d := &dir[s]
		enc.encode(g, lists[s], d)
		if err := emit(d.offsetsOff, enc.offsets); err != nil {
			return err
		}
		if err := emit(d.edgesOff, enc.edges); err != nil {
			return err
		}
		if err := emit(d.vmapOff, enc.vmap); err != nil {
			return err
		}
	}
	if err := emit(align64(cur), nil); err != nil { // trailing pad
		return err
	}
	return bw.Flush()
}

// SaveBinaryV3File atomically writes the graph and assignment to path
// in v3 format (temp file + fsync + rename).
func SaveBinaryV3File(path string, g *CSR, parts []int32, k int, strategy uint32) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteBinaryV3(w, g, parts, k, strategy) })
}

// SaveCSRFile atomically writes g as a one-shard v3 file, the layout
// MapCSRFile (and ShardedFile.MapCSR) maps in place.
func SaveCSRFile(path string, g *CSR) error {
	return SaveBinaryV3File(path, g, make([]int32, g.NumVertices()), 1, V3PartitionRanges)
}

// V3Meta is the partition metadata a v3 file carries alongside the
// graph — everything the sharded engine otherwise computes at run time.
type V3Meta struct {
	Shards      int
	Strategy    uint32
	SourceHash  uint64
	EdgesSorted bool
	Parts       []int32
	CutEdges    int64
	Boundary    int
}

// readV3Bytes reads exactly n bytes through scratch-sized chunks,
// growing the result with the data so a lying header cannot balloon
// allocation past what the stream actually delivers.
func readV3Bytes(br io.Reader, scratch []byte, n uint64, what string) ([]byte, error) {
	out := make([]byte, 0, min(n, uint64(len(scratch))))
	for remaining := n; remaining > 0; {
		c := min(remaining, uint64(len(scratch)))
		b := scratch[:c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated v3 %s (%d of %d bytes read): %w",
				what, uint64(len(out)), n, err)
		}
		out = append(out, b...)
		remaining -= c
	}
	return out, nil
}

// decodeV3Shard decodes one shard's main sections from their stored
// bytes; validateShardSections checks them.
func decodeV3Shard(d *v3ShardDir, offB, edgeB, vmapB []byte) (offsets []int64, edges, vmap []VertexID) {
	offsets = make([]int64, d.nvLocal+1)
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(offB[8*i:]))
	}
	edges = make([]VertexID, d.neLocal)
	for i := range edges {
		edges[i] = binary.LittleEndian.Uint32(edgeB[4*i:])
	}
	vmap = make([]VertexID, d.nvLocal)
	for i := range vmap {
		vmap[i] = binary.LittleEndian.Uint32(vmapB[4*i:])
	}
	return offsets, edges, vmap
}

// ReadBinaryV3 deserializes a v3 stream by copying, reconstructing the
// global CSR from the shard-major sections and returning the persisted
// partition metadata. Every layer is verified: header and meta
// checksums, per-section CRCs (an older file's boundary blocks
// included, whose bytes are then ignored), structural invariants, the
// source content hash and the persisted totals against the
// reconstructed graph — a v3 file that loads here is guaranteed to
// stream correctly.
func ReadBinaryV3(r io.Reader) (*CSR, *V3Meta, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	hdr := make([]byte, binaryV3HeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, nil, fmt.Errorf("graph: truncated v3 header: %w", err)
	}
	f, err := parseV3Header(hdr)
	if err != nil {
		return nil, nil, err
	}
	if f.flags&binaryV3FlagBigEndian != 0 {
		return nil, nil, fmt.Errorf("graph: v3 big-endian payloads not supported (writers emit little-endian only)")
	}
	scratch := make([]byte, 8*binaryReadChunk)
	metaBytes, err := readV3Bytes(br, scratch, v3MetaLen(f.nv, f.shards), "meta section")
	if err != nil {
		return nil, nil, err
	}
	m, err := parseV3Meta(metaBytes, f)
	if err != nil {
		return nil, nil, err
	}
	cur := uint64(binaryV3HeaderSize) + uint64(len(metaBytes))
	section := func(off, n uint64, what string) ([]byte, error) {
		if off < cur {
			return nil, fmt.Errorf("graph: v3 %s offset %d behind stream position %d", what, off, cur)
		}
		if off > cur {
			if _, err := io.CopyN(io.Discard, br, int64(off-cur)); err != nil {
				return nil, fmt.Errorf("graph: truncated v3 padding before %s: %w", what, err)
			}
			cur = off
		}
		b, err := readV3Bytes(br, scratch, n, what)
		if err != nil {
			return nil, err
		}
		cur += n
		return b, nil
	}
	type shardPayload struct {
		offsets []int64
		edges   []VertexID
		vmap    []VertexID
	}
	shards := make([]shardPayload, f.shards)
	for s := range shards {
		d := &m.dir[s]
		offB, err := section(d.offsetsOff, (d.nvLocal+1)*8, fmt.Sprintf("shard %d offsets", s))
		if err != nil {
			return nil, nil, err
		}
		edgeB, err := section(d.edgesOff, d.neLocal*4, fmt.Sprintf("shard %d edges", s))
		if err != nil {
			return nil, nil, err
		}
		vmapB, err := section(d.vmapOff, d.nvLocal*4, fmt.Sprintf("shard %d vmap", s))
		if err != nil {
			return nil, nil, err
		}
		bndB, err := section(d.bndOff, d.bndLen(), fmt.Sprintf("shard %d boundary block", s))
		if err != nil {
			return nil, nil, err
		}
		sums := sumShardSections(offB, edgeB, vmapB, 1)
		sumA := uint64(sums.offsets)<<32 | uint64(sums.edges)
		sumB := uint64(sums.vmap)<<32 | uint64(crc32.Checksum(bndB, crcTable))
		if sumA != d.sumA || sumB != d.sumB {
			return nil, nil, fmt.Errorf("graph: v3 shard %d section checksum mismatch", s)
		}
		sp := &shards[s]
		sp.offsets, sp.edges, sp.vmap = decodeV3Shard(d, offB, edgeB, vmapB)
		if _, err := validateShardSections(s, f.nv, m.parts, sp.offsets, sp.edges, sp.vmap, sums.desc); err != nil {
			return nil, nil, err
		}
	}
	g := &CSR{Offsets: make([]int64, f.nv+1)}
	for s := range shards {
		sp := &shards[s]
		for i, v := range sp.vmap {
			g.Offsets[v+1] = sp.offsets[i+1] - sp.offsets[i]
		}
	}
	for v := uint64(0); v < f.nv; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	g.Edges = make([]VertexID, f.ne)
	for s := range shards {
		sp := &shards[s]
		for i, v := range sp.vmap {
			copy(g.Edges[g.Offsets[v]:g.Offsets[v+1]], sp.edges[sp.offsets[i]:sp.offsets[i+1]])
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: v3 payload invalid: %w", err)
	}
	if got := ContentHash(g); got != f.sourceHash {
		return nil, nil, fmt.Errorf("graph: v3 source hash mismatch (got %#x, want %#x)", got, f.sourceHash)
	}
	if f.sorted() != g.EdgesSorted() {
		return nil, nil, fmt.Errorf("graph: v3 sorted flag %v disagrees with payload", f.sorted())
	}
	cut, boundary := v3Totals(g, m.parts)
	if uint64(cut) != m.cutEdges || uint64(boundary) != m.boundary {
		return nil, nil, fmt.Errorf("graph: v3 totals (%d cut, %d boundary) disagree with payload (%d, %d)",
			m.cutEdges, m.boundary, cut, boundary)
	}
	meta := &V3Meta{
		Shards:      int(f.shards),
		Strategy:    f.strategy,
		SourceHash:  f.sourceHash,
		EdgesSorted: f.sorted(),
		Parts:       m.parts,
		CutEdges:    int64(m.cutEdges),
		Boundary:    int(m.boundary),
	}
	return g, meta, nil
}

// LoadBinaryV3File reads a v3 file from disk by copying.
func LoadBinaryV3File(path string) (*CSR, *V3Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadBinaryV3(f)
}
