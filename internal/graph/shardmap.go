package graph

import (
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync/atomic"
	"unsafe"
)

// ShardedFile is the random-access handle to a BCSR v3 file: the header
// and meta section (partition assignment, totals, shard directory) are
// read and fully verified at open and stay resident — O(V) for the
// parts array — while shard payloads are mapped on demand via MapShard
// and retired again, so a streaming run's peak memory is bounded by the
// shards it keeps mapped rather than the whole graph. The boundary
// blocks are never mapped: only the copying reader (LoadBinaryV3File,
// Materialize) reads and audits them.
// All methods are safe for concurrent use; the residency counters are
// the instrumentation the bounded-residency invariant test asserts on.
type ShardedFile struct {
	f    *os.File
	path string
	hdr  v3HeaderFields
	meta *v3Meta
	cl   closeOnce

	maps          atomic.Int64
	unmaps        atomic.Int64
	residentBytes atomic.Int64
	peakResident  atomic.Int64
}

// ShardMapStats is a snapshot of a handle's mapping activity.
type ShardMapStats struct {
	// Maps / Unmaps count shard-section mappings created and retired.
	Maps, Unmaps int64
	// ResidentBytes is the payload currently mapped (or pread-copied on
	// the fallback path); PeakResidentBytes its high-water mark.
	ResidentBytes, PeakResidentBytes int64
}

// OpenShardedFile opens a v3 file for random shard access. The header,
// partition assignment and directory are verified here (checksums,
// domains, layout recomputation); section payloads are verified at each
// MapShard. The handle keeps the file descriptor open until Close.
func OpenShardedFile(path string) (*ShardedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sf, err := newShardedFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return sf, nil
}

func newShardedFile(f *os.File, path string) (*ShardedFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < binaryV3HeaderSize {
		return nil, fmt.Errorf("graph: v3 file too short (%d bytes)", st.Size())
	}
	hdr := make([]byte, binaryV3HeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("graph: truncated v3 header: %w", err)
	}
	fields, err := parseV3Header(hdr)
	if err != nil {
		return nil, err
	}
	if fields.flags&binaryV3FlagBigEndian != 0 {
		return nil, fmt.Errorf("graph: v3 big-endian payloads not supported (writers emit little-endian only)")
	}
	metaLen := v3MetaLen(fields.nv, fields.shards)
	// Size-check before allocating: a lying header cannot balloon the
	// meta read past what the file actually holds.
	if uint64(st.Size()) < binaryV3HeaderSize+metaLen {
		return nil, fmt.Errorf("graph: v3 file truncated (%d bytes, meta section needs %d)",
			st.Size(), binaryV3HeaderSize+metaLen)
	}
	metaBytes := make([]byte, metaLen)
	if _, err := f.ReadAt(metaBytes, binaryV3HeaderSize); err != nil {
		return nil, fmt.Errorf("graph: truncated v3 meta section: %w", err)
	}
	m, err := parseV3Meta(metaBytes, fields)
	if err != nil {
		return nil, err
	}
	if uint64(st.Size()) < m.fileSize {
		return nil, fmt.Errorf("graph: v3 file truncated (%d bytes, layout needs %d)", st.Size(), m.fileSize)
	}
	return &ShardedFile{f: f, path: path, hdr: fields, meta: m}, nil
}

// NumVertices returns the global vertex count.
func (sf *ShardedFile) NumVertices() int { return int(sf.hdr.nv) }

// NumEdges returns the global directed adjacency entry count.
func (sf *ShardedFile) NumEdges() int64 { return int64(sf.hdr.ne) }

// Shards returns the partition count K.
func (sf *ShardedFile) Shards() int { return int(sf.hdr.shards) }

// Strategy returns the persisted V3Partition* strategy code.
func (sf *ShardedFile) Strategy() uint32 { return sf.hdr.strategy }

// SourceHash returns the ContentHash of the source CSR — the
// partition-cache key.
func (sf *ShardedFile) SourceHash() uint64 { return sf.hdr.sourceHash }

// EdgesSorted reports whether the source adjacency was sorted ascending
// (recorded at write time; lets the streamed attempt break at u>v
// exactly like the in-core engine).
func (sf *ShardedFile) EdgesSorted() bool { return sf.hdr.sorted() }

// Parts returns the persisted partition assignment. The slice is the
// handle's resident copy — callers must not mutate it.
func (sf *ShardedFile) Parts() []int32 { return sf.meta.parts }

// CutEdges returns the persisted cross-partition undirected edge count
// (partition.Classify semantics).
func (sf *ShardedFile) CutEdges() int64 { return int64(sf.meta.cutEdges) }

// Boundary returns the persisted boundary-vertex count
// (partition.Classify semantics).
func (sf *ShardedFile) Boundary() int { return int(sf.meta.boundary) }

// ShardSize returns shard s's vertex and adjacency-entry counts.
func (sf *ShardedFile) ShardSize(s int) (nv int, ne int64) {
	d := &sf.meta.dir[s]
	return int(d.nvLocal), int64(d.neLocal)
}

// Stats snapshots the mapping counters.
func (sf *ShardedFile) Stats() ShardMapStats {
	return ShardMapStats{
		Maps:              sf.maps.Load(),
		Unmaps:            sf.unmaps.Load(),
		ResidentBytes:     sf.residentBytes.Load(),
		PeakResidentBytes: sf.peakResident.Load(),
	}
}

// Close releases the file descriptor. Shard maps created earlier hold
// their own mappings and stay valid until their own Close; new MapShard
// calls fail. Idempotent, including under concurrent double-Close.
func (sf *ShardedFile) Close() error {
	if !sf.cl.first() {
		return nil
	}
	return sf.f.Close()
}

func (sf *ShardedFile) addResident(n int64) {
	if n == 0 {
		return
	}
	cur := sf.residentBytes.Add(n)
	for {
		peak := sf.peakResident.Load()
		if cur <= peak || sf.peakResident.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// loadRange maps (or, where mmap is unavailable, pread-copies) n bytes
// at off. view is the requested range; mapping is non-nil only when a
// real mmap backs it.
func (sf *ShardedFile) loadRange(off, n uint64) (mapping, view []byte, err error) {
	if hostLittleEndian() {
		if mapping, view, err = mmapRange(sf.f, off, n); err == nil {
			return mapping, view, nil
		}
	}
	view = make([]byte, n)
	if _, err := sf.f.ReadAt(view, int64(off)); err != nil {
		return nil, nil, fmt.Errorf("graph: v3 section read at %d: %w", off, err)
	}
	return nil, view, nil
}

// ShardMap is one shard's mapped main sections: local CSR offsets, the
// full global adjacency of the shard's vertices, and the local→global
// vertex map. The slices alias the mapping (or a pread copy) and are
// valid only until Close.
type ShardMap struct {
	sf      *ShardedFile
	shard   int
	mapping []byte
	bytes   int64
	cl      closeOnce

	// Offsets are local: Edges[Offsets[i]:Offsets[i+1]] is the global
	// adjacency of VMap[i].
	Offsets []int64
	Edges   []VertexID
	VMap    []VertexID

	contig bool // VMap is one contiguous ID range: LocalIndex is O(1)
}

// MapShard maps shard s's offsets+edges+vmap sections (one contiguous
// file range), verifies their CRCs and structural invariants, and
// charges the bytes to the handle's residency counters.
func (sf *ShardedFile) MapShard(s int) (*ShardMap, error) {
	if sf.cl.done() {
		return nil, fmt.Errorf("graph: ShardedFile used after Close")
	}
	if s < 0 || s >= sf.Shards() {
		return nil, fmt.Errorf("graph: shard %d out of range [0,%d)", s, sf.Shards())
	}
	d := &sf.meta.dir[s]
	end := d.vmapOff + d.nvLocal*4
	mapping, view, err := sf.loadRange(d.offsetsOff, end-d.offsetsOff)
	if err != nil {
		return nil, err
	}
	sm := &ShardMap{sf: sf, shard: s, mapping: mapping, bytes: int64(len(view))}
	offB := view[:(d.nvLocal+1)*8]
	edgeB := view[d.edgesOff-d.offsetsOff:][:d.neLocal*4]
	vmapB := view[d.vmapOff-d.offsetsOff:][:d.nvLocal*4]
	if sumA := uint64(crc32.Checksum(offB, crcTable))<<32 | uint64(crc32.Checksum(edgeB, crcTable)); sumA != d.sumA {
		releaseLoad(mapping)
		return nil, fmt.Errorf("graph: v3 shard %d section checksum mismatch", s)
	}
	if sumV := uint32(d.sumB >> 32); crc32.Checksum(vmapB, crcTable) != sumV {
		releaseLoad(mapping)
		return nil, fmt.Errorf("graph: v3 shard %d vmap checksum mismatch", s)
	}
	if mapping != nil {
		// LE host (loadRange only maps there): alias in place.
		sm.Offsets = unsafe.Slice((*int64)(unsafe.Pointer(&offB[0])), d.nvLocal+1)
		if d.neLocal > 0 {
			sm.Edges = unsafe.Slice((*VertexID)(unsafe.Pointer(&edgeB[0])), d.neLocal)
		} else {
			sm.Edges = []VertexID{}
		}
		if d.nvLocal > 0 {
			sm.VMap = unsafe.Slice((*VertexID)(unsafe.Pointer(&vmapB[0])), d.nvLocal)
		} else {
			sm.VMap = []VertexID{}
		}
		if err := validateShardSections(s, sf.hdr.nv, sf.meta.parts, sm.Offsets, sm.Edges, sm.VMap, d); err != nil {
			releaseLoad(mapping)
			return nil, err
		}
	} else {
		var err error
		if sm.Offsets, sm.Edges, sm.VMap, err = decodeV3Shard(s, d, sf.hdr.nv, sf.meta.parts, offB, edgeB, vmapB); err != nil {
			return nil, err
		}
	}
	n := len(sm.VMap)
	sm.contig = n > 0 && int(sm.VMap[n-1]-sm.VMap[0]) == n-1
	sf.maps.Add(1)
	sf.addResident(sm.bytes)
	return sm, nil
}

func releaseLoad(mapping []byte) {
	if mapping != nil {
		releaseMapping(mapping)
	}
}

// validateShardSections checks the invariants decodeV3Shard enforces,
// over already-typed (aliased) sections.
func validateShardSections(s int, nv uint64, parts []int32, offsets []int64, edges, vmap []VertexID, d *v3ShardDir) error {
	if offsets[0] != 0 {
		return fmt.Errorf("graph: v3 shard %d offsets start at %d", s, offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("graph: v3 shard %d offsets decrease at %d", s, i)
		}
	}
	if offsets[len(offsets)-1] != int64(d.neLocal) {
		return fmt.Errorf("graph: v3 shard %d offsets end at %d (directory claims %d entries)",
			s, offsets[len(offsets)-1], d.neLocal)
	}
	for _, e := range edges {
		if uint64(e) >= nv {
			return fmt.Errorf("graph: v3 shard %d edge destination %d out of range", s, e)
		}
	}
	for i, v := range vmap {
		if uint64(v) >= nv || parts[v] != int32(s) {
			return fmt.Errorf("graph: v3 shard %d vmap entry %d not a shard vertex", s, v)
		}
		if i > 0 && v <= vmap[i-1] {
			return fmt.Errorf("graph: v3 shard %d vmap not strictly ascending at %d", s, i)
		}
	}
	return nil
}

// LocalIndex translates a global vertex ID to its local index in this
// shard: O(1) when the shard holds a contiguous ID range (the ranges
// strategy), binary search otherwise.
func (sm *ShardMap) LocalIndex(v VertexID) (int, bool) {
	if len(sm.VMap) == 0 {
		return 0, false
	}
	if sm.contig {
		if v < sm.VMap[0] || v > sm.VMap[len(sm.VMap)-1] {
			return 0, false
		}
		return int(v - sm.VMap[0]), true
	}
	i := sort.Search(len(sm.VMap), func(i int) bool { return sm.VMap[i] >= v })
	if i == len(sm.VMap) || sm.VMap[i] != v {
		return 0, false
	}
	return i, true
}

// Neighbors returns the global adjacency of the vertex at local index i.
func (sm *ShardMap) Neighbors(i int) []VertexID {
	return sm.Edges[sm.Offsets[i]:sm.Offsets[i+1]]
}

// Mapped reports whether a real mmap backs the sections (false on the
// pread-copy fallback).
func (sm *ShardMap) Mapped() bool { return sm.mapping != nil }

// Close retires the shard's sections: MADV_DONTNEED + munmap on the
// mapped path, and in either case the bytes leave the residency
// counters. Idempotent, including under concurrent double-Close.
func (sm *ShardMap) Close() error {
	if !sm.cl.first() {
		return nil
	}
	sm.sf.unmaps.Add(1)
	sm.sf.addResident(-sm.bytes)
	mapping := sm.mapping
	sm.mapping = nil
	sm.Offsets, sm.Edges, sm.VMap = nil, nil, nil
	if mapping != nil {
		return releaseMapping(mapping)
	}
	return nil
}

// Materialize reconstructs the full in-core CSR (and re-verifies the
// whole file through the copying reader) — the eager path OpenGraphFile
// takes so a v3 file also serves the non-streaming engines.
func (sf *ShardedFile) Materialize() (*CSR, error) {
	if sf.cl.done() {
		return nil, fmt.Errorf("graph: ShardedFile used after Close")
	}
	g, meta, err := LoadBinaryV3File(sf.path)
	if err != nil {
		return nil, err
	}
	if meta.SourceHash != sf.hdr.sourceHash {
		return nil, fmt.Errorf("graph: v3 file changed since open (hash %#x, was %#x)",
			meta.SourceHash, sf.hdr.sourceHash)
	}
	return g, nil
}
