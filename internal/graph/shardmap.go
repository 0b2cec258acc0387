package graph

import (
	"encoding/binary"
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
// shards it keeps mapped rather than the whole graph. A one-shard file
// is also the zero-copy in-core format: MapCSR maps its only shard and
// uses the sections as the CSR in place. A multi-shard file colors in
// core through Materialize, which maps each shard once and copies its
// lists into one CSR. Older files' boundary blocks are never mapped;
// Materialize reads them to check their checksums and ignores them.
// MapShard checksums a shard on as many goroutines as its caller's run
// has workers, cutting each section longer than two minSplitBytes
// parts and joining the part checksums with a CRC32-C combine; MapCSR
// and Materialize map on one goroutine.
// All methods are safe for concurrent use; the residency counters are
// the instrumentation the bounded-residency invariant test asserts on.
type ShardedFile struct {
	f    *os.File
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
	sf, err := newShardedFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return sf, nil
}

func newShardedFile(f *os.File) (*ShardedFile, error) {
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
	return &ShardedFile{f: f, hdr: fields, meta: m}, nil
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
	sorted bool // every adjacency list is ascending (counted at map time)
}

// MapShard maps shard s's offsets+edges+vmap sections (one contiguous
// file range), verifies their CRCs and structural invariants, and
// charges the bytes to the handle's residency counters.
//
// The checksum pass runs on up to `workers` goroutines, the caller's
// among them: each section is cut into contiguous parts of at least
// minSplitBytes (a shorter section stays on one goroutine), each part
// is checksummed and its edges' descents counted, and the part
// checksums are joined with a CRC32-C combine. The list and vertex-map
// checks that follow run on the calling goroutine. The sections, Sorted
// and every error text are the same at every worker count. The stream
// passes its per-shard worker count and VerifyShardedParallel its own;
// MapCSR and Materialize map on one goroutine.
func (sf *ShardedFile) MapShard(s, workers int) (*ShardMap, error) {
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
	sums := sumShardSections(offB, edgeB, vmapB, workers)
	if uint64(sums.offsets)<<32|uint64(sums.edges) != d.sumA {
		releaseLoad(mapping)
		return nil, fmt.Errorf("graph: v3 shard %d section checksum mismatch", s)
	}
	if sums.vmap != uint32(d.sumB>>32) {
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
	} else {
		sm.Offsets, sm.Edges, sm.VMap = decodeV3Shard(d, offB, edgeB, vmapB)
	}
	if sm.sorted, err = validateShardSections(s, sf.hdr.nv, sf.meta.parts, sm.Offsets, sm.Edges, sm.VMap, sums.desc); err != nil {
		releaseLoad(mapping)
		return nil, err
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

// sumDescents returns the CRC32-C of an edges section as stored and
// the number of its entries below their predecessor (see descents). It
// reads the section once, in chunks small enough that the count finds
// each chunk still in cache after the checksum has read it.
func sumDescents(b []byte) (sum uint32, desc int) {
	const chunk = 32 << 10 // bytes; a multiple of 4
	direct := hostLittleEndian() && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0
	var buf []VertexID // the decoded chunk when b cannot be aliased
	var prev VertexID
	for lo := 0; lo < len(b); lo += chunk {
		c := b[lo:min(lo+chunk, len(b))]
		sum = crc32.Update(sum, crcTable, c)
		es := buf[:0]
		if direct {
			es = unsafe.Slice((*VertexID)(unsafe.Pointer(&c[0])), len(c)/4)
		} else {
			for i := 0; i+4 <= len(c); i += 4 {
				es = append(es, binary.LittleEndian.Uint32(c[i:]))
			}
			buf = es
		}
		if lo > 0 && es[0] < prev {
			desc++
		}
		desc += descents(es)
		prev = es[len(es)-1]
	}
	return sum, desc
}

// validateShardSections checks one shard's typed sections: its lists
// pass checkLists against the global vertex count (desc counts the
// edges' descents, as sumShardSections returns it), and the vertex map
// is strictly ascending over shard s's vertices. It reports whether
// every adjacency list is ascending.
func validateShardSections(s int, nv uint64, parts []int32, offsets []int64, edges, vmap []VertexID, desc int) (sorted bool, err error) {
	if sorted, err = checkLists(offsets, edges, nv, desc); err != nil {
		return false, fmt.Errorf("graph: v3 shard %d %w", s, err)
	}
	for i, v := range vmap {
		if uint64(v) >= nv || parts[v] != int32(s) {
			return false, fmt.Errorf("graph: v3 shard %d vmap entry %d not a shard vertex", s, v)
		}
		if i > 0 && v <= vmap[i-1] {
			return false, fmt.Errorf("graph: v3 shard %d vmap not strictly ascending at %d", s, i)
		}
	}
	return sorted, nil
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

// Sorted reports whether every adjacency list in the shard ascends, as
// MapShard counted it from the data.
func (sm *ShardMap) Sorted() bool { return sm.sorted }

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

// Materialize builds the whole graph in core, the path OpenGraphFile
// takes for a multi-shard file. It maps each shard once, on one
// goroutine, so MapShard checks the shard's section checksums, lists
// and vertex map; it scatters the shards' lists into one global CSR and
// closes every shard it mapped before it returns, on success or error.
// It then checks what no one shard can: the CSR validates, its content
// hash is the header's source hash, the header's sorted flag agrees
// with the lists, and the persisted cut and boundary totals are the
// graph's. An older file's boundary blocks, which MapShard never maps,
// are read and must match their checksums; their bytes are then
// ignored.
func (sf *ShardedFile) Materialize() (*CSR, error) {
	if sf.cl.done() {
		return nil, fmt.Errorf("graph: ShardedFile used after Close")
	}
	shards := make([]*ShardMap, 0, sf.Shards())
	defer func() {
		for _, sm := range shards {
			sm.Close()
		}
	}()
	g := &CSR{Offsets: make([]int64, sf.hdr.nv+1)}
	var bnd []byte
	for s := range sf.meta.dir {
		sm, err := sf.MapShard(s, 1)
		if err != nil {
			return nil, err
		}
		shards = append(shards, sm)
		if d := &sf.meta.dir[s]; d.bndLen() > 0 {
			bnd = v3Grow(bnd, d.bndLen())
			if _, err := sf.f.ReadAt(bnd, int64(d.bndOff)); err != nil {
				return nil, fmt.Errorf("graph: v3 section read at %d: %w", d.bndOff, err)
			}
			if crc32.Checksum(bnd, crcTable) != uint32(d.sumB) {
				return nil, fmt.Errorf("graph: v3 shard %d section checksum mismatch", s)
			}
		}
		for i, v := range sm.VMap {
			g.Offsets[v+1] = sm.Offsets[i+1] - sm.Offsets[i]
		}
	}
	for v := range sf.hdr.nv {
		g.Offsets[v+1] += g.Offsets[v]
	}
	g.Edges = make([]VertexID, sf.hdr.ne)
	for _, sm := range shards {
		for i, v := range sm.VMap {
			copy(g.Edges[g.Offsets[v]:g.Offsets[v+1]], sm.Neighbors(i))
		}
		sm.Close()
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: v3 payload invalid: %w", err)
	}
	if got := ContentHash(g); got != sf.hdr.sourceHash {
		return nil, fmt.Errorf("graph: v3 source hash mismatch (got %#x, want %#x)", got, sf.hdr.sourceHash)
	}
	if sf.hdr.sorted() != g.EdgesSorted() {
		return nil, fmt.Errorf("graph: v3 sorted flag %v disagrees with payload", sf.hdr.sorted())
	}
	cut, boundary := v3Totals(g, sf.meta.parts)
	if uint64(cut) != sf.meta.cutEdges || uint64(boundary) != sf.meta.boundary {
		return nil, fmt.Errorf("graph: v3 totals (%d cut, %d boundary) disagree with payload (%d, %d)",
			sf.meta.cutEdges, sf.meta.boundary, cut, boundary)
	}
	return g, nil
}

// MappedCSR is the in-core graph of a one-shard BCSR v3 file: its
// Offsets and Edges are shard 0's sections, aliased in place (or
// pread-copied where mapping is unavailable). Close releases the shard;
// using the graph after Close is a use-after-free, so Graph panics
// once closed.
type MappedCSR struct {
	g     *CSR
	sm    *ShardMap
	close closeOnce
}

// MapCSR maps the only shard of a one-shard file, on one goroutine,
// and returns it as the whole graph. MapShard's pass has already
// checked the checksums, the offsets, every destination and the vertex
// map — which, with one shard covering every vertex, is the identity,
// so the local offsets are the global ones — and counted the lists'
// sortedness from the data, which the CSR records (never the header's
// flag). The shard map is charged to the handle's residency counters
// until the MappedCSR is closed.
func (sf *ShardedFile) MapCSR() (*MappedCSR, error) {
	if sf.Shards() != 1 {
		return nil, fmt.Errorf("graph: MapCSR needs a one-shard v3 file (this one has %d shards)", sf.Shards())
	}
	sm, err := sf.MapShard(0, 1)
	if err != nil {
		return nil, err
	}
	m := &MappedCSR{g: &CSR{Offsets: sm.Offsets, Edges: sm.Edges}, sm: sm}
	m.g.recordSorted(sm.sorted)
	if sm.Mapped() {
		m.g.backing = m
	}
	return m, nil
}

// MapCSRFile opens a one-shard v3 file and maps its CSR. The shard map
// holds its own mapping, so the file handle closes at once.
func MapCSRFile(path string) (*MappedCSR, error) {
	sf, err := OpenShardedFile(path)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	return sf.MapCSR()
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
// on the pread-copy fallback).
func (m *MappedCSR) Mapped() bool { return m.g.backing != nil }

// Close unmaps the shard and invalidates the graph view. Idempotent,
// including under concurrent double-Close: only the first caller
// releases the shard.
func (m *MappedCSR) Close() error {
	if !m.close.first() {
		return nil
	}
	m.g.Offsets, m.g.Edges = nil, nil
	return m.sm.Close()
}
