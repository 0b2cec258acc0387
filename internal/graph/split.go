package graph

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
)

// MapShard's checksum pass splits across the caller's workers. Each
// section is cut into contiguous parts of at least minSplitBytes, one
// per goroutine: the checksums are taken per part and joined with
// crcCombine, and the edges' descents are counted per part plus one
// comparison at each seam. The results are the one-goroutine ones.

// minSplitBytes is the smallest part a section is cut into: a section
// shorter than two of them stays on one goroutine. Measured on a 2-vCPU
// host (one-shard maps at one and two workers, 401 alternating pairs
// per size), two goroutines checksummed 256–512 KiB of edges ~9% slower
// than one, broke even at 640 KiB and were 8% faster at 768 KiB, 18% at
// 1 MiB and 29% at 2 MiB.
const minSplitBytes = 384 << 10

// splitParts is how many parts a section of n bytes is cut into at
// `workers` goroutines: as many as the workers, but none shorter than
// minSplitBytes, and at least one.
func splitParts(n, workers int) int {
	return max(1, min(workers, n/minSplitBytes))
}

// partRange returns part w of [0, n) cut into `parts` contiguous ranges.
func partRange(n, parts, w int) (lo, hi int) {
	return n * w / parts, n * (w + 1) / parts
}

// sectionPart returns part w of a section of 4-byte entries cut into
// `parts` contiguous pieces; the seams fall between entries, so a part
// of an aligned section stays aligned.
func sectionPart(b []byte, parts, w int) []byte {
	lo, hi := partRange(len(b)/4, parts, w)
	return b[4*lo : 4*hi]
}

// fanOut runs f(0), …, f(parts-1) on `parts` goroutines — f(0) on the
// calling one — and returns when all have.
func fanOut(parts int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for w := 1; w < parts; w++ {
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// shardSums holds the CRC32-C of one shard's offsets, edges and vertex
// map sections as stored, and the number of descents in its edges (see
// descents).
type shardSums struct {
	offsets, edges, vmap uint32
	desc                 int
}

// sumShardSections checksums a shard's three main sections, each split
// into splitParts(len, workers) parts, and counts the edges' descents
// with them (sumDescents per part, plus the seams).
func sumShardSections(offB, edgeB, vmapB []byte, workers int) (s shardSums) {
	po, pe, pv := splitParts(len(offB), workers), splitParts(len(edgeB), workers), splitParts(len(vmapB), workers)
	ps := make([]shardSums, max(po, pe, pv)) // part w's sums
	fanOut(len(ps), func(w int) {
		p := &ps[w]
		if w < po {
			p.offsets = crc32.Checksum(sectionPart(offB, po, w), crcTable)
		}
		if w < pe {
			p.edges, p.desc = sumDescents(sectionPart(edgeB, pe, w))
		}
		if w < pv {
			p.vmap = crc32.Checksum(sectionPart(vmapB, pv, w), crcTable)
		}
	})
	for w, p := range ps {
		if w < po {
			s.offsets = crcCombine(s.offsets, p.offsets, len(sectionPart(offB, po, w)))
		}
		if w < pe {
			s.edges = crcCombine(s.edges, p.edges, len(sectionPart(edgeB, pe, w)))
			s.desc += p.desc
			if lo, _ := partRange(len(edgeB)/4, pe, w); lo > 0 && // the descent across the seam
				binary.LittleEndian.Uint32(edgeB[4*lo:]) < binary.LittleEndian.Uint32(edgeB[4*lo-4:]) {
				s.desc++
			}
		}
		if w < pv {
			s.vmap = crcCombine(s.vmap, p.vmap, len(sectionPart(vmapB, pv, w)))
		}
	}
	return s
}

// crcCombine returns the CRC32-C of A‖B from crcA, crcB and len(B), as
// zlib's crc32_combine does for its polynomial: appending lenB bytes
// multiplies A's remainder by x^(8·lenB) modulo P, and the pre- and
// post-inversion of both checksums cancel, so
// crc(A‖B) = crc(A)·x^(8·lenB) mod P ⊕ crc(B). crcCombine(0, crcB, n)
// is crcB, so a join can start from 0.
func crcCombine(crcA, crcB uint32, lenB int) uint32 {
	p := uint32(1) << 31 // x^0
	for k, n := 3, uint64(lenB); n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			p = mulModP(x2nModP[k], p)
		}
	}
	return mulModP(p, crcA) ^ crcB
}

// x2nModP[k] is x^(2^k) modulo the Castagnoli polynomial; its 64
// entries cover any lenB below 2^61.
var x2nModP = func() (t [64]uint32) {
	t[0] = 1 << 30 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = mulModP(t[k-1], t[k-1])
	}
	return t
}()

// mulModP multiplies two polynomials modulo the Castagnoli polynomial,
// both in hash/crc32's bit-reflected form (bit 31 is x^0).
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}
