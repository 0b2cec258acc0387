package graph

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCRCCombine holds crcCombine to crc32.Checksum over the joined
// bytes: random splits of random data, including empty, 1–3-byte and
// unaligned parts, and a multi-MiB section cut into 1 to 8 parts the
// way MapShard cuts one.
func TestCRCCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 5<<20+3)
	rng.Read(data)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 63, 64, 65, 4095, 4097, 1 << 16, 3<<20 + 1} {
		for trial := 0; trial < 8; trial++ {
			start := rng.Intn(8) // an unaligned start half the time
			ab := data[start : start+n]
			cut := 0
			switch {
			case trial == 1:
				cut = n
			case trial > 1 && n > 0:
				cut = rng.Intn(n + 1)
			}
			a, b := ab[:cut], ab[cut:]
			got := crcCombine(crc32.Checksum(a, crcTable), crc32.Checksum(b, crcTable), len(b))
			if want := crc32.Checksum(ab, crcTable); got != want {
				t.Fatalf("n=%d cut=%d start=%d: combine %#x, want %#x", n, cut, start, got, want)
			}
		}
	}
	section := data[:5<<20]
	want := crc32.Checksum(section, crcTable)
	for parts := 1; parts <= 8; parts++ {
		var sum uint32
		for w := 0; w < parts; w++ {
			p := sectionPart(section, parts, w)
			sum = crcCombine(sum, crc32.Checksum(p, crcTable), len(p))
		}
		if sum != want {
			t.Fatalf("%d parts: joined %#x, want %#x", parts, sum, want)
		}
	}
}

// splitTestGraph is big enough that MapShard splits every section at 2
// or more workers in one shard: 3.2 MB of edges and 1.6 MB of offsets
// (four parts at four workers) and 800 KB of vertex map (two parts).
func splitTestGraph(t testing.TB) *CSR {
	return v3TestGraph(t, 200000, 400000, 37)
}

// mapAt maps shard s at `workers` and returns the map (nil on error)
// and the error text ("" on success).
func mapAt(t *testing.T, sf *ShardedFile, s, workers int) (*ShardMap, string) {
	t.Helper()
	sm, err := sf.MapShard(s, workers)
	if err != nil {
		return nil, err.Error()
	}
	return sm, ""
}

// sameShardMap fails unless two maps of one shard hold the same
// sections and sortedness.
func sameShardMap(t *testing.T, got, want *ShardMap, label string) {
	t.Helper()
	if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Edges, want.Edges) ||
		!slices.Equal(got.VMap, want.VMap) || got.Sorted() != want.Sorted() {
		t.Fatalf("%s: sections or Sorted (%v, want %v) differ from one worker's", label, got.Sorted(), want.Sorted())
	}
}

// checkReleased fails unless every map the handle made is closed.
func checkReleased(t *testing.T, sf *ShardedFile, label string) {
	t.Helper()
	if st := sf.Stats(); st.Maps != st.Unmaps || st.ResidentBytes != 0 {
		t.Fatalf("%s: maps %d, unmaps %d, resident %d bytes", label, st.Maps, st.Unmaps, st.ResidentBytes)
	}
}

// TestShardMapSplitMatchesOneWorker maps every shard of the v3 fixtures
// and of files whose sections split, at 1 to 4 workers: the sections
// and Sorted equal the one-worker map's.
func TestShardMapSplitMatchesOneWorker(t *testing.T) {
	g := splitTestGraph(t)
	n := g.NumVertices()
	paths := map[string]string{
		"legacy fixture": legacyPath("legacy-v3-4shard.bcsr"),
		"one shard":      writeV3File(t, g, make([]int32, n), 1, V3PartitionRanges),
		"2 ranges":       writeV3File(t, g, rangeParts(n, 2), 2, V3PartitionRanges),
		"3 scattered":    writeV3File(t, g, scatterParts(n, 3), 3, V3PartitionLabelProp),
	}
	for label, path := range paths {
		sf, err := OpenShardedFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < sf.Shards(); s++ {
			one, _ := mapAt(t, sf, s, 1)
			if one == nil {
				t.Fatalf("%s shard %d: one-worker map failed", label, s)
			}
			for w := 2; w <= 4; w++ {
				sm, msg := mapAt(t, sf, s, w)
				if sm == nil {
					t.Fatalf("%s shard %d w=%d: %s", label, s, w, msg)
				}
				sameShardMap(t, sm, one, fmt.Sprintf("%s shard %d w=%d", label, s, w))
				sm.Close()
			}
			one.Close()
		}
		checkReleased(t, sf, label)
		sf.Close()
	}
}

// v3Sections locates shard s's offsets, edges and vertex-map sections
// in a file image.
func v3Sections(t *testing.T, path string, s int) (img []byte, off, edges, vmap [2]int) {
	t.Helper()
	sf, err := OpenShardedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d := sf.meta.dir[s]
	sf.Close()
	if img, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	off = [2]int{int(d.offsetsOff), int(d.offsetsOff + (d.nvLocal+1)*8)}
	edges = [2]int{int(d.edgesOff), int(d.edgesOff + d.neLocal*4)}
	vmap = [2]int{int(d.vmapOff), int(d.vmapOff + d.nvLocal*4)}
	return img, off, edges, vmap
}

// mapErrorsAgree writes img and requires MapShard of shard s to fail
// with the same text at 1 to 4 workers, containing want, and leave
// nothing mapped.
func mapErrorsAgree(t *testing.T, img []byte, s int, want, label string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.bcsr")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := OpenShardedFile(path)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	defer sf.Close()
	_, first := mapAt(t, sf, s, 1)
	if !strings.Contains(first, want) {
		t.Fatalf("%s: one worker: error %q, want one containing %q", label, first, want)
	}
	for w := 2; w <= 4; w++ {
		if sm, msg := mapAt(t, sf, s, w); sm != nil || msg != first {
			t.Fatalf("%s: w=%d: error %q, want %q", label, w, msg, first)
		}
	}
	checkReleased(t, sf, label)
}

// TestShardMapSplitChecksumErrors flips a byte in each part of every
// section at each worker count that splits it: the checksum error has
// the one-worker text at every worker count.
func TestShardMapSplitChecksumErrors(t *testing.T) {
	g := splitTestGraph(t)
	path := writeV3File(t, g, make([]int32, g.NumVertices()), 1, V3PartitionRanges)
	img, off, edges, vmap := v3Sections(t, path, 0)
	for _, sec := range []struct {
		name string
		span [2]int
		want string
	}{
		{"offsets", off, "v3 shard 0 section checksum mismatch"},
		{"edges", edges, "v3 shard 0 section checksum mismatch"},
		{"vmap", vmap, "v3 shard 0 vmap checksum mismatch"},
	} {
		b := img[sec.span[0]:sec.span[1]]
		for w := 2; w <= 4; w++ {
			parts := splitParts(len(b), w)
			if sec.name != "vmap" && parts != w {
				t.Fatalf("%s: %d bytes split into %d parts at w=%d", sec.name, len(b), parts, w)
			}
			for p := 0; p < parts; p++ {
				lo, _ := partRange(len(b)/4, parts, p)
				at := sec.span[0] + 4*lo + 5
				bad := slices.Clone(img)
				bad[at] ^= 0x04
				mapErrorsAgree(t, bad, 0, sec.want, fmt.Sprintf("%s part %d of %d", sec.name, p, parts))
			}
		}
	}
}

// TestShardMapSplitSeamDescent reverses one adjacent pair of entries at
// every seam where w workers cut a shard's edges section, each pair
// inside one list. At w every descent lies on a seam, so only the seam
// comparisons can tell the lists are unsorted; every worker count must
// report Sorted false and the one-worker sections.
func TestShardMapSplitSeamDescent(t *testing.T) {
	for w := 2; w <= 4; w++ {
		g := v3TestGraph(t, 4000, 500000, 41)
		n := g.NumVertices()
		parts := rangeParts(n, 2)
		for s, lo := range []int{0, n / 2} {
			base := g.Offsets[lo]
			ne := int(g.Offsets[[]int{n / 2, n}[s]] - base)
			for p := 1; p < w; p++ {
				lo, _ := partRange(ne, w, p)
				at := base + int64(lo)
				v, _ := slices.BinarySearch(g.Offsets, at+1)
				if g.Offsets[v-1] >= at { // at-1 and at would sit in two lists
					t.Fatalf("w=%d shard %d: seam %d starts a list", w, s, at)
				}
				g.Edges[at-1], g.Edges[at] = g.Edges[at], g.Edges[at-1]
			}
		}
		g.ResetSorted()
		sf, err := OpenShardedFile(writeV3File(t, g, parts, 2, V3PartitionRanges))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			one, msg := mapAt(t, sf, s, 1)
			if one == nil || one.Sorted() {
				t.Fatalf("w=%d shard %d: one worker: %q, sorted %v", w, s, msg, one != nil && one.Sorted())
			}
			for x := 2; x <= 4; x++ {
				sm, msg := mapAt(t, sf, s, x)
				if sm == nil {
					t.Fatalf("w=%d shard %d at %d workers: %s", w, s, x, msg)
				}
				sameShardMap(t, sm, one, fmt.Sprintf("seams of %d, shard %d at %d workers", w, s, x))
				sm.Close()
			}
			one.Close()
		}
		checkReleased(t, sf, fmt.Sprintf("seams of %d", w))
		sf.Close()
	}
}
