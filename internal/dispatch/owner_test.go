package dispatch

import "testing"

func TestOwner(t *testing.T) {
	cases := []struct {
		v    uint32
		p    int
		want int
	}{
		{0, 1, 0}, {17, 1, 0}, {0, 4, 0}, {1, 4, 1}, {7, 4, 3}, {8, 4, 0}, {1000003, 8, 3},
	}
	for _, c := range cases {
		if got := Owner(c.v, c.p); got != c.want {
			t.Fatalf("Owner(%d, %d) = %d, want %d", c.v, c.p, got, c.want)
		}
	}
	// Pattern-p dispatch partitions: each worker's owned set is exactly
	// the arithmetic sequence w, w+P, w+2P, …
	const p = 5
	for v := uint32(0); v < 100; v++ {
		if w := Owner(v, p); uint32(w) != v%p {
			t.Fatalf("Owner(%d, %d) = %d", v, p, w)
		}
	}
}

func TestForwardRingBoundAndPeak(t *testing.T) {
	r := NewForwardRing(3)
	if r.Cap() != 3 || r.Len() != 0 || r.Full() || r.Peak() != 0 {
		t.Fatalf("fresh ring: len=%d cap=%d full=%v peak=%d", r.Len(), r.Cap(), r.Full(), r.Peak())
	}
	for i := 0; i < 3; i++ {
		if !r.Push(Parked{Vertex: uint32(10 + i), Awaited: uint32(i)}) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if !r.Full() || r.Peak() != 3 {
		t.Fatalf("after 3 pushes: full=%v peak=%d", r.Full(), r.Peak())
	}
	if r.Push(Parked{Vertex: 20, Awaited: 5}) {
		t.Fatal("push accepted on a full ring")
	}
	if r.Len() != 3 {
		t.Fatalf("failed push changed occupancy: %d", r.Len())
	}
	// Drain one, push again: peak stays at the high-water mark.
	r.Drain(func(p Parked) (Parked, bool) { return p, p.Vertex == 10 })
	if r.Len() != 2 || r.Peak() != 3 {
		t.Fatalf("after partial drain: len=%d peak=%d", r.Len(), r.Peak())
	}
	// Reset empties the ring and clears the peak, so a pooled ring
	// serving a new run reports only that run's high-water mark.
	r.Reset()
	if r.Len() != 0 || r.Full() || r.Peak() != 0 {
		t.Fatalf("after Reset: len=%d full=%v peak=%d", r.Len(), r.Full(), r.Peak())
	}
	if !r.Push(Parked{Vertex: 7, Awaited: 1}) || r.Peak() != 1 {
		t.Fatalf("after Reset and one push: peak=%d, want 1", r.Peak())
	}
}

func TestForwardRingDefaultCapacity(t *testing.T) {
	if got := NewForwardRing(0).Cap(); got != 64 {
		t.Fatalf("default capacity = %d, want 64", got)
	}
}

func TestForwardRingPushPanicsOnRuleViolation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("push awaiting a higher-indexed vertex did not panic")
		}
	}()
	NewForwardRing(4).Push(Parked{Vertex: 3, Awaited: 7})
}

// TestForwardRingDrainWholeScan pins the reason Drain is not head-only:
// entries parked earlier can await vertices that only become resolvable
// after later entries resolve, including chains that re-park with a new
// awaited key mid-drain. One Drain call must ride the whole cascade.
func TestForwardRingDrainWholeScan(t *testing.T) {
	r := NewForwardRing(8)
	// colored[v] simulates the shared color array.
	colored := map[uint32]bool{1: true}
	// 9 awaits 5, 7 awaits 3, 5 awaits 3, 3 awaits 1 (already colored).
	// Head-only FIFO draining would stall on 9 immediately.
	for _, p := range []Parked{{9, 5, 0}, {7, 3, 0}, {5, 3, 0}, {3, 1, 0}} {
		if !r.Push(p) {
			t.Fatalf("push %+v rejected", p)
		}
	}
	// 7 additionally depends on 2 (uncolored, owned elsewhere): on replay
	// it re-parks awaiting 2, exercising the key-update path.
	reparked := false
	resolved := r.Drain(func(p Parked) (Parked, bool) {
		if !colored[p.Awaited] {
			return p, false
		}
		if p.Vertex == 7 && !colored[2] {
			reparked = true
			p.Awaited = 2
			return p, false
		}
		colored[p.Vertex] = true
		return Parked{}, true
	})
	if resolved != 3 {
		t.Fatalf("resolved %d of the chain, want 3 (9→5→3)", resolved)
	}
	if !reparked {
		t.Fatal("vertex 7 never re-parked on its second dependency")
	}
	if r.Len() != 1 || r.entries[0].Vertex != 7 || r.entries[0].Awaited != 2 {
		t.Fatalf("ring after drain: %+v", r.entries)
	}
	// The second dependency lands; the next drain finishes the ring.
	colored[2] = true
	if got := r.Drain(func(p Parked) (Parked, bool) {
		if !colored[p.Awaited] {
			return p, false
		}
		colored[p.Vertex] = true
		return Parked{}, true
	}); got != 1 || r.Len() != 0 {
		t.Fatalf("final drain resolved %d, len %d", got, r.Len())
	}
}

// Drain must terminate (and resolve nothing) when no entry can make
// progress — the caller's spin fallback handles the wait.
func TestForwardRingDrainNoProgress(t *testing.T) {
	r := NewForwardRing(4)
	r.Push(Parked{Vertex: 6, Awaited: 2})
	r.Push(Parked{Vertex: 8, Awaited: 2})
	if got := r.Drain(func(p Parked) (Parked, bool) { return p, false }); got != 0 {
		t.Fatalf("dry drain resolved %d", got)
	}
	if r.Len() != 2 {
		t.Fatalf("dry drain changed occupancy: %d", r.Len())
	}
}
