package symphony

import (
	"math"
	"math/rand"
	"testing"

	"selectps/internal/overlay"
	"selectps/internal/overlay/check"
)

func build(n, k int, seed int64) *Overlay {
	return New(n, Config{K: k}, rand.New(rand.NewSource(seed)))
}

func TestConstruction(t *testing.T) {
	o := build(128, 7, 1)
	if o.Name() != "symphony" || o.N() != 128 || o.K() != 7 {
		t.Fatalf("metadata wrong: %s %d %d", o.Name(), o.N(), o.K())
	}
	for p := overlay.PeerID(0); p < 128; p++ {
		if !o.Position(p).Valid() {
			t.Fatalf("peer %d invalid position", p)
		}
		// 2 ring links + up to k outgoing long links + mirrored incoming
		// links (bi-directional routing).
		if d := o.Degree(p); d < 3 {
			t.Errorf("peer %d degree %d too low", p, d)
		}
	}
}

func TestAllLookupsSucceed(t *testing.T) {
	o := build(256, 8, 2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		src := overlay.PeerID(rng.Intn(256))
		dst := overlay.PeerID(rng.Intn(256))
		path, ok := overlay.RouteOn(o, src, dst)
		if !ok {
			t.Fatalf("lookup %d->%d failed", src, dst)
		}
		if path[len(path)-1] != dst {
			t.Fatalf("lookup ended at %d, want %d", path[len(path)-1], dst)
		}
	}
}

func TestLogarithmicHops(t *testing.T) {
	// Average lookup hops should scale ~O(log^2 N / k) — in particular stay
	// far below N and grow slowly with N.
	avg := func(n int) float64 {
		o := build(n, int(math.Log2(float64(n))), 4)
		rng := rand.New(rand.NewSource(5))
		total := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			src := overlay.PeerID(rng.Intn(n))
			dst := overlay.PeerID(rng.Intn(n))
			path, ok := overlay.RouteOn(o, src, dst)
			if !ok {
				t.Fatalf("lookup failed at n=%d", n)
			}
			total += path.Hops()
		}
		return float64(total) / trials
	}
	a512 := avg(512)
	a2048 := avg(2048)
	if a512 > 12 {
		t.Errorf("avg hops at n=512 = %.1f, too high for small world", a512)
	}
	if a2048 > a512*3 {
		t.Errorf("hops grew too fast: %.1f -> %.1f", a512, a2048)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := build(64, 5, 7)
	b := build(64, 5, 7)
	for p := overlay.PeerID(0); p < 64; p++ {
		la, lb := a.Links(p), b.Links(p)
		if len(la) != len(lb) {
			t.Fatalf("peer %d link count differs", p)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("peer %d links differ", p)
			}
		}
	}
}

func TestRepairRemovesOfflineLongLinks(t *testing.T) {
	o := build(128, 6, 8)
	rng := rand.New(rand.NewSource(9))
	// Take 20 peers offline.
	for i := 0; i < 20; i++ {
		o.SetOnline(overlay.PeerID(rng.Intn(128)), false)
	}
	o.Repair()
	for p := overlay.PeerID(0); p < 128; p++ {
		if !o.Online(p) {
			continue
		}
		offLinks := 0
		for _, q := range o.Links(p) {
			if !o.Online(q) {
				offLinks++
			}
		}
		// Ring links to offline neighbors are allowed to remain; long links
		// should have been replaced. At most the 2 ring links may be dead.
		if offLinks > 2 {
			t.Errorf("peer %d still has %d offline links after repair", p, offLinks)
		}
	}
}

func TestTinyNetworks(t *testing.T) {
	if o := build(1, 4, 1); o.Degree(0) != 0 {
		t.Error("singleton peer should have no links")
	}
	o := build(2, 4, 1)
	if !o.HasLink(0, 1) || !o.HasLink(1, 0) {
		t.Error("two-peer ring not wired")
	}
	o.SetOnline(1, false)
	o.Repair() // must not panic or loop
}

func TestUnicastDissemination(t *testing.T) {
	o := build(200, 8, 10)
	subs := []overlay.PeerID{5, 50, 100, 150, 199}
	tree, failed := overlay.BuildTree(o, 0, subs)
	if len(failed) > 0 {
		t.Fatalf("failed subscribers: %v", failed)
	}
	isSub := func(p overlay.PeerID) bool {
		for _, s := range subs {
			if s == p {
				return true
			}
		}
		return false
	}
	// Social-oblivious overlay: almost surely some relay nodes appear.
	if tree.RelayNodes(isSub) == 0 {
		t.Error("expected relay nodes on Symphony dissemination")
	}
}

// TestStructuralInvariants holds the built overlay to the executable
// invariants of internal/overlay/check: distinct in-range positions,
// well-formed links, one connected component, routes that terminate.
func TestStructuralInvariants(t *testing.T) {
	o := build(256, 8, 1)
	if r := check.All(o, 100, rand.New(rand.NewSource(9))); !r.Ok() {
		t.Fatalf("invariants violated:\n%s", r)
	}
}
