package bayeux

import (
	"math/rand"
	"testing"

	"selectps/internal/overlay"
	"selectps/internal/overlay/check"
)

func build(n int) *Overlay {
	return New(n, Config{}, rand.New(rand.NewSource(1)))
}

func TestDigitHelpers(t *testing.T) {
	var id uint32 = 0b11_10_01_00 << 24 // digits 3,2,1,0,...
	for l, want := range []int{3, 2, 1, 0} {
		if got := digit(id, l); got != want {
			t.Errorf("digit(%d) = %d, want %d", l, got, want)
		}
	}
	if got := sharedPrefix(id, id); got != numLevels {
		t.Errorf("sharedPrefix(x,x) = %d", got)
	}
	if got := sharedPrefix(0xFF000000, 0x00000000); got != 0 {
		t.Errorf("sharedPrefix differing first digit = %d", got)
	}
	// 0xFC = digits 11,11,11,00…; 0xFF = 11,11,11,11… → 3 shared digits.
	if got := sharedPrefix(0xFC000000, 0xFF000000); got != 3 {
		t.Errorf("sharedPrefix = %d, want 3", got)
	}
}

func TestUniqueIDs(t *testing.T) {
	o := build(500)
	seen := make(map[uint32]bool)
	for p := 0; p < 500; p++ {
		id := o.ID(overlay.PeerID(p))
		if seen[id] {
			t.Fatalf("duplicate id %x", id)
		}
		seen[id] = true
	}
}

func TestRouteAllPairsSample(t *testing.T) {
	o := build(300)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		src := overlay.PeerID(rng.Intn(300))
		dst := overlay.PeerID(rng.Intn(300))
		path, ok := o.Route(src, dst)
		if !ok {
			t.Fatalf("route %d->%d failed", src, dst)
		}
		if path[0] != src || path[len(path)-1] != dst {
			t.Fatalf("bad endpoints %v", path)
		}
		// Prefix routing: hop count bounded by levels plus small surrogate
		// slack.
		if path.Hops() > numLevels+4 {
			t.Fatalf("route %d->%d took %d hops", src, dst, path.Hops())
		}
	}
}

func TestRouteSelf(t *testing.T) {
	o := build(10)
	path, ok := o.Route(4, 4)
	if !ok || path.Hops() != 0 {
		t.Errorf("self route = %v, %v", path, ok)
	}
}

func TestRendezvousRootDeterministic(t *testing.T) {
	o := build(100)
	r1, ok1 := o.RendezvousRoot(7)
	r2, ok2 := o.RendezvousRoot(7)
	if !ok1 || !ok2 || r1 != r2 {
		t.Errorf("rendezvous root unstable: %d vs %d", r1, r2)
	}
	// Different topics should (usually) map to different roots.
	r3, _ := o.RendezvousRoot(8)
	r4, _ := o.RendezvousRoot(9)
	if r1 == r3 && r3 == r4 {
		t.Error("all topics mapped to one root; suspicious")
	}
}

func TestDisseminationTreeCoversSubscribers(t *testing.T) {
	o := build(200)
	subs := []overlay.PeerID{3, 30, 77, 120, 199}
	tree, failed := o.DisseminationTree(10, subs)
	if len(failed) != 0 {
		t.Fatalf("failed: %v", failed)
	}
	if tree.Root != 10 {
		t.Fatalf("root = %d", tree.Root)
	}
	for _, s := range subs {
		if !tree.Contains(s) {
			t.Errorf("subscriber %d missing", s)
		}
	}
	root, _ := o.RendezvousRoot(10)
	if !tree.Contains(root) {
		t.Error("rendezvous root missing from tree")
	}
}

func TestDisseminationProducesRelays(t *testing.T) {
	o := build(400)
	subs := []overlay.PeerID{5, 100, 200, 300}
	tree, _ := o.DisseminationTree(0, subs)
	isSub := func(p overlay.PeerID) bool {
		for _, s := range subs {
			if s == p {
				return true
			}
		}
		return false
	}
	if tree.RelayNodes(isSub) == 0 {
		t.Error("Bayeux rendezvous tree should contain relay nodes")
	}
}

func TestChurnRouting(t *testing.T) {
	o := build(300)
	rng := rand.New(rand.NewSource(3))
	// 15% of peers offline.
	for i := 0; i < 45; i++ {
		o.SetOnline(overlay.PeerID(rng.Intn(300)), false)
	}
	o.Repair()
	okCount, total := 0, 0
	for i := 0; i < 200; i++ {
		src := overlay.PeerID(rng.Intn(300))
		dst := overlay.PeerID(rng.Intn(300))
		if !o.Online(src) || !o.Online(dst) {
			continue
		}
		total++
		path, ok := o.Route(src, dst)
		if !ok {
			continue
		}
		okCount++
		for _, p := range path[1 : len(path)-1] {
			if !o.Online(p) {
				t.Fatalf("route used offline peer %d", p)
			}
		}
	}
	if total == 0 || float64(okCount)/float64(total) < 0.9 {
		t.Errorf("only %d/%d routes survived churn", okCount, total)
	}
}

func TestPositionsMirrorIDs(t *testing.T) {
	o := build(50)
	for p := overlay.PeerID(0); p < 50; p++ {
		if !o.Position(p).Valid() {
			t.Fatalf("invalid position for %d", p)
		}
		want := float64(o.ID(p)) / (1 << 32)
		if float64(o.Position(p)) != want {
			t.Fatalf("position %v != id-derived %v", o.Position(p), want)
		}
	}
}

func TestLinksMirrorTables(t *testing.T) {
	o := build(120)
	for p := overlay.PeerID(0); p < 120; p++ {
		if o.Degree(p) == 0 {
			t.Errorf("peer %d has no links", p)
		}
		for _, q := range o.Links(p) {
			if q == p {
				t.Errorf("peer %d links to itself", p)
			}
		}
	}
}

// TestStructuralInvariants holds the built overlay to the executable
// invariants of internal/overlay/check: distinct in-range positions,
// well-formed links, one connected component, routes that terminate.
func TestStructuralInvariants(t *testing.T) {
	o := build(300)
	if r := check.All(o, 100, rand.New(rand.NewSource(9))); !r.Ok() {
		t.Fatalf("invariants violated:\n%s", r)
	}
}
