package omen

import (
	"math/rand"
	"testing"

	"selectps/internal/datasets"
	"selectps/internal/overlay"
	"selectps/internal/overlay/check"
)

func build(t *testing.T, n int, seed int64) *Overlay {
	t.Helper()
	g := datasets.Facebook.Generate(n, seed)
	return New(g, Config{MaxDegree: 16}, rand.New(rand.NewSource(seed)))
}

func TestConstruction(t *testing.T) {
	o := build(t, 300, 1)
	if o.Name() != "omen" || o.N() != 300 {
		t.Fatal("metadata wrong")
	}
	if o.Iterations() < 1 {
		t.Errorf("Iterations = %d", o.Iterations())
	}
}

func TestTopicEdgesSymmetric(t *testing.T) {
	o := build(t, 250, 2)
	for p := overlay.PeerID(0); p < 250; p++ {
		for _, q := range o.TopicLinks(p) {
			if !o.hasTopicEdge(q, p) {
				t.Fatalf("topic edge %d-%d not symmetric", p, q)
			}
		}
	}
}

func TestTopicsConnected(t *testing.T) {
	// After convergence (no churn), the vast majority of topics must be
	// connected; the degree cap may leave a handful split.
	g := datasets.Facebook.Generate(300, 3)
	o := New(g, Config{MaxDegree: 16}, rand.New(rand.NewSource(3)))
	disconnected := 0
	for tpc := overlay.PeerID(0); tpc < 300; tpc++ {
		members := o.topicMembers(tpc)
		if len(members) < 2 {
			continue
		}
		if len(o.components(members, false)) > 1 {
			disconnected++
		}
	}
	if disconnected > 15 { // 5%
		t.Errorf("%d of 300 topics still disconnected", disconnected)
	}
}

func TestDisseminationMostlyRelayFree(t *testing.T) {
	// Within a connected TCO, dissemination between topic members should
	// need few or no relay nodes.
	g := datasets.Facebook.Generate(300, 4)
	o := New(g, Config{MaxDegree: 16}, rand.New(rand.NewSource(4)))
	rng := rand.New(rand.NewSource(5))
	totalRelays, trials := 0, 0
	for i := 0; i < 50; i++ {
		pub := overlay.PeerID(rng.Intn(300))
		subs := g.Neighbors(pub)
		if len(subs) == 0 {
			continue
		}
		tree, failed := o.DisseminationTree(pub, subs)
		if len(failed) > 0 {
			t.Fatalf("publisher %d failed subs %v", pub, failed)
		}
		isSub := func(p overlay.PeerID) bool { return g.HasEdge(pub, p) }
		totalRelays += tree.RelayNodes(isSub)
		trials++
	}
	if trials == 0 {
		t.Fatal("no trials ran")
	}
	if avg := float64(totalRelays) / float64(trials); avg > 3 {
		t.Errorf("avg relays per dissemination = %.2f, want small for TCO", avg)
	}
}

func TestDisseminationCoversAllSubscribers(t *testing.T) {
	g := datasets.Slashdot.Generate(300, 6)
	o := New(g, Config{MaxDegree: 16}, rand.New(rand.NewSource(6)))
	pub := overlay.PeerID(10)
	subs := g.Neighbors(pub)
	tree, failed := o.DisseminationTree(pub, subs)
	if len(failed) > 0 {
		t.Fatalf("failed: %v", failed)
	}
	for _, s := range subs {
		if !tree.Contains(s) {
			t.Errorf("subscriber %d missing", s)
		}
	}
}

func TestHotspotBias(t *testing.T) {
	// Greedy merge should load high-social-degree peers with more topic
	// links than low-degree peers.
	g := datasets.Facebook.Generate(400, 7)
	o := New(g, Config{MaxDegree: 16}, rand.New(rand.NewSource(7)))
	var hiSum, hiN, loSum, loN float64
	maxDeg := g.MaxDegree()
	for u := 0; u < 400; u++ {
		d := g.Degree(int32(u))
		td := float64(len(o.TopicLinks(int32(u))))
		if d >= maxDeg/2 {
			hiSum, hiN = hiSum+td, hiN+1
		} else if d <= maxDeg/10 {
			loSum, loN = loSum+td, loN+1
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("flat degree distribution")
	}
	if hiSum/hiN <= loSum/loN {
		t.Errorf("no hotspot bias: hi=%.1f lo=%.1f", hiSum/hiN, loSum/loN)
	}
}

func TestShadows(t *testing.T) {
	g := datasets.Facebook.Generate(200, 8)
	o := New(g, Config{MaxDegree: 16, ShadowSize: 3}, rand.New(rand.NewSource(8)))
	for p := overlay.PeerID(0); p < 200; p++ {
		sh := o.Shadows(p)
		if g.Degree(p) > 0 && len(sh) == 0 {
			t.Errorf("peer %d (degree %d) has no shadows", p, g.Degree(p))
		}
		for _, s := range sh {
			if !g.HasEdge(p, s) {
				t.Errorf("shadow %d of %d is not a friend", s, p)
			}
		}
	}
}

func TestRepairReplacesOfflineTopicLinks(t *testing.T) {
	g := datasets.Facebook.Generate(300, 9)
	o := New(g, Config{MaxDegree: 16}, rand.New(rand.NewSource(9)))
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 50; i++ {
		o.SetOnline(overlay.PeerID(rng.Intn(300)), false)
	}
	o.Repair()
	for p := overlay.PeerID(0); p < 300; p++ {
		if !o.Online(p) {
			continue
		}
		for _, q := range o.TopicLinks(p) {
			if !o.Online(q) {
				t.Fatalf("peer %d keeps offline topic link %d", p, q)
			}
		}
	}
}

func TestRouteShortForSocialPairs(t *testing.T) {
	g := datasets.Facebook.Generate(400, 11)
	o := New(g, Config{MaxDegree: 16}, rand.New(rand.NewSource(11)))
	rng := rand.New(rand.NewSource(12))
	short, totalHops, okCount := 0, 0, 0
	const trials = 100
	for i := 0; i < trials; i++ {
		u, v, _ := g.RandomEdge(rng)
		if path, ok := o.Route(u, v); ok {
			okCount++
			totalHops += path.Hops()
			if path.Hops() <= 2 {
				short++
			}
		}
	}
	// OMen has no lookahead set: direct topic links give 1 hop, everything
	// else is greedy small-world routing. A healthy TCO should still put a
	// solid fraction of social pairs within 2 hops and keep the average
	// bounded.
	if short < trials/3 {
		t.Errorf("only %d/%d social pairs within 2 hops via TCO", short, trials)
	}
	if okCount == 0 || float64(totalHops)/float64(okCount) > 8 {
		t.Errorf("avg hops %.1f too high (ok=%d)", float64(totalHops)/float64(okCount), okCount)
	}
}

func TestTinyGraph(t *testing.T) {
	g := datasets.Facebook.Generate(1, 13)
	o := New(g, Config{MaxDegree: 4}, rand.New(rand.NewSource(13)))
	if o.N() != 1 || o.Iterations() != 0 {
		t.Errorf("singleton overlay: n=%d it=%d", o.N(), o.Iterations())
	}
}

// TestStructuralInvariants holds the built overlay to the executable
// invariants of internal/overlay/check: distinct in-range positions,
// well-formed links, one connected component, routes that terminate.
func TestStructuralInvariants(t *testing.T) {
	o := build(t, 300, 1)
	if r := check.All(o, 100, rand.New(rand.NewSource(9))); !r.Ok() {
		t.Fatalf("invariants violated:\n%s", r)
	}
}
