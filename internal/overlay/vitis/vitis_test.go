package vitis

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
	return New(g, Config{K: 8}, rand.New(rand.NewSource(seed)))
}

func TestConstruction(t *testing.T) {
	o := build(t, 300, 1)
	if o.Name() != "vitis" || o.N() != 300 {
		t.Fatalf("metadata wrong")
	}
	if o.Iterations() < 1 {
		t.Errorf("Iterations = %d, want >= 1", o.Iterations())
	}
	for p := overlay.PeerID(0); p < 300; p++ {
		if len(o.ClusterLinks(p)) > 8 {
			t.Errorf("peer %d has %d cluster links > K", p, len(o.ClusterLinks(p)))
		}
	}
}

func TestClusterLinksShareInterests(t *testing.T) {
	g := datasets.Facebook.Generate(400, 2)
	o := New(g, Config{K: 8}, rand.New(rand.NewSource(2)))
	zeroUtil := 0
	total := 0
	for p := overlay.PeerID(0); p < 400; p++ {
		for _, q := range o.ClusterLinks(p) {
			total++
			if o.utility(p, q) == 0 {
				zeroUtil++
			}
		}
	}
	if total == 0 {
		t.Fatal("no cluster links formed")
	}
	if zeroUtil > 0 {
		t.Errorf("%d of %d cluster links have zero shared interest", zeroUtil, total)
	}
}

func TestRouteTerminatesAndValid(t *testing.T) {
	o := build(t, 300, 3)
	rng := rand.New(rand.NewSource(4))
	okCount := 0
	for i := 0; i < 200; i++ {
		src := overlay.PeerID(rng.Intn(300))
		dst := overlay.PeerID(rng.Intn(300))
		path, ok := o.Route(src, dst)
		if !ok {
			continue
		}
		okCount++
		if path[0] != src || path[len(path)-1] != dst {
			t.Fatalf("bad endpoints %v", path)
		}
	}
	if okCount < 190 {
		t.Errorf("only %d/200 routes succeeded", okCount)
	}
}

func TestSocialPairsRouteShort(t *testing.T) {
	// Socially connected peers should often be 1-2 hops apart via cluster
	// links — much shorter than generic ring routing.
	g := datasets.Facebook.Generate(500, 5)
	o := New(g, Config{K: 8}, rand.New(rand.NewSource(5)))
	rng := rand.New(rand.NewSource(6))
	var social, random float64
	const trials = 200
	for i := 0; i < trials; i++ {
		u, v, _ := g.RandomEdge(rng)
		if p, ok := o.Route(u, v); ok {
			social += float64(p.Hops())
		} else {
			social += 20
		}
		a := overlay.PeerID(rng.Intn(500))
		b := overlay.PeerID(rng.Intn(500))
		if p, ok := o.Route(a, b); ok {
			random += float64(p.Hops())
		} else {
			random += 20
		}
	}
	if social >= random {
		t.Errorf("social pairs (%.1f avg hops) not shorter than random pairs (%.1f)",
			social/trials, random/trials)
	}
}

func TestIterationsDeterministic(t *testing.T) {
	g := datasets.Slashdot.Generate(300, 7)
	a := New(g, Config{K: 6}, rand.New(rand.NewSource(8)))
	b := New(g, Config{K: 6}, rand.New(rand.NewSource(8)))
	if a.Iterations() != b.Iterations() {
		t.Errorf("iterations nondeterministic: %d vs %d", a.Iterations(), b.Iterations())
	}
}

func TestRepairDropsOfflineClusterLinks(t *testing.T) {
	o := build(t, 300, 9)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 60; i++ {
		o.SetOnline(overlay.PeerID(rng.Intn(300)), false)
	}
	o.Repair()
	for p := overlay.PeerID(0); p < 300; p++ {
		if !o.Online(p) {
			continue
		}
		for _, q := range o.ClusterLinks(p) {
			if !o.Online(q) {
				t.Fatalf("peer %d keeps offline cluster link %d after repair", p, q)
			}
		}
	}
}

func TestTinyGraph(t *testing.T) {
	g := datasets.Facebook.Generate(2, 11)
	o := New(g, Config{K: 4}, rand.New(rand.NewSource(11)))
	if o.N() != 2 {
		t.Fatal("wrong size")
	}
	if _, ok := o.Route(0, 1); !ok {
		t.Error("two-peer route failed")
	}
}

func TestHighDegreeBias(t *testing.T) {
	// Incoming cluster-link counts should correlate with social degree:
	// the hotspot behaviour the paper criticizes in Vitis.
	g := datasets.Facebook.Generate(500, 12)
	o := New(g, Config{K: 8}, rand.New(rand.NewSource(12)))
	indeg := make([]int, 500)
	for p := overlay.PeerID(0); p < 500; p++ {
		for _, q := range o.ClusterLinks(p) {
			indeg[q]++
		}
	}
	// Compare mean incoming links of the top-decile social-degree peers vs
	// the bottom half.
	var topSum, topN, botSum, botN float64
	maxDeg := g.MaxDegree()
	for u := 0; u < 500; u++ {
		d := g.Degree(int32(u))
		if d >= maxDeg/2 {
			topSum += float64(indeg[u])
			topN++
		} else if d <= maxDeg/10 {
			botSum += float64(indeg[u])
			botN++
		}
	}
	if topN == 0 || botN == 0 {
		t.Skip("degree distribution too flat for this seed")
	}
	if topSum/topN <= botSum/botN {
		t.Errorf("high-degree peers not hotspots: top=%.1f bot=%.1f", topSum/topN, botSum/botN)
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
