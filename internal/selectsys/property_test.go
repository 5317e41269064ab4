package selectsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"selectps/internal/datasets"
	"selectps/internal/overlay"
	"selectps/internal/overlay/check"
	"selectps/internal/socialgraph"
)

// checkSeeds runs prop over maxCount random seeds and names the seed of
// any failure, so a red run replays as a one-line table entry.
func checkSeeds(t *testing.T, maxCount int, prop func(seed int64) bool) {
	t.Helper()
	f := func(seed int64) bool {
		if !prop(seed) {
			t.Logf("property failed for seed %d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a small random graph from a seed (not the dataset
// generators, to exercise SELECT on arbitrary topologies: stars, sparse
// graphs, graphs with isolates).
func randomGraph(seed int64) *socialgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(120)
	b := socialgraph.NewBuilder(n)
	// Mixture of shapes: ring backbone, random edges, a hub.
	shape := rng.Intn(3)
	switch shape {
	case 0: // sparse random
		for e := 0; e < n; e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
	case 1: // star plus noise
		hub := int32(rng.Intn(n))
		for i := 0; i < n; i++ {
			if int32(i) != hub && rng.Intn(3) > 0 {
				b.AddEdge(hub, int32(i))
			}
		}
		for e := 0; e < n/2; e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
	default: // dense-ish communities
		for e := 0; e < 4*n; e++ {
			u := rng.Intn(n)
			v := (u + 1 + rng.Intn(5)) % n
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

// TestPropertyInvariantsOnRandomGraphs checks SELECT's structural
// invariants over arbitrary random topologies:
//
//   - every long link connects social friends,
//   - out- and in-long-degree never exceed K,
//   - all positions stay in [0,1),
//   - routing succeeds between all sampled online pairs,
//   - dissemination delivers every subscriber with no churn.
func TestPropertyInvariantsOnRandomGraphs(t *testing.T) {
	checkSeeds(t, 25, func(seed int64) bool {
		g := randomGraph(seed)
		o := New(g, Config{}, rand.New(rand.NewSource(seed)))
		n := o.N()
		if r := check.All(o, 20, rand.New(rand.NewSource(seed+3))); !r.Ok() {
			t.Logf("seed %d: %s", seed, r)
			return false
		}
		incoming := make([]int, n)
		for p := overlay.PeerID(0); int(p) < n; p++ {
			if !o.Position(p).Valid() {
				t.Logf("seed %d: invalid position at %d", seed, p)
				return false
			}
			if len(o.LongLinks(p)) > o.K() {
				t.Logf("seed %d: out-degree %d > K", seed, len(o.LongLinks(p)))
				return false
			}
			for _, q := range o.LongLinks(p) {
				if !g.HasEdge(p, q) {
					t.Logf("seed %d: non-friend link %d->%d", seed, p, q)
					return false
				}
				incoming[q]++
			}
		}
		for u, c := range incoming {
			if c > o.K() {
				t.Logf("seed %d: in-degree %d > K at %d", seed, c, u)
				return false
			}
		}
		rng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 20; i++ {
			src := overlay.PeerID(rng.Intn(n))
			dst := overlay.PeerID(rng.Intn(n))
			path, ok := o.Route(src, dst)
			if !ok || path[len(path)-1] != dst {
				t.Logf("seed %d: route %d->%d failed", seed, src, dst)
				return false
			}
		}
		for i := 0; i < 5; i++ {
			b := overlay.PeerID(rng.Intn(n))
			if g.Degree(b) == 0 {
				continue
			}
			tree, failed := o.DisseminationTree(b, g.Neighbors(b))
			if len(failed) > 0 {
				t.Logf("seed %d: publisher %d failed %d subscribers", seed, b, len(failed))
				return false
			}
			for _, s := range g.Neighbors(b) {
				if !tree.Contains(s) {
					t.Logf("seed %d: subscriber %d missing", seed, s)
					return false
				}
			}
		}
		return true
	})
}

// ablations are the Config variants that must stay correct pub/sub
// systems (delivery completeness), just less efficient.
var ablations = []Config{
	{DisableReassignment: true},
	{RandomLinks: true},
	{PickerIgnoresBandwidth: true},
	{CentroidAllFriends: true},
	{NaiveRecovery: true},
	{DisableLookahead: true},
}

// ablationDelivers builds variant v over randomGraph(seed), holds it to
// the structural invariants and disseminates from three publishers.
func ablationDelivers(t *testing.T, seed int64, v Config) bool {
	g := randomGraph(seed)
	o := New(g, v, rand.New(rand.NewSource(seed)))
	if r := check.Structure(o); !r.Ok() {
		t.Logf("seed %d variant %+v: %s", seed, v, r)
		return false
	}
	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < 3; i++ {
		b := overlay.PeerID(rng.Intn(o.N()))
		if g.Degree(b) == 0 {
			continue
		}
		_, failed := o.DisseminationTree(b, g.Neighbors(b))
		if len(failed) > 0 {
			t.Logf("seed %d variant %+v: %d failed", seed, v, len(failed))
			return false
		}
	}
	return true
}

func TestPropertyAblationsStayCorrect(t *testing.T) {
	checkSeeds(t, 18, func(seed int64) bool {
		return ablationDelivers(t, seed, ablations[int(uint64(seed)%uint64(len(ablations)))])
	})
}

// TestPinnedPlacementCollapseSeeds pins six star-shaped graphs whose hub
// invites enough friends in a row to exhaust its free arc: halved without
// a floor the arc reaches float64 resolution, invitees share a position
// and greedy routing stalls between them (selectcore.PlaceJoin). The
// DisableReassignment variant keeps the projected positions, so nothing
// would move the peers apart again.
func TestPinnedPlacementCollapseSeeds(t *testing.T) {
	for _, seed := range []int64{
		3648509197194620202,
		-671849562971929132,
		-2158719641566446226,
		-5244710769681045490,
		-3553751680375218742,
		3804385324521042090,
	} {
		if !ablationDelivers(t, seed, Config{DisableReassignment: true}) {
			t.Errorf("seed %d: DisableReassignment variant lost deliveries", seed)
		}
	}
}

func TestLookaheadAblationHurtsHops(t *testing.T) {
	g := randomGraph(3)
	full := New(g, Config{}, rand.New(rand.NewSource(4)))
	noLook := New(g, Config{DisableLookahead: true}, rand.New(rand.NewSource(4)))
	rng := rand.New(rand.NewSource(5))
	var fullHops, noLookHops int
	for i := 0; i < 200; i++ {
		u, v, ok := g.RandomEdge(rng)
		if !ok {
			t.Skip("graph has no edges")
		}
		if p, ok := full.Route(u, v); ok {
			fullHops += p.Hops()
		}
		if p, ok := noLook.Route(u, v); ok {
			noLookHops += p.Hops()
		}
	}
	if fullHops > noLookHops {
		t.Errorf("lookahead made routing worse: full=%d nolookahead=%d", fullHops, noLookHops)
	}
}

func TestCommunitiesOccupyContiguousArcs(t *testing.T) {
	// Fig. 8's structure: walking the ring in position order, peers from
	// the same social community should appear in runs, so the number of
	// "community boundaries" along the ring must be far below what random
	// interleaving would produce. We detect communities as groups whose
	// best-tie chains connect them (approximation: the LPA regions are not
	// exported, so use the ring itself: count position-adjacent pairs that
	// share at least one friend).
	g := datasets.Facebook.Generate(600, 31)
	o := New(g, Config{}, rand.New(rand.NewSource(31)))
	order := o.SortedByPosition()
	adjacentFriendly := 0
	for i := 0; i < len(order); i++ {
		a, b := order[i], order[(i+1)%len(order)]
		if g.HasEdge(a, b) || g.CommonNeighbors(a, b) > 0 {
			adjacentFriendly++
		}
	}
	frac := float64(adjacentFriendly) / float64(len(order))
	// Random placement of a 25-avg-degree graph over 600 peers gives a few
	// percent; contiguous communities give a large majority.
	if frac < 0.6 {
		t.Errorf("only %.0f%% of ring-adjacent pairs are socially related; expected contiguous communities", frac*100)
	}
	// Baseline sanity: with reassignment disabled the fraction drops.
	frozen := New(g, Config{DisableReassignment: true}, rand.New(rand.NewSource(31)))
	orderF := frozen.SortedByPosition()
	adjF := 0
	for i := 0; i < len(orderF); i++ {
		a, b := orderF[i], orderF[(i+1)%len(orderF)]
		if g.HasEdge(a, b) || g.CommonNeighbors(a, b) > 0 {
			adjF++
		}
	}
	if adjF >= adjacentFriendly {
		t.Errorf("reassignment did not raise ring-adjacent social affinity: %d vs %d",
			adjacentFriendly, adjF)
	}
}
