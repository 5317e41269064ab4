package selectcore

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"selectps/internal/lsh"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/socialgraph"
)

func TestStrengthFromCounts(t *testing.T) {
	// No common friends: the friendship edge alone is still worth 1/(union+1).
	if got := StrengthFromCounts(3, 4, 0); got != 1.0/8.0 {
		t.Fatalf("no-common strength = %v, want 1/8", got)
	}
	// Symmetric in the two degrees.
	if StrengthFromCounts(3, 7, 2) != StrengthFromCounts(7, 3, 2) {
		t.Fatal("strength not symmetric")
	}
	// More common friends → strictly stronger tie.
	if !(StrengthFromCounts(5, 5, 3) > StrengthFromCounts(5, 5, 1)) {
		t.Fatal("strength not monotone in common count")
	}
	// Degenerate inputs do not divide by zero.
	if got := StrengthFromCounts(0, 0, 0); got != 0 {
		t.Fatalf("degenerate strength = %v, want 0", got)
	}
}

func TestStrengthMatchesGraphCounts(t *testing.T) {
	b := socialgraph.NewBuilder(5)
	for _, e := range [][2]socialgraph.NodeID{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4},
	} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	for p := overlay.PeerID(0); p < 5; p++ {
		row := StrengthRow(g, p, nil)
		for i, v := range g.Neighbors(p) {
			want := StrengthFromCounts(g.Degree(p), g.Degree(v), g.CommonNeighbors(p, v))
			if row[i] != want || Strength(g, p, v) != want {
				t.Fatalf("strength(%d,%d) mismatch: row=%v direct=%v want=%v",
					p, v, row[i], Strength(g, p, v), want)
			}
		}
	}
}

func TestTop2(t *testing.T) {
	friends := []overlay.PeerID{10, 20, 30, 40}
	best, second := Top2(friends, []float64{0.1, 0.9, 0.4, 0.2})
	if best != 20 || second != 30 {
		t.Fatalf("Top2 = (%d,%d), want (20,30)", best, second)
	}
	// Negative strengths mark friends not yet learned; they are skipped.
	best, second = Top2(friends, []float64{-1, 0.9, -1, -1})
	if best != 20 || second != -1 {
		t.Fatalf("Top2 with unknowns = (%d,%d), want (20,-1)", best, second)
	}
	best, second = Top2(nil, nil)
	if best != -1 || second != -1 {
		t.Fatalf("Top2 empty = (%d,%d), want (-1,-1)", best, second)
	}
}

func TestPlacement(t *testing.T) {
	inv := ring.ID(0.25)
	// The invitee lands inside the inviter's clockwise arc.
	pos := PlaceJoin(inv, 0.1, 0.5, 0.5, 7)
	if d := ring.Clockwise(inv, pos); d <= 0 || d >= 0.1 {
		t.Fatalf("PlaceJoin landed outside the free arc: clockwise=%v", d)
	}
	// Zero arc falls back to the caller's gap.
	pos = PlaceJoin(inv, 0, 0.2, 0, 7)
	if d := ring.Clockwise(inv, pos); math.Abs(d-0.06) > 1e-12 {
		t.Fatalf("PlaceJoin fallback arc wrong: clockwise=%v want 0.06", d)
	}
	if !PlaceIndependent(42).Valid() {
		t.Fatal("PlaceIndependent out of ring range")
	}
	if PlaceIndependent(42) != ring.HashUint64(42) {
		t.Fatal("PlaceIndependent must be the uniform identity hash")
	}
	if d := ring.Distance(ReassignTarget(0.9, 0.1, 7), ring.Midpoint(0.9, 0.1)); d > ReassignSpread/2 {
		t.Fatalf("ReassignTarget is %v from the ring midpoint, want at most %v", d, ReassignSpread/2)
	}
}

// TestReassignTargetSeparatesMovers: peers with the same two strongest
// friends used to get the same identifier. Each mover has a target of its
// own, all of them inside a band far narrower than any move threshold,
// wherever on the ring the anchors are — across the wrap, near 1.0 where
// float64 is coarsest, on top of each other.
func TestReassignTargetSeparatesMovers(t *testing.T) {
	const moveEps = 1e-4 // the smallest threshold in use (selectsys)
	if ReassignSpread > moveEps/100 {
		t.Fatalf("ReassignSpread %v is not orders of magnitude under the move threshold %v", ReassignSpread, moveEps)
	}
	movers := []uint64{0, 1, 2, 3, 58, 59, 73, 111, 399, 3999, 1<<31 - 1, 1 << 31, 1<<32 - 1}
	for id := uint64(1000); id < 3000; id++ { // a dense range, as peer ids are
		movers = append(movers, id)
	}
	for _, tc := range []struct {
		name string
		a, b ring.ID
	}{
		{"mid-ring", 0.20, 0.30},
		{"across the wrap", 0.9999999, 0.0000001},
		{"just under 1.0", 0.99999990, 0.99999994},
		{"anchors that are twins themselves", 0.248664, 0.248664},
	} {
		mid := ring.Midpoint(tc.a, tc.b)
		seen := make(map[ring.ID]uint64, len(movers))
		for _, m := range movers {
			pos := ReassignTarget(tc.a, tc.b, m)
			if !pos.Valid() {
				t.Fatalf("%s: mover %d got %v, off the ring", tc.name, m, pos)
			}
			if d := ring.Distance(pos, mid); d > ReassignSpread/2 {
				t.Errorf("%s: mover %d is %v from the midpoint, want at most %v", tc.name, m, d, ReassignSpread/2)
			}
			if other, dup := seen[pos]; dup {
				t.Errorf("%s: movers %d and %d share target %v", tc.name, other, m, pos)
			}
			seen[pos] = m
			if again := ReassignTarget(tc.b, tc.a, m); ring.Distance(again, pos) > 1e-15 {
				t.Errorf("%s: mover %d: target depends on the order of the anchors (%v, %v)", tc.name, m, pos, again)
			}
		}
	}
}

// TestPlaceJoinKeepsInvitesDistinct is the same audit for Algorithm 1: an
// inviter that admits friend after friend halves its free arc each time;
// every invitee gets a position of its own, inside the arc while there is
// one to subdivide and at its identity hash once there is not.
func TestPlaceJoinKeepsInvitesDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inv := ring.ID(0.731)
	gap := 0.05
	seen := map[ring.ID]uint64{inv: 0}
	hashed := 0
	for user := uint64(1); user <= 80; user++ {
		pos := PlaceJoin(inv, gap, 0.01, rng.Float64(), user)
		if other, dup := seen[pos]; dup {
			t.Fatalf("invitee %d shares position %v with %d", user, pos, other)
		}
		seen[pos] = user
		if pos == PlaceIndependent(user) {
			hashed++
			continue
		}
		d := ring.Clockwise(inv, pos)
		if d <= 0 || d >= gap {
			t.Fatalf("invitee %d landed %v clockwise of the inviter, outside its free arc %v", user, d, gap)
		}
		gap = d // the invitee is the inviter's successor now
	}
	if hashed == 0 || hashed == 80 {
		t.Fatalf("%d of 80 invitees went to their hash position: the arc floor was not exercised", hashed)
	}
}

func TestIndexerGroupsIdenticalBitmaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := lsh.NewHasher(8, 4, 0, rng)
	var x Indexer
	x.Begin(h, 8)
	// Two friends with identical link bitmaps must collide in one bucket;
	// Conn counts distinct coordinates only.
	b0 := x.Add(0, []int{0, 3, 5})
	b1 := x.Add(1, []int{1, 3, 5, 3})
	b2 := x.Add(2, []int{1, 3, 5})
	if b1 != b2 {
		t.Fatalf("identical bitmaps landed in different buckets: %d vs %d", b1, b2)
	}
	if x.Conn[1] != 3 || x.Conn[2] != 3 {
		t.Fatalf("Conn with duplicate coords = %v, want 3s", x.Conn[1:3])
	}
	_ = b0
	total := 0
	for _, b := range x.Buckets {
		total += len(b)
	}
	if total != 3 {
		t.Fatalf("indexed %d friends, want 3", total)
	}
	// Begin resets for the next peer: stale buckets must not leak.
	x.Begin(h, 4)
	for b, members := range x.Buckets {
		if len(members) != 0 {
			t.Fatalf("bucket %d not reset: %v", b, members)
		}
	}
}

func TestPick(t *testing.T) {
	conn := []int{1, 5, 5, 2}
	bwv := []float64{9, 1, 3, 9}
	bw := func(i int32) float64 { return bwv[i] }
	// Highest conn wins; among equals, higher bandwidth.
	if best := Pick([]int32{0, 1, 2, 3}, conn, bw, false); best != 2 {
		t.Fatalf("Pick = %d, want 2 (max conn, better bw)", best)
	}
	// Runner-up upgrade: leader on conn but starved on bandwidth loses to
	// the second-ranked candidate with strictly better bandwidth.
	if best := Pick([]int32{1, 3}, conn, bw, false); best != 3 {
		t.Fatalf("Pick = %d, want runner-up 3", best)
	}
	// Ablation: ignoreBandwidth keeps the conn leader.
	if best := Pick([]int32{1, 3}, conn, bw, true); best != 1 {
		t.Fatalf("Pick(ignoreBandwidth) = %d, want 1", best)
	}
	if a := testing.AllocsPerRun(100, func() { Pick([]int32{0, 1, 2, 3}, conn, bw, false) }); a != 0 {
		t.Errorf("Pick: %.1f allocs, want 0", a)
	}
}

// sortedPick is Algorithm 6 the way Pick ran before it became one pass:
// sort the bucket, read its first two entries. TestPickMatchesSort holds
// Pick to it.
func sortedPick(cand []int32, conn []int, bw func(i int32) float64, ignoreBandwidth bool) int32 {
	sorted := slices.Clone(cand)
	sort.Slice(sorted, func(a, b int) bool {
		i, j := sorted[a], sorted[b]
		if conn[i] != conn[j] {
			return conn[i] > conn[j]
		}
		if bi, bj := bw(i), bw(j); bi != bj {
			return bi > bj
		}
		return i < j
	})
	if !ignoreBandwidth && len(sorted) > 1 && bw(sorted[0]) < bw(sorted[1]) {
		return sorted[1]
	}
	return sorted[0]
}

// TestPickMatchesSort: on random buckets — connection counts and
// bandwidths from small ranges, so that ties on both are common — the
// one-pass picker chooses what sorting the bucket chooses, with the
// bandwidth upgrade and without.
func TestPickMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	conn, bwv := make([]int, 16), make([]float64, 16)
	bw := func(i int32) float64 { return bwv[i] }
	for c := 0; c < 20000; c++ {
		for i := range conn {
			conn[i], bwv[i] = rng.Intn(4), float64(rng.Intn(3))
		}
		var cand []int32
		for _, i := range rng.Perm(len(conn))[:1+rng.Intn(len(conn))] {
			cand = append(cand, int32(i))
		}
		ignore := rng.Intn(2) == 0
		if got, want := Pick(cand, conn, bw, ignore), sortedPick(cand, conn, bw, ignore); got != want {
			t.Fatalf("case %d: bucket %v conn %v bw %v ignoreBandwidth %v: Pick %d, sort %d", c, cand, conn, bwv, ignore, got, want)
		}
	}
}
