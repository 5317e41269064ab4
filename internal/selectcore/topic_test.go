package selectcore

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"selectps/internal/overlay"
	"selectps/internal/ring"
)

func TestTopicPosStableAndSpread(t *testing.T) {
	if TopicPos("#go") != TopicPos("#go") {
		t.Fatal("TopicPos is not a pure function of the name")
	}
	// Distinct names should not pile onto one position (the rule is a
	// hash; exact values are pinned only by stability, not by content).
	seen := map[float64]bool{}
	for _, name := range []string{"#go", "#news", "#music", "group:42", "page:anna"} {
		seen[float64(TopicPos(name))] = true
	}
	if len(seen) < 4 {
		t.Fatalf("topic positions collapse: %v", seen)
	}
}

func TestRendezvousClockwiseOrder(t *testing.T) {
	// Peers 0..4 at 0.0, 0.2, 0.4, 0.6, 0.8; a topic at 0.45 rendezvouses
	// on the first r live clockwise successors: 3 (0.6), 4 (0.8), 0 (0.0).
	members := ringAt(0.0, 0.2, 0.4, 0.6, 0.8)
	got := Rendezvous(0.45, members, nil, 3)
	want := []overlay.PeerID{3, 4, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rendezvous = %v, want %v", got, want)
	}
	if r := Rendezvous(0.45, members, nil, 0); r != nil {
		t.Fatalf("r=0 returned %v", r)
	}
}

func TestRendezvousSkipsDeadAndReHomes(t *testing.T) {
	members := ringAt(0.0, 0.2, 0.4, 0.6, 0.8)
	alive := Rendezvous(0.45, members, nil, 2) // {3, 4}
	// The primary dies: the accrual detector's liveness filter re-homes
	// the topic one successor clockwise — the old standby is promoted and
	// a fresh standby joins the set.
	live := func(p overlay.PeerID) bool { return p != alive[0] }
	got := Rendezvous(0.45, members, live, 2)
	want := []overlay.PeerID{4, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-homed rendezvous = %v, want %v", got, want)
	}
}

func TestRendezvousDeterministicAcrossCallers(t *testing.T) {
	// Publishers, subscribers and standbys each compute placement
	// independently; input order and position ties must not diverge them.
	members := []RingMember{{3, 0.4}, {2, 0.4}, {0, 0.1}, {4, 0.7}}
	shuffled := []RingMember{{4, 0.7}, {0, 0.1}, {2, 0.4}, {3, 0.4}}
	a := Rendezvous(0.2, members, nil, 3)
	b := Rendezvous(0.2, shuffled, nil, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("order-dependent rendezvous: %v vs %v", a, b)
	}
	if a[0] != 2 || a[1] != 3 {
		t.Fatalf("position tie must break by id: %v", a)
	}
}

// sortedSuccessors is the successor rule evaluated the way it was before
// the one-pass kernel: filter, sort everything by (clockwise distance, a
// member on pos a full loop away; id), cut at r. The property test holds
// clockwiseSuccessors to it.
func sortedSuccessors(pos ring.ID, exclude overlay.PeerID, members []RingMember, live func(overlay.PeerID) bool, r int) []overlay.PeerID {
	if r <= 0 {
		return nil
	}
	var cands []RingMember
	for _, m := range members {
		if m.ID != exclude && (live == nil || live(m.ID)) {
			cands = append(cands, m)
		}
	}
	dist := func(m RingMember) float64 {
		if d := ring.Clockwise(pos, m.Pos); d > 0 {
			return d
		}
		return 1
	}
	sort.Slice(cands, func(i, j int) bool {
		if di, dj := dist(cands[i]), dist(cands[j]); di != dj {
			return di < dj
		}
		return cands[i].ID < cands[j].ID
	})
	out := make([]overlay.PeerID, 0, r)
	for _, m := range cands[:min(r, len(cands))] {
		out = append(out, m.ID)
	}
	return out
}

// TestClockwiseSuccessorsMatchesSort: on random rings — positions drawn
// from a small grid so that members share them, pos often on a member,
// a member excluded or not, a liveness filter or none, r from 0 to past
// the stack buffer — the one-pass kernel returns exactly what sorting
// the whole ring returns.
func TestClockwiseSuccessorsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for c := 0; c < 20000; c++ {
		n := rng.Intn(24)
		grid := 1 + rng.Intn(32)
		members := make([]RingMember, n)
		for i := range members {
			members[i] = RingMember{ID: overlay.PeerID(rng.Intn(64)), Pos: ring.ID(float64(rng.Intn(grid)) / float64(grid))}
		}
		// Ids are distinct in a membership snapshot.
		slices.SortFunc(members, func(a, b RingMember) int { return int(a.ID - b.ID) })
		members = slices.CompactFunc(members, func(a, b RingMember) bool { return a.ID == b.ID })
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		pos := ring.ID(rng.Float64())
		if n > 0 && rng.Intn(2) == 0 {
			pos = members[rng.Intn(len(members))].Pos
		}
		exclude := overlay.PeerID(-1)
		if rng.Intn(2) == 0 {
			exclude = overlay.PeerID(rng.Intn(64))
		}
		var live func(overlay.PeerID) bool
		if rng.Intn(2) == 0 {
			dead := rng.Uint64()
			live = func(p overlay.PeerID) bool { return dead&(1<<uint(p)) == 0 }
		}
		r := rng.Intn(succStack + 4)
		got := clockwiseSuccessors(nil, pos, exclude, members, live, r)
		want := sortedSuccessors(pos, exclude, members, live, r)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("case %d: pos %v exclude %d r %d members %v: kernel %v, sort %v", c, pos, exclude, r, members, got, want)
		}
		// Into storage that holds something already: after it.
		if into := clockwiseSuccessors([]overlay.PeerID{-7}, pos, exclude, members, live, r); into[0] != -7 || !slices.Equal(into[1:], want) {
			t.Fatalf("case %d: appended %v after -7, want %v", c, into, want)
		}
	}
}

// TestClockwiseSuccessorsAllocatesNothing pins the kernel's cost: into
// storage with room for the set, nothing, while r fits the stack buffer.
func TestClockwiseSuccessorsAllocatesNothing(t *testing.T) {
	members := make([]RingMember, 200)
	for i := range members {
		members[i] = RingMember{ID: overlay.PeerID(i), Pos: ring.ID(float64((i*7919)%200) / 200)}
	}
	pos := TopicPos("#topic-0")
	for _, r := range []int{1, 2, succStack} {
		dst := make([]overlay.PeerID, 0, r)
		if a := testing.AllocsPerRun(100, func() { dst = AppendRendezvous(dst[:0], pos, members, nil, r) }); a != 0 {
			t.Errorf("AppendRendezvous r=%d: %.1f allocs, want 0", r, a)
		}
		if a := testing.AllocsPerRun(100, func() { dst = AppendInboxReplicas(dst[:0], 7, members[7].Pos, members, nil, r) }); a != 0 {
			t.Errorf("AppendInboxReplicas r=%d: %.1f allocs, want 0", r, a)
		}
	}
}

// unrollTree recurses the local TreeBranches rule the way the runtime
// does (each child forwards its carried subtree) and returns every peer
// reached plus the tree depth.
func unrollTree(t *testing.T, subs []overlay.PeerID, fanout int) (map[overlay.PeerID]int, int) {
	t.Helper()
	reached := map[overlay.PeerID]int{}
	depth := 0
	var walk func(level int, subtree []overlay.PeerID)
	walk = func(level int, subtree []overlay.PeerID) {
		if level > depth {
			depth = level
		}
		for _, branch := range TreeBranches(subtree, fanout) {
			if len(branch) == 0 {
				t.Fatal("empty branch")
			}
			reached[branch[0]]++
			walk(level+1, branch[1:])
		}
	}
	walk(0, subs)
	return reached, depth
}

func TestTreeBranchesCoverEverySubscriberOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 63, 200} {
		subs := make([]overlay.PeerID, n)
		for i := range subs {
			subs[i] = overlay.PeerID(i * 3)
		}
		reached, depth := unrollTree(t, subs, 4)
		if len(reached) != n {
			t.Fatalf("n=%d: tree reached %d subscribers", n, len(reached))
		}
		for p, c := range reached {
			if c != 1 {
				t.Fatalf("n=%d: subscriber %d received %d tree copies", n, p, c)
			}
		}
		// Complete fanout-ary tree: depth stays logarithmic.
		bound := 1
		for d := 0; bound < n; d++ {
			bound *= 4
			if d > 20 {
				t.Fatal("runaway bound")
			}
		}
		if n > 1 && depth > 2*log4ceil(n)+1 {
			t.Fatalf("n=%d: depth %d exceeds logarithmic bound", n, depth)
		}
	}
}

func log4ceil(n int) int {
	d, c := 0, 1
	for c < n {
		c *= 4
		d++
	}
	return d
}

func TestTreeBranchesBalanceAndBounds(t *testing.T) {
	subs := []overlay.PeerID{9, 1, 5, 3, 7, 11, 2, 8, 6}
	branches := TreeBranches(subs, 4)
	if len(branches) > 4 {
		t.Fatalf("fanout exceeded: %d branches", len(branches))
	}
	min, max := len(subs), 0
	for _, b := range branches {
		if len(b) < min {
			min = len(b)
		}
		if len(b) > max {
			max = len(b)
		}
	}
	if max-min > 1 {
		t.Fatalf("branch sizes unbalanced: min %d max %d", min, max)
	}
	// Input order must not matter and the input must not be mutated.
	orig := append([]overlay.PeerID(nil), subs...)
	again := TreeBranches([]overlay.PeerID{11, 8, 7, 6, 5, 3, 2, 1, 9}, 4)
	if !reflect.DeepEqual(branches, again) {
		t.Fatalf("order-dependent tree: %v vs %v", branches, again)
	}
	if !reflect.DeepEqual(subs, orig) {
		t.Fatalf("input mutated: %v", subs)
	}
}

func TestTreeBranchesEdgeCases(t *testing.T) {
	if b := TreeBranches(nil, 4); b != nil {
		t.Fatalf("empty subscriber set produced branches: %v", b)
	}
	// Duplicate registrations collapse — a double-registered subscriber
	// must not become its own descendant.
	reached, _ := unrollTree(t, []overlay.PeerID{5, 5, 5, 2, 2}, 2)
	if len(reached) != 2 || reached[5] != 1 || reached[2] != 1 {
		t.Fatalf("duplicates not collapsed: %v", reached)
	}
	// fanout < 1 degrades to a chain, still covering everyone.
	reached, depth := unrollTree(t, []overlay.PeerID{1, 2, 3, 4}, 0)
	if len(reached) != 4 {
		t.Fatalf("chain fanout lost subscribers: %v", reached)
	}
	if depth != 4 {
		t.Fatalf("fanout<1 should chain: depth %d", depth)
	}
}
