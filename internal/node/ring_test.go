package node

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/wire"
)

// awaitLegitRing waits for the ring invariant alone — distinct positions,
// mutually consistent heads, one successor cycle — and fails with the
// violation that is left when the time is up.
func awaitLegitRing(t *testing.T, c *Cluster, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := c.CheckRing()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %v: %v", timeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestIDAnnounceAscending: a move announces the new identifier to every
// link and member friend once, in ascending peer order, so that two runs
// of one seed send the same frames in the same order. (The destinations
// were a map, sent in its iteration order, different on every run.)
func TestIDAnnounceAscending(t *testing.T) {
	g, c, tp := frozenCluster(t, 60, 3, Options{})
	nd := c.Nodes[topDegree(g)]
	for i := range nd.strength {
		nd.strength[i] = float64(i+1) / float64(len(nd.strength)+1)
	}
	for move := 0; move < 20; move++ {
		// Across the ring from where the last move put it, so that the
		// round moves it back.
		away := math.Mod(float64(nd.dir.position(nd.id))+0.5, 1)
		nd.dir.setPosition(nd.id, ring.ID(away))
		tp.take(wire.KindIDAnnounce)
		nd.reassign()
		var to []int32
		for _, f := range tp.take(wire.KindIDAnnounce) {
			to = append(to, f.hop)
		}
		if len(to) < 3 || !slices.IsSorted(to) || len(slices.Compact(slices.Clone(to))) != len(to) {
			t.Fatalf("move %d announced to %v, want three or more peers, ascending, each once", move, to)
		}
	}
}

// TestReassignKeepsPositionsDistinct: live Algorithm 2 used to put every
// peer with the same two strongest friends on the same float64 — dozens of
// a 400-member cluster's peers, of which one per position was anybody's
// successor ("peer 111 shares position 0.248664 with peer 73"). With the
// mover's own offset the converged ring has 400 distinct positions on one
// successor cycle, and the peers that would have been twins are a hair
// apart: ring neighbours.
func TestReassignKeepsPositionsDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("n=400 convergence")
	}
	const n, base = 400, 100 * time.Millisecond
	met := obs.New()
	_, c := buildCluster(t, n, 12, cadenceOpts(base, met))
	defer shutdown(t, c)
	awaitCalm(t, c, 120*time.Second)

	a := c.AuditRing()
	if a.Members != n || a.SharedPositions != 0 || a.OffCycle != 0 || a.First != "" {
		t.Fatalf("converged ring: %+v", a)
	}
	if met.Get(obs.CIDReassign) == 0 {
		t.Fatal("id_reassign = 0: Algorithm 2 never moved anybody, the run proves nothing")
	}
	// The rule did separate somebody: some pair of ring neighbours sits
	// closer than any move would have been worth.
	near := 0
	for p := range c.Nodes {
		succ, _ := c.Nodes[p].RingNeighbors()
		if ring.Distance(c.Nodes[p].Position(), c.Nodes[succ].Position()) < moveEps/100 {
			near++
		}
	}
	if near == 0 {
		t.Error("no two ring neighbours within moveEps/100 of each other: no peers shared their two strongest friends, the seed proves nothing")
	}
	t.Logf("%d members, %d identifier moves, %d successor arcs under moveEps/100", a.Members, met.Get(obs.CIDReassign), near)
}

// TestCheckRingNamesTheViolation drives AuditRing through each clause on
// a frozen cluster whose state the test edits by hand.
func TestCheckRingNamesTheViolation(t *testing.T) {
	_, c, _ := frozenCluster(t, 40, 3, Options{})
	if err := c.CheckRing(); err != nil {
		t.Fatalf("bootstrap ring: %v", err)
	}
	x := c.Nodes[7]
	succ, pred := x.shortSucc, x.shortPred
	own := c.dir.position(x.id)

	// A shared position: the audit counts both twins, RingConsistent is
	// false for both (the directory scan no longer reads a zero arc as a
	// full loop), and the error names the pair.
	c.dir.setPosition(x.id, c.dir.position(succ))
	a := c.AuditRing()
	if a.SharedPositions != 2 || !strings.Contains(a.First, "shares position") {
		t.Errorf("twins: %+v", a)
	}
	if c.RingConsistent(x.id) || c.RingConsistent(succ) {
		t.Error("RingConsistent holds for a peer that shares its position")
	}
	c.dir.setPosition(x.id, own)

	// Heads that disagree: x skips its successor.
	x.shortSucc = c.Nodes[succ].shortSucc
	a = c.AuditRing()
	if a.OffCycle != 1 || !strings.Contains(a.First, "whose predecessor is") {
		t.Errorf("skipped successor: %+v", a)
	}
	x.shortSucc = succ

	// A head that is no member.
	c.dir.setMember(pred, false)
	if a = c.AuditRing(); !strings.Contains(a.First, "which is no member") {
		t.Errorf("departed predecessor: %+v", a)
	}
	c.dir.setMember(pred, true)

	// Two cycles: cut the ring at x and again halfway round.
	var order []overlay.PeerID
	for p := x.id; len(order) < len(c.Nodes); p = c.Nodes[p].shortSucc {
		order = append(order, p)
	}
	half := len(order) / 2
	link := func(from, to overlay.PeerID) { c.Nodes[from].shortSucc, c.Nodes[to].shortPred = to, from }
	link(order[half-1], order[0])
	link(order[len(order)-1], order[half])
	a = c.AuditRing()
	if want := len(order) - len(order)/2; a.OffCycle != want && a.OffCycle != half {
		t.Errorf("two cycles: %+v, want about half of %d members off the walk", a, len(order))
	}
	if a.First == "" || c.CheckRing() == nil {
		t.Error("two mutually consistent cycles pass the check")
	}
	link(order[half-1], order[half])
	link(order[len(order)-1], order[0])
	if err := c.CheckRing(); err != nil {
		t.Errorf("restored ring: %v", err)
	}
}
