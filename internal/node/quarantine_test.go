package node

import (
	"math"
	"testing"
	"time"

	"selectps/internal/overlay"
	"selectps/internal/wire"
)

// quietOpts stretches every protocol period to an hour: no background
// heartbeat/gossip/maintain traffic races the hand-delivered messages,
// so each test controls exactly what evidence node a sees.
func quietOpts() Options {
	return Options{
		HeartbeatEvery: time.Hour,
		GossipEvery:    time.Hour,
		MaintainEvery:  time.Hour,
	}
}

// pickMembers returns a live node a and two distinct other members q
// (the peer whose liveness is contested) and r (the third-party gossip
// source).
func pickMembers(c *Cluster) (a *Node, q, r overlay.PeerID) {
	a = c.Nodes[0]
	q, r = overlay.PeerID(1), overlay.PeerID(2)
	return a, q, r
}

// posBits renders q's directory position as the wire encoding of a
// successor-list claim.
func posBits(c *Cluster, q overlay.PeerID) uint64 {
	return math.Float64bits(float64(c.dir.position(q)))
}

// TestQuarantineConflictingEvidence drives the dead-quarantine through
// contradictory liveness claims: while node a holds peer q under
// quarantine, third-party gossip naming q alive must NOT resurrect it —
// but first-person evidence from q itself (its own IDAnnounce, or a pong
// answered by q) must clear the quarantine immediately. This is the race
// a churn crash creates: stale successor lists keep advertising the dead
// peer long after the eviction, while the recovered peer's own announce
// races them back in.
func TestQuarantineConflictingEvidence(t *testing.T) {
	_, c := buildCluster(t, 20, 2, quietOpts())
	defer shutdown(t, c)
	a, q, r := pickMembers(c)

	// Evict q: quarantine it and drop it from a's ring view.
	a.do(func() {
		a.deadUntil[q] = time.Now().Add(10 * time.Second)
		a.rview.remove(q)
		a.refreshHeads()
	})

	// Third-party hearsay from r claims q is alive at its real position.
	var resurrected bool
	a.do(func() {
		a.handle(&wire.Message{
			Kind: wire.KindPong, From: int32(r), To: int32(a.ID()),
			Succs:   []int32{int32(r), int32(q)},
			SuccPos: []uint64{posBits(c, r), posBits(c, q)},
		})
		_, resurrected = a.rview.get(q)
	})
	if resurrected {
		t.Fatalf("third-party gossip resurrected quarantined peer %d", q)
	}

	// First-person evidence: q announces its own identifier.
	var back, stillQuarantined bool
	a.do(func() {
		a.handle(&wire.Message{
			Kind: wire.KindIDAnnounce, From: int32(q), To: int32(a.ID()),
			Pos: posBits(c, q),
		})
		_, back = a.rview.get(q)
		_, stillQuarantined = a.deadUntil[q]
	})
	if stillQuarantined {
		t.Fatalf("first-person IDAnnounce did not clear the quarantine")
	}
	if !back {
		t.Fatalf("first-person IDAnnounce did not restore peer %d to the ring view", q)
	}
}

// TestQuarantinePongClearsEarly is the second first-person path: a pong
// from the quarantined peer itself is an online observation and lifts
// the quarantine before its timer expires.
func TestQuarantinePongClearsEarly(t *testing.T) {
	_, c := buildCluster(t, 20, 2, quietOpts())
	defer shutdown(t, c)
	a, q, _ := pickMembers(c)

	var stillQuarantined bool
	a.do(func() {
		a.deadUntil[q] = time.Now().Add(10 * time.Second)
		a.handle(&wire.Message{
			Kind: wire.KindPong, From: int32(q), To: int32(a.ID()),
			Succs: []int32{int32(q)}, SuccPos: []uint64{posBits(c, q)},
		})
		_, stillQuarantined = a.deadUntil[q]
	})
	if stillQuarantined {
		t.Fatalf("pong from the quarantined peer itself did not clear the quarantine")
	}
}

// TestQuarantineExpiresOnItsOwn: absent any first-person evidence the
// quarantine is a timer, not a tombstone — hearsay works again after it
// lapses, so a peer nobody heard from directly is still re-learnable.
func TestQuarantineExpiresOnItsOwn(t *testing.T) {
	_, c := buildCluster(t, 20, 2, quietOpts())
	defer shutdown(t, c)
	a, q, r := pickMembers(c)

	var back bool
	a.do(func() {
		a.deadUntil[q] = time.Now().Add(-time.Millisecond) // already lapsed
		a.rview.remove(q)
		a.handle(&wire.Message{
			Kind: wire.KindPong, From: int32(r), To: int32(a.ID()),
			Succs:   []int32{int32(r), int32(q)},
			SuccPos: []uint64{posBits(c, r), posBits(c, q)},
		})
		_, back = a.rview.get(q)
	})
	if !back {
		t.Fatalf("hearsay after quarantine expiry should re-learn peer %d", q)
	}
}
