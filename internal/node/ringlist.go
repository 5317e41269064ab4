package node

import (
	"math"

	"selectps/internal/overlay"
	"selectps/internal/ring"
)

// ringEntry is one learned (peer, position) pair of the successor/
// predecessor lists. firsthand marks first-person evidence: the claim
// came from the peer itself (its pong self-entry, its own identifier
// announcement, a join-reply from it) or from the trusted bootstrap —
// as opposed to hearsay piggybacked by a third party.
type ringEntry struct {
	peer      overlay.PeerID
	pos       ring.ID
	firsthand bool
}

// succListLen is r, the successor/predecessor list depth backing ring
// repair.
const succListLen = 4

// ringView is a node's r-deep decentralized view of its ring
// neighborhood: the nearest known members clockwise (succ) and
// counter-clockwise (pred), learned from join replies, heartbeat-pong
// piggybacks and identifier announcements — never from the directory
// (DESIGN.md §9). When a ring neighbor dies the node splices to the next
// live entry locally, which is what keeps greedy ring routing alive
// under churn without any omniscient membership scan.
//
// With hardened set (DESIGN.md §14) positions arriving here have already
// been verified against the directory's admission record (repair.go), so
// the lists only defend the *liveness* half of a claim: hearsay never
// moves or downgrades an existing firsthand entry, and the ring heads
// prefer firsthand entries — the short links a node heartbeats are peers
// that vouched for their own position, with hearsay only bridging the
// window before first-person evidence arrives. All methods are called
// under the owning node's mutex.
type ringView struct {
	hardened bool
	succ     []ringEntry // sorted by clockwise distance from the owner
	pred     []ringEntry // sorted by counter-clockwise distance from the owner
}

// cwDist is the clockwise arc with the directory's zero-arc convention: a
// position collision counts as a full loop so colliding peers still sort
// somewhere instead of shadowing the owner.
func cwDist(from, to ring.ID) float64 {
	d := ring.Clockwise(from, to)
	if d <= 0 {
		d += 1
	}
	return d
}

// learn inserts or repositions peer in both direction lists, keeping each
// sorted and truncated to r entries. self guards against learning the
// owner itself. firsthand marks first-person evidence (see ringEntry).
// The return value counts hearsay attempts to move or downgrade a
// firsthand entry blocked by the hardened rule (feeds the
// eclipse_displaced counter).
func (v *ringView) learn(own ring.ID, self, peer overlay.PeerID, pos ring.ID, firsthand bool) (blocked int) {
	if peer < 0 || peer == self {
		return 0
	}
	if cur, ok := v.get(peer); ok && cur.firsthand {
		if v.hardened && !firsthand {
			// A third party may not move or downgrade an entry the peer
			// itself vouched for.
			if cur.pos != pos {
				return 1
			}
			return 0
		}
		// Re-learning a verified peer keeps its verification.
		firsthand = true
	}
	v.remove(peer)
	e := ringEntry{peer, pos, firsthand}
	v.succ = insertByDist(v.succ, e, cwDist(own, pos), own, true, succListLen)
	v.pred = insertByDist(v.pred, e, cwDist(pos, own), own, false, succListLen)
	return 0
}

// insertByDist places e into list (sorted by its direction's distance
// from own), dropping the farthest entry past cap.
func insertByDist(list []ringEntry, e ringEntry, d float64, own ring.ID, clockwise bool, cap int) []ringEntry {
	if cap <= 0 {
		cap = 1
	}
	at := len(list)
	for i, x := range list {
		var xd float64
		if clockwise {
			xd = cwDist(own, x.pos)
		} else {
			xd = cwDist(x.pos, own)
		}
		if d < xd || (d == xd && e.peer < x.peer) {
			at = i
			break
		}
	}
	list = append(list, ringEntry{})
	copy(list[at+1:], list[at:])
	list[at] = e
	if len(list) > cap {
		list = list[:cap]
	}
	return list
}

// get returns the entry for peer from either list.
func (v *ringView) get(peer overlay.PeerID) (ringEntry, bool) {
	for _, e := range v.succ {
		if e.peer == peer {
			return e, true
		}
	}
	for _, e := range v.pred {
		if e.peer == peer {
			return e, true
		}
	}
	return ringEntry{}, false
}

// remove deletes peer from both lists (no-op when absent).
func (v *ringView) remove(peer overlay.PeerID) {
	v.succ = removeEntry(v.succ, peer)
	v.pred = removeEntry(v.pred, peer)
}

func removeEntry(list []ringEntry, peer overlay.PeerID) []ringEntry {
	for i, e := range list {
		if e.peer == peer {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// prune drops every entry keep rejects (members that left the ring).
func (v *ringView) prune(keep func(overlay.PeerID) bool) {
	filter := func(list []ringEntry) []ringEntry {
		out := list[:0]
		for _, e := range list {
			if keep(e.peer) {
				out = append(out, e)
			}
		}
		return out
	}
	v.succ = filter(v.succ)
	v.pred = filter(v.pred)
}

// rebase re-sorts both lists around a new owner position (after an
// Algorithm-2 identifier move); entry positions and verification flags
// are unchanged.
func (v *ringView) rebase(own ring.ID) {
	entries := append([]ringEntry(nil), v.succ...)
	for _, e := range v.pred {
		if !containsEntry(entries, e.peer) {
			entries = append(entries, e)
		}
	}
	v.succ, v.pred = v.succ[:0], v.pred[:0]
	for _, e := range entries {
		v.succ = insertByDist(v.succ, e, cwDist(own, e.pos), own, true, succListLen)
		v.pred = insertByDist(v.pred, e, cwDist(e.pos, own), own, false, succListLen)
	}
}

func containsEntry(list []ringEntry, peer overlay.PeerID) bool {
	for _, e := range list {
		if e.peer == peer {
			return true
		}
	}
	return false
}

// heads returns the nearest entry in each direction that live accepts
// (-1 when the list holds no acceptable entry) — the node's short-range
// ring links. Hardened, a firsthand entry is preferred over any hearsay
// one: the ring links a node heartbeats must be peers that claimed their
// own position, with hearsay only bridging the bootstrap window before
// first-person evidence arrives.
func (v *ringView) heads(live func(overlay.PeerID) bool) (succ, pred overlay.PeerID) {
	pick := func(list []ringEntry) overlay.PeerID {
		if v.hardened {
			for _, e := range list {
				if e.firsthand && live(e.peer) {
					return e.peer
				}
			}
		}
		for _, e := range list {
			if live(e.peer) {
				return e.peer
			}
		}
		return -1
	}
	return pick(v.succ), pick(v.pred)
}

// probation returns hearsay entries sitting ahead of the firsthand head
// in each direction — peers that would be the short-range links if their
// claims were verified. Hardened nodes ping them alongside the links:
// the pong's self-entry is first-person evidence and upgrades the entry,
// so a nearer honest neighbor only stays hearsay for one heartbeat RTT.
// Without this, firsthand-preference would pin heads() on farther
// verified peers forever. Nil when the view is not hardened.
func (v *ringView) probation(live func(overlay.PeerID) bool) []overlay.PeerID {
	if !v.hardened {
		return nil
	}
	var out []overlay.PeerID
	scan := func(list []ringEntry) {
		for _, e := range list {
			if !live(e.peer) {
				continue
			}
			if e.firsthand {
				return // everything ahead of the verified head is collected
			}
			out = append(out, e.peer)
		}
	}
	scan(v.succ)
	scan(v.pred)
	return out
}

// succPos returns the position of the first succ entry matching peer
// (used for the Algorithm-1 free-arc computation), ok=false when absent.
func (v *ringView) posOf(peer overlay.PeerID) (ring.ID, bool) {
	if e, ok := v.get(peer); ok {
		return e.pos, true
	}
	return 0, false
}

// wireFields renders both lists (self prepended to the successor side so
// receivers learn the sender's own position too) for Pong/JoinReply
// piggybacking.
func (v *ringView) wireFields(self overlay.PeerID, own ring.ID) (succs []int32, succPos []uint64, preds []int32, predPos []uint64) {
	succs = append(succs, int32(self))
	succPos = append(succPos, math.Float64bits(float64(own)))
	for _, e := range v.succ {
		succs = append(succs, int32(e.peer))
		succPos = append(succPos, math.Float64bits(float64(e.pos)))
	}
	for _, e := range v.pred {
		preds = append(preds, int32(e.peer))
		predPos = append(predPos, math.Float64bits(float64(e.pos)))
	}
	return succs, succPos, preds, predPos
}
