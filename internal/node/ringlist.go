package node

import (
	"math"
	"time"

	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
	"selectps/internal/wire"
)

// ringEntry is one learned (peer, position) claim of the successor/
// predecessor lists. firsthand marks first-person evidence: the claim
// came from the peer itself (its pong self-entry, the position on its
// ping, its own identifier announcement, a join-reply from it) or from
// the trusted bootstrap — as opposed to hearsay piggybacked by a third
// party. conf is when the peer itself last confirmed the position as far
// as this node knows: the arrival time of first-hand evidence, or, for
// hearsay, the arrival time less the age the sender reported and one hop
// penalty.
type ringEntry struct {
	peer      overlay.PeerID
	pos       ring.ID
	firsthand bool
	conf      time.Time
}

// succListLen is r, the successor/predecessor list depth backing ring
// repair.
const succListLen = 4

// ringView is a node's r-deep decentralized view of its ring
// neighborhood: the nearest known members clockwise (succ) and
// counter-clockwise (pred), learned from join replies, heartbeat
// piggybacks and identifier announcements — never from the directory
// (DESIGN.md §9). When a ring neighbor dies the node splices to the next
// live entry locally, which is what keeps greedy ring routing alive
// under churn without any omniscient membership scan.
//
// One rule governs what a claim may do (DESIGN.md §9.3), for honest and
// hardened clusters alike: every claim carries its age since the peer's
// own confirmation; of two claims about a peer the fresher wins, so an
// echo — always older than the claim it echoes by at least the hop
// penalty — never refreshes anything, and a claim nobody re-confirms
// lapses after ttl. A ring head is a firsthand entry; hearsay that sits
// nearer is a candidate the next heartbeat sweep probes (probation), and
// the candidate's own pong places it. All methods are called under the
// owning node's mutex.
type ringView struct {
	succ []ringEntry // sorted by clockwise distance from the owner
	pred []ringEntry // sorted by counter-clockwise distance from the owner
	// hop is the age a claim gains per relay and ttl the age past which it
	// is neither held nor advertised. Zero ttl (heartbeats off: nothing
	// would ever re-confirm) means claims do not lapse.
	hop, ttl time.Duration
}

// newRingView sizes the claim lifetime from the base heartbeat interval:
// a claim crosses at most r relays, each of which may sit a full
// backed-off sweep on it before passing it on, and waits one more sweep
// at the holder.
func newRingView(heartbeatEvery time.Duration) ringView {
	return ringView{
		hop: heartbeatEvery,
		ttl: (succListLen + 1) * ((1 << selectcore.CadenceMaxLevel) + 1) * heartbeatEvery,
	}
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

// learn folds one claim — peer sits at pos, confirmed by the peer itself
// at conf — into both direction lists, keeping each sorted and truncated
// to r entries. self guards against learning the owner. First-hand
// evidence always lands. Hearsay lands only when it is fresher than what
// the view holds; it keeps an entry's verification when it agrees on the
// position and turns the entry back into a candidate when it does not
// (the peer moved after it vouched). blocked reports hearsay that tried
// to move a firsthand entry and was refused as stale (feeds the
// eclipse_displaced counter).
func (v *ringView) learn(own ring.ID, self, peer overlay.PeerID, pos ring.ID, firsthand bool, conf time.Time) (blocked bool) {
	if peer < 0 || peer == self {
		return false
	}
	if cur, ok := v.get(peer); ok {
		if !firsthand {
			if !conf.After(cur.conf) {
				return cur.firsthand && cur.pos != pos
			}
			firsthand = cur.firsthand && cur.pos == pos
		}
		if cur.pos == pos {
			v.set(ringEntry{peer, pos, firsthand, conf})
			return false
		}
		v.remove(peer)
	}
	e := ringEntry{peer, pos, firsthand, conf}
	v.succ = insertByDist(v.succ, e, cwDist(own, pos), own, true)
	v.pred = insertByDist(v.pred, e, cwDist(pos, own), own, false)
	return false
}

// insertByDist places e into list (sorted by its direction's distance
// from own), dropping the farthest entry past r.
func insertByDist(list []ringEntry, e ringEntry, d float64, own ring.ID, clockwise bool) []ringEntry {
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
	if at >= succListLen {
		return list
	}
	list = append(list, ringEntry{})
	copy(list[at+1:], list[at:])
	list[at] = e
	if len(list) > succListLen {
		list = list[:succListLen]
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

// set overwrites peer's entry wherever it sits (same position, so no
// re-sort).
func (v *ringView) set(e ringEntry) {
	for _, list := range [2][]ringEntry{v.succ, v.pred} {
		for i := range list {
			if list[i].peer == e.peer {
				list[i] = e
			}
		}
	}
}

// confirm re-stamps peer's firsthand entry, if it has one: the heartbeat
// sweep calls it for a link whose ping it suppressed because the link's
// own traffic proved it alive. A linked peer announces its moves to this
// node, so silence about its position from a peer that is talking is
// confirmation.
func (v *ringView) confirm(peer overlay.PeerID, now time.Time) {
	if e, ok := v.get(peer); ok && e.firsthand {
		e.conf = now
		v.set(e)
	}
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

// prune drops every entry keep rejects and reports whether it dropped
// any.
func (v *ringView) prune(keep func(ringEntry) bool) bool {
	before := len(v.succ) + len(v.pred)
	filter := func(list []ringEntry) []ringEntry {
		out := list[:0]
		for _, e := range list {
			if keep(e) {
				out = append(out, e)
			}
		}
		return out
	}
	v.succ = filter(v.succ)
	v.pred = filter(v.pred)
	return len(v.succ)+len(v.pred) != before
}

// lapsed reports whether a claim confirmed at conf is past its lifetime.
func (v *ringView) lapsed(conf, now time.Time) bool {
	return v.ttl > 0 && now.Sub(conf) > v.ttl
}

// rebase re-sorts both lists around a new owner position (after an
// Algorithm-2 identifier move); entry positions, verification flags and
// ages are unchanged.
func (v *ringView) rebase(own ring.ID) {
	entries := append([]ringEntry(nil), v.succ...)
	for _, e := range v.pred {
		if !containsEntry(entries, e.peer) {
			entries = append(entries, e)
		}
	}
	v.succ, v.pred = v.succ[:0], v.pred[:0]
	for _, e := range entries {
		v.succ = insertByDist(v.succ, e, cwDist(own, e.pos), own, true)
		v.pred = insertByDist(v.pred, e, cwDist(e.pos, own), own, false)
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

// heads returns the node's short-range ring links: in each direction the
// nearest firsthand entry live accepts — a peer that claimed its own
// position — falling back to the nearest hearsay entry only while the
// list holds no firsthand one (-1 when it holds nothing acceptable).
func (v *ringView) heads(live func(overlay.PeerID) bool) (succ, pred overlay.PeerID) {
	pick := func(list []ringEntry) overlay.PeerID {
		fallback := overlay.PeerID(-1)
		for _, e := range list {
			if !live(e.peer) {
				continue
			}
			if e.firsthand {
				return e.peer
			}
			if fallback < 0 {
				fallback = e.peer
			}
		}
		return fallback
	}
	return pick(v.succ), pick(v.pred)
}

// probation returns the hearsay entries sitting ahead of the firsthand
// head in each direction — peers that would be the short-range links if
// their claims were verified. The heartbeat sweep pings them alongside
// the links: the pong's self-entry is first-person evidence and places
// the peer, so a nearer neighbor stays a candidate for one heartbeat RTT
// and a stale claim is refuted by the peer it names.
func (v *ringView) probation(live func(overlay.PeerID) bool) []overlay.PeerID {
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

// posOf returns the position the view holds for peer, ok=false when
// absent.
func (v *ringView) posOf(peer overlay.PeerID) (ring.ID, bool) {
	if e, ok := v.get(peer); ok {
		return e.pos, true
	}
	return 0, false
}

// ringClaims is the backing store of the ring lists one Ping, Pong or
// JoinReply carries: at most succListLen entries a side, the sender's own
// entry heading the successor side, and an age per entry. Each node owns
// one (Node.claims), reused from frame to frame.
type ringClaims struct {
	succs   [1 + succListLen]int32
	succPos [1 + succListLen]uint64
	preds   [succListLen]int32
	predPos [succListLen]uint64
	ages    [1 + 2*succListLen]int32
}

// piggyback returns m with both lists rendered onto it (self prepended to
// the successor side, so receivers learn the sender's own position
// first-hand), with each claim's age in milliseconds in the frame's
// Neighborhood slot — successors, then predecessors (wire.Message).
// Lapsed claims are not passed on. The lists are views of c.
func (v *ringView) piggyback(m wire.Message, c *ringClaims, self overlay.PeerID, own ring.ID, now time.Time) wire.Message {
	m.Succs, m.SuccPos, m.Neighborhood = v.render(v.succ, now,
		append(c.succs[:0], int32(self)), append(c.succPos[:0], math.Float64bits(float64(own))), append(c.ages[:0], 0))
	m.Preds, m.PredPos, m.Neighborhood = v.render(v.pred, now, c.preds[:0], c.predPos[:0], m.Neighborhood)
	return m
}

// render appends the claims of list that have not lapsed to peers, poss
// and ages.
func (v *ringView) render(list []ringEntry, now time.Time, peers []int32, poss []uint64, ages []int32) ([]int32, []uint64, []int32) {
	for _, e := range list {
		if v.lapsed(e.conf, now) {
			continue
		}
		age := max(now.Sub(e.conf)/time.Millisecond, 0)
		peers = append(peers, int32(e.peer))
		poss = append(poss, math.Float64bits(float64(e.pos)))
		ages = append(ages, int32(min(age, math.MaxInt32)))
	}
	return peers, poss, ages
}

// claimAges splits a piggybacked frame's age slot into its successor and
// predecessor halves; a short slot leaves the tail ageless (read as 0).
func claimAges(m *wire.Message) (succAge, predAge []int32) {
	k := min(len(m.Succs), len(m.Neighborhood))
	return m.Neighborhood[:k], m.Neighborhood[k:]
}
