package selectcore

import (
	"slices"

	"selectps/internal/overlay"
	"selectps/internal/ring"
)

// Topic rules (DESIGN.md §13): named topics hash to a ring position and
// rendezvous on the first live clockwise successors of that position —
// the same successor-set geometry the durable tier uses for inbox
// replicas, so topic state needs no directory of its own. Both the
// rendezvous-placement rule and the dissemination-tree rule are pure
// functions of (position, membership) shared by the simulator and the
// runtime; the equivalence tests in topic_test.go pin that every peer
// with the same ring view derives the identical rendezvous set and the
// identical tree.

// TopicPos maps a topic name onto the unit ring. Publishers,
// subscribers, and rendezvous candidates all derive placement from this
// one hash, so no coordination is needed to agree where a topic lives.
func TopicPos(name string) ring.ID {
	return ring.Hash([]byte(name))
}

// Rendezvous is the topic-placement rule: the first r live peers
// clockwise from pos host the topic's subscriber registry (index 0 is
// the primary, the rest are standbys that shadow the registry and take
// over fan-out when the primary dies). Unlike InboxReplicas no peer is
// excluded — a topic position is a hash, not a peer, so any live member
// may serve it. Ties on a shared position break by peer id so every
// caller derives the identical set.
func Rendezvous(pos ring.ID, members []RingMember, live func(overlay.PeerID) bool, r int) []overlay.PeerID {
	return AppendRendezvous(nil, pos, members, live, r)
}

// AppendRendezvous is Rendezvous into caller storage: the set is appended
// to dst, and with room in dst for r more nothing is allocated.
func AppendRendezvous(dst []overlay.PeerID, pos ring.ID, members []RingMember, live func(overlay.PeerID) bool, r int) []overlay.PeerID {
	return clockwiseSuccessors(dst, pos, -1, members, live, r)
}

// succStack is how many successors clockwiseSuccessors keeps in a stack
// buffer; a larger r takes one heap buffer besides the result.
const succStack = 8

// succCand is one member kept by clockwiseSuccessors: its clockwise
// distance from pos and its id, the two keys of the order.
type succCand struct {
	d  float64
	id overlay.PeerID
}

// before is the successor order: nearer first, the lower id on a tie.
func (a succCand) before(b succCand) bool {
	return a.d < b.d || (a.d == b.d && a.id < b.id)
}

// clockwiseSuccessors is the shared successor-selection kernel behind
// Rendezvous and InboxReplicas: it appends to dst the first r live
// members strictly clockwise from pos (a member exactly at pos wraps the
// whole ring — measure-zero for hashed positions, and deterministic),
// excluding `exclude` when it is a valid peer id, id-tiebroken. One pass
// over members keeps the r nearest so far in order by insertion; live is
// asked only about a member near enough to be kept. While r ≤ succStack
// nothing is allocated that dst has room for; a nil dst gets a set of its
// own, empty or not, for r > 0.
func clockwiseSuccessors(dst []overlay.PeerID, pos ring.ID, exclude overlay.PeerID, members []RingMember, live func(overlay.PeerID) bool, r int) []overlay.PeerID {
	if r <= 0 {
		return dst
	}
	var stack [succStack]succCand
	best := stack[:0]
	if r > succStack {
		best = make([]succCand, 0, r)
	}
	for _, m := range members {
		if m.ID == exclude {
			continue
		}
		d := ring.Clockwise(pos, m.Pos)
		if d <= 0 {
			d += 1
		}
		c := succCand{d, m.ID}
		full := len(best) == r
		if (full && !c.before(best[r-1])) || (live != nil && !live(m.ID)) {
			continue
		}
		if full {
			best = best[:r-1]
		}
		i := len(best)
		best = append(best, c)
		for ; i > 0 && c.before(best[i-1]); i-- {
			best[i] = best[i-1]
		}
		best[i] = c
	}
	if dst == nil {
		dst = make([]overlay.PeerID, 0, len(best))
	}
	for _, c := range best {
		dst = append(dst, c.id)
	}
	return dst
}

// TreeBranches is the dissemination-tree rule: given a topic's
// subscriber set (any order, duplicates tolerated) it returns at most
// `fanout` branches. Each branch is a slice whose first element is the
// child the current node forwards to and whose tail is that child's
// subtree — the child recurses with TreeBranches(branch[1:], fanout),
// so the whole tree unrolls from local decisions with no shared state
// beyond the subscriber list itself. Subscribers are ranked by id, and
// branch sizes differ by at most one, giving a complete fanout-ary tree
// of depth ceil(log_fanout(n)). The input slice is not mutated.
func TreeBranches(subs []overlay.PeerID, fanout int) [][]overlay.PeerID {
	branches, _ := AppendTreeBranches(nil, nil, subs, fanout)
	return branches
}

// AppendTreeBranches is TreeBranches into caller storage: the ranked
// subscribers are written over order's storage and the branches, views of
// it, are appended to dst. Both come back, grown where they had to be, for
// the caller to keep; with room in both nothing is allocated.
func AppendTreeBranches(dst [][]overlay.PeerID, order, subs []overlay.PeerID, fanout int) ([][]overlay.PeerID, []overlay.PeerID) {
	if len(subs) == 0 {
		return dst, order
	}
	if fanout < 1 {
		fanout = 1
	}
	order = append(order[:0], subs...)
	slices.Sort(order)
	// Drop duplicates so a double-registered subscriber cannot become
	// its own descendant.
	order = slices.Compact(order)
	k := min(fanout, len(order))
	base := len(order) / k
	rem := len(order) % k
	at := 0
	for i := 0; i < k; i++ {
		sz := base
		if i < rem {
			sz++
		}
		// Capped at its own length: a caller that appends to a branch
		// cannot write into the next one.
		dst = append(dst, order[at:at+sz:at+sz])
		at += sz
	}
	return dst, order
}
