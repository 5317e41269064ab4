package node

import (
	"sync"

	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
)

// directory is the cluster-shared registry of ring positions and
// membership. It stands in for the converged position knowledge every
// peer of a running SELECT deployment has accumulated (the same realism
// level as the frozen overlay the runtime used to read): a node writes
// through its own entry when it joins, leaves, or moves its identifier,
// and the IDAnnounce/Leave wire messages are the protocol actions that
// would carry those writes peer-to-peer (DESIGN.md §8).
//
// Since the successor-list work (DESIGN.md §9) its ring role is
// bootstrap-only: ringNeighbors seeds the initial members' views in
// Cluster.Start and nothing else — live ring repair splices from each
// node's own successor/predecessor lists.
type directory struct {
	mu     sync.RWMutex
	pos    []ring.ID
	member []bool
}

func newDirectory(n int) *directory {
	return &directory{pos: make([]ring.ID, n), member: make([]bool, n)}
}

func (d *directory) position(p overlay.PeerID) ring.ID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pos[p]
}

// appendPositions appends the positions of ps to dst under one lock —
// the routing pass reads every link's position at once.
func (d *directory) appendPositions(dst []ring.ID, ps []overlay.PeerID) []ring.ID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, p := range ps {
		dst = append(dst, d.pos[p])
	}
	return dst
}

// valid reports whether p is a peer id of this cluster; the table's size
// never changes, so no lock is taken. Ids that arrive in frames are
// outside input and index nothing before they pass here.
func (d *directory) valid(p overlay.PeerID) bool { return p >= 0 && int(p) < len(d.pos) }

func (d *directory) setPosition(p overlay.PeerID, id ring.ID) {
	d.mu.Lock()
	d.pos[p] = id
	d.mu.Unlock()
}

// isMember reports whether p is currently a member; an id this cluster
// does not have is none.
func (d *directory) isMember(p overlay.PeerID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.valid(p) && d.member[p]
}

func (d *directory) setMember(p overlay.PeerID, m bool) {
	d.mu.Lock()
	d.member[p] = m
	d.mu.Unlock()
}

func (d *directory) memberCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, m := range d.member {
		if m {
			n++
		}
	}
	return n
}

// appendRingMembers appends the current members with their positions to
// dst, under one read lock — the input the placement rules consume
// (selectcore.Rendezvous, selectcore.InboxReplicas).
func (d *directory) appendRingMembers(dst []selectcore.RingMember) []selectcore.RingMember {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for q, m := range d.member {
		if m {
			dst = append(dst, selectcore.RingMember{ID: overlay.PeerID(q), Pos: d.pos[q]})
		}
	}
	return dst
}

// memberPos returns p's directory position and whether p is currently a
// member — the admission-record lookup the hardened ring view
// cross-checks hearsay position claims against (DESIGN.md §14).
func (d *directory) memberPos(p overlay.PeerID) (ring.ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p < 0 || int(p) >= len(d.member) || !d.member[p] {
		return 0, false
	}
	return d.pos[p], true
}

// firstMember returns the lowest-id member other than p (-1 when the
// ring is empty) — the deterministic contact of last resort for a joiner
// with no member friends.
func (d *directory) firstMember(p overlay.PeerID) overlay.PeerID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for q, m := range d.member {
		if m && overlay.PeerID(q) != p {
			return overlay.PeerID(q)
		}
	}
	return -1
}

// ringNeighbors returns p's nearest member in the clockwise (succ) and
// counter-clockwise (pred) direction — the short-range links. A member on
// p's own position is nearest both ways, at distance zero: positions are
// distinct in a legitimate ring (Cluster.AuditRing), and a scan that read
// a shared one as a full loop away would call such a ring consistent.
// Bootstrap and measurement only: the live runtime derives its heads from
// successor lists (ringlist.go).
func (d *directory) ringNeighbors(p overlay.PeerID) (succ, pred overlay.PeerID) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	succ, pred = -1, -1
	my := d.pos[p]
	ds, dp := 2.0, 2.0
	for q, m := range d.member {
		if !m || overlay.PeerID(q) == p {
			continue
		}
		if cw := ring.Clockwise(my, d.pos[q]); cw < ds {
			ds, succ = cw, overlay.PeerID(q)
		}
		if ccw := ring.Clockwise(d.pos[q], my); ccw < dp {
			dp, pred = ccw, overlay.PeerID(q)
		}
	}
	return succ, pred
}
