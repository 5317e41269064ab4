// Package selectcore holds the SELECT protocol decisions shared between
// the offline construction simulator (internal/selectsys) and the live
// node runtime (internal/node): the symmetric social tie-strength formula
// (§III-A), the Algorithm-1 projection placement for invited and
// independent joins, the Algorithm-2 identifier-reassignment target, the
// Algorithm-5 LSH bucket index over friendship bitmaps, and the
// Algorithm-6 bucket picker.
//
// Both consumers call exactly these functions, so the overlay a cluster
// converges to live is produced by the same decision rules the simulator
// was validated against (DESIGN.md §8) — the difference between the two
// is only *how* each peer learns its inputs (direct graph reads in the
// simulator, Algorithm-3/4 exchange messages live), never *what* it does
// with them.
package selectcore

import (
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/socialgraph"
)

// StrengthFromCounts is the symmetric tie strength of a friendship edge
// given the two degrees and the common-neighbor count |C_p ∩ C_v|:
// common friends over the union of the two neighborhoods, with +1 keeping
// the friendship edge itself worth something even with no common friends.
// Eq. 2's one-sided normalization |C_p∩C_u|/|C_p| would make every
// low-degree peer's strongest friends the global hubs; the symmetric form
// keeps the common-friend signal of §III-A while anchoring peers to their
// own community.
//
// The live runtime evaluates this from the NMutual field of an
// Algorithm-4 exchange reply; the simulator from a direct
// CommonNeighbors query. Same counts, same strength.
func StrengthFromCounts(degP, degV, common int) float64 {
	union := degP + degV - common
	if union <= 0 {
		return 0
	}
	return (float64(common) + 1) / float64(union+1)
}

// Strength evaluates StrengthFromCounts against the graph directly.
func Strength(g *socialgraph.Graph, p, v overlay.PeerID) float64 {
	return StrengthFromCounts(g.Degree(p), g.Degree(v), g.CommonNeighbors(p, v))
}

// StrengthRow fills row[i] with Strength(g, p, C_p[i]) aligned with
// g.Neighbors(p), reusing row when it has capacity. Nil when p has no
// friends.
func StrengthRow(g *socialgraph.Graph, p overlay.PeerID, row []float64) []float64 {
	friends := g.Neighbors(p)
	if len(friends) == 0 {
		return nil
	}
	if cap(row) < len(friends) {
		row = make([]float64, len(friends))
	}
	row = row[:len(friends)]
	for i, v := range friends {
		row[i] = Strength(g, p, v)
	}
	return row
}

// Top2 returns the two friends with the strongest ties (-1 when absent),
// ties broken by list order — the anchor pair of Algorithm 2's "midpoint
// of the two strongest friends". strength is aligned with friends;
// entries with strength < 0 are skipped (the live runtime marks friends
// it has not exchanged with yet that way).
func Top2(friends []overlay.PeerID, strength []float64) (best, second overlay.PeerID) {
	best, second = -1, -1
	var bs, ss float64 = -1, -1
	for i, v := range friends {
		s := strength[i]
		if s < 0 {
			continue
		}
		switch {
		case s > bs:
			second, ss = best, bs
			best, bs = v, s
		case s > ss:
			second, ss = v, s
		}
	}
	return best, second
}

// ReassignTarget is the Algorithm-2 identifier target of peer mover: the
// ring midpoint of its two strongest friends' positions, displaced by an
// amount that is a function of the mover's identity and at most
// ReassignSpread/2. The literal midpoint puts every peer with the same two
// strongest friends — a common case among members of one community — on
// the same float64, where greedy routing makes no progress between them
// and only one of them is anybody's ring successor; displaced, they are
// ring neighbours. The displacement is far below any move threshold, so
// social locality and the number of moves are those of the midpoint rule.
//
// Distinct movers get distinct targets: the low 32 bits of the identity
// are multiplied by 2³²/φ modulo 2³² (Fibonacci hashing), a bijection
// that keeps any N identities drawn from a dense range at least about
// 2³²/(√5·N) apart (the three-gap theorem) — a target spacing of 10⁻¹³
// at a million peers, three decimal orders above float64 resolution at
// 1.0.
func ReassignTarget(a, b ring.ID, mover uint64) ring.ID {
	h := uint32(mover) * 2654435769
	return ring.Perturb(ring.Midpoint(a, b), (float64(h)/(1<<32)-0.5)*ReassignSpread)
}

// ReassignSpread is the width of the band around the midpoint over which
// ReassignTarget spreads movers: three decimal orders below the smallest
// move threshold in use (selectsys.Config.MoveEps, 10⁻⁴; the live
// runtime's is 0.002).
const ReassignSpread = 1e-6

// PlaceJoin is the Algorithm-1 placement of an invited peer: it lands
// inside the inviter's currently free clockwise arc (between the inviter
// and its ring successor), so the invitee becomes the inviter's closest
// ring neighbor and invitation subtrees grow into contiguous regions —
// the Fig. 8 picture of "small groups within regions without losing
// connectivity between regions". (A fixed tiny offset instead would
// collapse the whole network onto the first seed's position.)
//
// gap is the free clockwise arc ring.Clockwise(inviter, successor);
// callers pass fallbackGap (e.g. 1/(members+1)) for the degenerate
// single-member ring where the arc is zero. u ∈ [0,1) is the caller's
// deterministic jitter draw.
//
// Every invitation cuts the inviter's free arc roughly in half, so a hub
// inviting a few dozen friends in a row would squeeze them one float64
// ulp apart — and then onto the same position, where greedy routing makes
// no progress between them. Below minJoinArc the arc counts as full and
// user is placed like an independent subscriber instead.
func PlaceJoin(inviter ring.ID, gap, fallbackGap, u float64, user uint64) ring.ID {
	if gap <= 0 {
		gap = fallbackGap
	}
	if gap < minJoinArc {
		return PlaceIndependent(user)
	}
	return ring.Perturb(inviter, gap*(0.3+0.4*u))
}

// minJoinArc is the narrowest free arc PlaceJoin still subdivides: ~40
// halvings of the full ring, four decimal orders above float64
// resolution at 1.0.
const minJoinArc = 1e-12

// PlaceIndependent is the Algorithm-1 placement of a peer subscribing
// independently (no registered friend to invite it): a uniform hash of
// its identity.
func PlaceIndependent(user uint64) ring.ID { return ring.HashUint64(user) }
