package node

import (
	"math"
	"slices"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/wire"
)

// This file is the adversarial tier (DESIGN.md §14): the byzantine
// behaviors a scheduled faultnet attack window turns on in its attacker
// nodes, and the defense helpers hardened honest nodes answer them with.
// Attacks are *peer* behaviors, not transport faults — an attacker keeps
// speaking well-formed wire protocol, it just lies — so they live here
// rather than in faultnet; the soak driver mirrors the schedule's
// EvAttackStart/EvAttackStop windows onto SetAdversary.

// AdversaryMode selects a node's byzantine behavior (AdvNone = honest).
type AdversaryMode uint8

// Adversary modes, mirroring faultnet's attack arms.
const (
	// AdvNone runs the honest protocol.
	AdvNone AdversaryMode = iota
	// AdvSybil cycles leave/re-join through the victim every maintain
	// tick, flooding its admission path and (when the attacker is a
	// social friend) its free clockwise arc with cheap identities.
	AdvSybil
	// AdvEclipse replaces the gossip tick with forged unsolicited pongs
	// to the victim, claiming the attacker cohort sits ε-close on both
	// flanks of the victim's ring position, plus a long-link proposal —
	// trying to monopolize the victim's successor/predecessor lists and
	// incoming link slots.
	AdvEclipse
	// AdvLiar answers gossip exchanges with an inflated mutual-friend
	// count, poisoning the learned tie strengths that drive Algorithm-2
	// identifier moves.
	AdvLiar
)

// String implements fmt.Stringer.
func (a AdversaryMode) String() string {
	switch a {
	case AdvNone:
		return "none"
	case AdvSybil:
		return "sybil"
	case AdvEclipse:
		return "eclipse"
	case AdvLiar:
		return "liar"
	default:
		return "adversary(?)"
	}
}

// SetAdversary flips this node's behavior for an attack window: mode
// AdvNone reverts to honest protocol. target is the victim and cohort
// the full attacker set (self included) — eclipse attackers vouch for
// their whole cohort, and the node's rank within it fixes which flank
// position it claims, deterministically.
func (n *Node) SetAdversary(mode AdversaryMode, target overlay.PeerID, cohort []overlay.PeerID) {
	n.do(func() {
		n.advMode = mode
		n.advTarget = target
		n.advCohort = append(n.advCohort[:0], cohort...)
		n.advRank = max(slices.Index(cohort, n.id), 0)
	})
}

// Adversary returns the node's current byzantine mode (soak scoring uses
// it to exclude attackers from the eligible set).
func (n *Node) Adversary() (mode AdversaryMode) {
	n.do(func() { mode = n.advMode })
	return mode
}

// flankPos is the forged ring position an eclipse attacker of the given
// cohort rank claims: alternating clockwise/counter-clockwise offsets in
// ε steps around the victim, so the cohort brackets the victim tighter
// than any honest neighbor can sit.
func flankPos(vpos ring.ID, rank int) ring.ID {
	off := float64(rank/2+1) * 1e-5
	if rank%2 == 1 {
		off = -off
	}
	return ring.Norm(float64(vpos) + off)
}

// adversaryMaintain runs instead of the honest maintain tick while an
// attack behavior owns it; it reports whether it did.
func (n *Node) adversaryMaintain() bool {
	target := n.advTarget
	if n.advMode != AdvSybil || target < 0 {
		return false
	}
	// One identity churn per tick: a member leaves, a non-member demands
	// admission from the victim — never from its honest fallbacks.
	if n.dir.isMember(n.id) {
		n.leave()
	} else if n.dir.isMember(target) {
		n.requestJoin(target)
	}
	return true
}

// forgedRingClaim renders the eclipse cohort's ε-flank claims as
// pong piggyback fields: the self entry claims this attacker's flank
// position firsthand, and the lists vouch for the rest of the cohort at
// theirs — hearsay an unhardened ring view swallows whole. ok is false
// when the node is not an armed eclipse attacker.
func (n *Node) forgedRingClaim() (succs []int32, succPos []uint64, preds []int32, predPos []uint64, ok bool) {
	if n.advMode != AdvEclipse || n.advTarget < 0 {
		return nil, nil, nil, nil, false
	}
	vpos := n.dir.position(n.advTarget)
	succs = []int32{int32(n.id)}
	succPos = []uint64{math.Float64bits(float64(flankPos(vpos, n.advRank)))}
	for i, q := range n.advCohort {
		if q == n.id || q == n.advTarget {
			continue
		}
		p := math.Float64bits(float64(flankPos(vpos, i)))
		if len(succs) <= len(preds) {
			succs = append(succs, int32(q))
			succPos = append(succPos, p)
		} else {
			preds = append(preds, int32(q))
			predPos = append(predPos, p)
		}
	}
	return succs, succPos, preds, predPos, true
}

// adversaryGossip runs instead of the honest exchange tick while an
// attack behavior owns it; it reports whether it did.
func (n *Node) adversaryGossip() bool {
	target := n.advTarget
	succs, succPos, preds, predPos, ok := n.forgedRingClaim()
	if !ok {
		return false
	}
	pongSeq, propSeq := n.nextSeq(), n.nextSeq()
	// A forged unsolicited pong lands on the victim's late-pong path and
	// folds the cohort's flank claims into its ring view.
	_ = n.tr.Send(int32(target), &wire.Message{
		Kind: wire.KindPong, From: int32(n.id), To: int32(target), Seq: pongSeq,
		Succs: succs, SuccPos: succPos, Preds: preds, PredPos: predPos,
	})
	// And a long-link proposal, grinding at the victim's K incoming slots.
	_ = n.tr.Send(int32(target), &wire.Message{
		Kind: wire.KindLinkProposal, From: int32(n.id), To: int32(target), Seq: propSeq,
	})
	return true
}

// adversaryBlackhole reports whether an armed eclipse attacker should
// silently eat a publication copy addressed to someone else — the
// payoff of the attack: the forged flank claims attract the victim's
// short-range traffic, and everything routed through the attacker
// disappears. Copies addressed to the attacker itself are still
// consumed normally (a blackhole that stops acking its own deliveries
// would out itself to the failure detector immediately).
func (n *Node) adversaryBlackhole(target overlay.PeerID) bool {
	return n.advMode == AdvEclipse && target != n.id
}

// liarMutual is the AdvLiar exchange answer: claim more mutual friends
// than either neighborhood can hold, dragging the victim's learned tie
// strength for this attacker toward the maximum so Algorithm-2 anchors
// on it.
func (n *Node) liarMutual(honest, theirLen int) int {
	if n.advMode != AdvLiar {
		return honest
	}
	return 2*theirLen + 16
}

// --- defenses (Options.Hardened) ---

// pruneWindow drops timestamps at or before cutoff from an
// append-ordered window.
func pruneWindow(ts []time.Time, cutoff time.Time) []time.Time {
	i := 0
	for i < len(ts) && !ts[i].After(cutoff) {
		i++
	}
	return append(ts[:0], ts[i:]...)
}

// joinGrant is one remembered admission: when it was granted, the
// position that was assigned, and how many times the cache answered for
// it (the hardened cooldown cache below).
type joinGrant struct {
	t      time.Time
	pos    ring.ID
	served int
}

// joinServeCap bounds how many repeat requests per JoinRateWindow the
// admission cache answers before going silent. An honest joiner whose
// grant reply was lost resends and is re-answered immediately (three
// consecutive reply losses at 10% link loss is a 0.1% event), so honest
// rejoins never stall — while a sybil cycling leave/join through the
// same identity is capped at 1+joinServeCap admissions per window, all
// at one fixed position.
const joinServeCap = 3

// cachedJoin is the hardened admission damper: a per-identity
// re-join cooldown served from the admission cache. An identity this
// inviter already placed within the last JoinRateWindow gets the SAME
// position back with no new placement work — one Algorithm-1 placement
// per window per identity is all anyone gets, so no flood can
// concentrate an arc or churn the directory — and past joinServeCap
// repeats the request is dropped outright (drop=true, sybil_rejected).
// Keyed per identity, not a global rate, so a victim under flood still
// admits every honest newcomer at full speed.
func (n *Node) cachedJoin(now time.Time, q overlay.PeerID) (pos ring.ID, cached, drop bool) {
	if !n.cfg.Hardened {
		return 0, false, false
	}
	g, ok := n.joinAdmits[q]
	if !ok || now.Sub(g.t) >= n.cfg.JoinRateWindow {
		return 0, false, false
	}
	if g.served >= joinServeCap {
		n.cfg.Obs.Inc(obs.CSybilRejected)
		return 0, true, true
	}
	g.served++
	n.joinAdmits[q] = g
	return g.pos, true, false
}

// recordJoin arms the cooldown cache after a fresh placement.
func (n *Node) recordJoin(now time.Time, q overlay.PeerID, pos ring.ID) {
	if !n.cfg.Hardened {
		return
	}
	if n.joinAdmits == nil {
		n.joinAdmits = make(map[overlay.PeerID]joinGrant)
	}
	n.joinAdmits[q] = joinGrant{t: now, pos: pos}
}

// arcJoinCap is the most friend-arc placements one inviter grants per
// JoinRateWindow when hardened.
const arcJoinCap = 4

// arcGrant is the hardened arc-occupancy cap: at most arcJoinCap
// Algorithm-1 social placements inside this inviter's free arc (one LSH
// region) per JoinRateWindow. Overflow friends are diverted to their
// uniform independent-join position (sybil_diverted) — the same spread
// non-friends always get — so no window of joins can concentrate one
// bucket.
func (n *Node) arcGrant(now time.Time) bool {
	if !n.cfg.Hardened {
		return true
	}
	n.arcGrants = pruneWindow(n.arcGrants, now.Add(-n.cfg.JoinRateWindow))
	if len(n.arcGrants) >= arcJoinCap {
		n.cfg.Obs.Inc(obs.CSybilDiverted)
		return false
	}
	n.arcGrants = append(n.arcGrants, now)
	return true
}

// clampMutual is the count-sanity rule on exchange replies: mutual
// friends are a subset of both endpoints' neighborhoods, so any claim
// above min(deg(self), deg(peer)) — or below zero — is a lie. Every
// out-of-range claim is counted (strength_clamped), hardened or not, so
// the defenses-off ablation measures how many lies it swallowed.
// Hardened nodes REJECT the claim (ok=false: keep the previously
// learned strength) rather than capping it — clamping to the bound
// would hand the liar the maximum strength it could have claimed
// honestly, which is the whole prize of the attack.
func (n *Node) clampMutual(nm int, from overlay.PeerID) (int, bool) {
	lim := n.g.Degree(n.id)
	if d := n.g.Degree(from); d < lim {
		lim = d
	}
	if nm >= 0 && nm <= lim {
		return nm, true
	}
	n.cfg.Obs.Inc(obs.CStrengthClamped)
	return nm, !n.cfg.Hardened
}
