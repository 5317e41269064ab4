package node

import (
	"cmp"
	"math"
	"slices"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
	"selectps/internal/wire"
)

// This file is the live SELECT maintenance loop (DESIGN.md §8): the join
// protocol (Algorithm 1 at runtime), periodic identifier reassignment
// (Algorithm 2 over strengths learned from exchange replies) and LSH
// link reassignment (Algorithms 5–6 over learned link bitmaps), with the
// K-incoming cap and bandwidth eviction of §III-D. Every decision rule
// is a selectcore call — the same code the offline simulator converges
// with; only the inputs arrive over the wire here.

// requestJoin marks the node as wanting in (preferring the given inviter,
// -1 for automatic choice) and fires the first JoinRequest; resends ride
// the repair scheduler (repair.go) until a JoinReply lands.
func (n *Node) requestJoin(inviter overlay.PeerID) {
	n.wantJoin = true
	n.inviterPref = inviter
	n.joinAttempt = 0
	n.scheduleJoinResend(time.Now())
	n.sendJoinRequest()
	n.kickRetry()
}

// sendJoinRequest picks the contact — the preferred inviter when it is a
// member, else the node's first member friend (the social inviter of
// Algorithm 1), else any member (an independent join) — and asks it for
// admission.
func (n *Node) sendJoinRequest() {
	target := overlay.PeerID(-1)
	if pref := n.inviterPref; pref >= 0 && n.dir.isMember(pref) {
		target = pref
	} else {
		for _, f := range n.g.Neighbors(n.id) {
			if n.dir.isMember(f) {
				target = f
				break
			}
		}
	}
	if target < 0 {
		target = n.dir.firstMember(n.id)
	}
	if target < 0 {
		return // nobody to join through yet; the ticker retries
	}
	n.send(int32(target), &wire.Message{
		Kind: wire.KindJoinRequest, From: int32(n.id), To: int32(target), Seq: n.nextSeq(),
	})
}

// handleJoinRequest serves an admission: a member places the requester
// per Algorithm 1 — a social friend lands inside the free clockwise arc
// next to this inviter, anyone else at its uniform hash position — and
// replies with the position, this node's links as seed contacts, and this
// node's successor/predecessor lists so the joiner starts with a ring
// view. The free arc comes from the local successor list, not the
// directory (bootstrap-only).
func (n *Node) handleJoinRequest(m *wire.Message) {
	if !n.dir.isMember(n.id) {
		return // not in the ring ourselves; the joiner will retry
	}
	n.cfg.Obs.Inc(obs.CJoinRequest)
	q := overlay.PeerID(m.From)
	myPos := n.dir.position(n.id)
	now := time.Now()
	pos, cached, drop := n.cachedJoin(now, q)
	if drop {
		// Hardened re-join cooldown exhausted — this identity is cycling
		// leave/join through this inviter (adversary.go).
		return
	}
	if !cached {
		if n.g.HasEdge(n.id, q) && n.arcGrant(now) {
			gap := 0.0
			if succ, _ := n.rview.heads(n.dir.isMember); succ >= 0 {
				if sp, ok := n.rview.posOf(succ); ok {
					gap = ring.Clockwise(myPos, sp)
				}
			}
			pos = selectcore.PlaceJoin(myPos, gap, 1/float64(n.dir.memberCount()+1), n.rng.Float64(), uint64(q))
		} else {
			pos = selectcore.PlaceIndependent(uint64(q))
		}
		n.recordJoin(now, q, pos)
	}
	n.linkList = n.appendLinks(n.linkList[:0])
	reply := n.rview.piggyback(wire.Message{
		Kind: wire.KindJoinReply, From: int32(n.id), To: m.From, Seq: m.Seq,
		Pos:          math.Float64bits(float64(pos)),
		RoutingTable: n.linkList,
	}, &n.claims, n.id, myPos, now)
	n.cadenceEvent(selectcore.CadenceMembership)
	n.cfg.Obs.Inc(obs.CJoinReply)
	n.send(m.From, &reply)
}

// handleJoinReply completes the join: adopt the assigned position, enter
// the ring, seed the ring view from the inviter's successor/predecessor
// lists (the inviter prepends itself, so at minimum the view holds it),
// learn the inviter's links from its table, and announce the new
// identifier to member friends and seed contacts.
func (n *Node) handleJoinReply(m *wire.Message) {
	if n.dir.isMember(n.id) {
		return // duplicate reply from a retried request
	}
	from := overlay.PeerID(m.From)
	pos := ring.ID(math.Float64frombits(m.Pos))
	prevPos := n.dir.position(n.id) // pre-crash identifier; inbox deposits live clockwise of it
	n.dir.setPosition(n.id, pos)
	n.dir.setMember(n.id, true)
	n.joined = true
	n.wantJoin = false
	n.joinNext = time.Time{}
	n.joinAttempt = 0
	n.learnLinks(from, m.RoutingTable)
	n.learnPiggyback(pos, m)
	n.cadenceEvent(selectcore.CadenceMembership)
	close(n.joinedCh)
	dests := n.announce[:0]
	for _, f := range n.g.Neighbors(n.id) {
		if n.dir.isMember(f) {
			dests = append(dests, f)
		}
	}
	for _, q := range m.RoutingTable {
		if q != n.id && n.dir.isMember(q) {
			dests = append(dests, q)
		}
	}
	n.announce = dests
	seqA := n.nextSeq()
	seqX := n.nextSeq()
	n.cfg.Obs.TraceEvent("join", int32(n.id), m.Seq)
	// Durable tier: a node that just (re)entered the ring claims its inbox
	// replicas — any deposits that accumulated while it was offline replay
	// now (inbox.go).
	if n.startInboxClaim(time.Now(), prevPos) {
		n.kickRetry()
	}
	n.announceID(dests, seqA, pos)
	// Start learning immediately: exchange with the inviter rather than
	// waiting out a gossip period, so strengths and bitmaps (and with
	// them Algorithm 2 and 5) arrive one round-trip after admission.
	if n.g.HasEdge(n.id, from) {
		n.linkList = n.appendLinks(n.linkList[:0])
		n.send(m.From, &wire.Message{
			Kind: wire.KindExchangeRT, From: int32(n.id), To: m.From, Seq: seqX,
			Neighborhood: n.g.Neighbors(n.id),
			RoutingTable: n.linkList,
		})
	}
}

// announceID tells dests that this node's identifier is now pos, in one
// IDAnnounce each. dests is sorted and compacted in place first, so that a
// peer named twice hears it once and every run of a seed sends the same
// frames in the same order.
func (n *Node) announceID(dests []overlay.PeerID, seq uint32, pos ring.ID) {
	slices.Sort(dests)
	m := wire.Message{Kind: wire.KindIDAnnounce, From: int32(n.id), Seq: seq, Pos: math.Float64bits(float64(pos))}
	for _, q := range slices.Compact(dests) {
		m.To = int32(q)
		n.send(m.To, &m)
	}
}

// maintainTick runs one round of the live maintenance loop. Join resends
// ride the repair scheduler now (repair.go), and the short-range links
// come from the node's own successor lists — the directory's ring scan is
// bootstrap-only.
func (n *Node) maintainTick() {
	if n.adversaryMaintain() {
		return
	}
	if !n.dir.isMember(n.id) {
		return
	}
	n.mtick++
	n.pruneGone()
	n.refreshHeads()
	n.reassign()
	n.relink()
	n.inboxSweep()
	n.topicMaintain()
}

// refreshHeads re-derives the short-range ring links from the
// successor/predecessor lists: the nearest entry in each direction that
// is still a member. This is the local splice — when the old head died or
// left, the next list entry takes over without consulting anyone.
func (n *Node) refreshHeads() {
	if !n.joined {
		return
	}
	succ, pred := n.rview.heads(n.dir.isMember)
	if succ != n.shortSucc || pred != n.shortPred {
		n.shortSucc, n.shortPred = succ, pred
		n.cfg.Obs.Inc(obs.CRingHeadChange)
		n.cadenceEvent(selectcore.CadenceRing)
	}
}

// pruneGone forgets links to peers that left the ring (crashed or
// departed); their state is rebuilt through the join protocol if they
// come back. A pruned long link changes the routing table, so it is a
// link event as well as a membership one.
func (n *Node) pruneGone() {
	unlinked := false
	keep := func(links []overlay.PeerID) []overlay.PeerID {
		out := links[:0]
		for _, q := range links {
			if n.dir.isMember(q) {
				out = append(out, q)
			}
		}
		unlinked = unlinked || len(out) != len(links)
		return out
	}
	n.longOut = keep(n.longOut)
	n.longIn = keep(n.longIn)
	for q := range n.pendingOut {
		if !n.dir.isMember(q) {
			delete(n.pendingOut, q)
		}
	}
	for q := range n.refused {
		if !n.dir.isMember(q) {
			delete(n.refused, q)
		}
	}
	gone := n.rview.prune(func(e ringEntry) bool { return n.dir.isMember(e.peer) }) || unlinked
	if unlinked {
		n.cadenceEvent(selectcore.CadenceLink)
	}
	if gone {
		n.cadenceEvent(selectcore.CadenceMembership)
	}
}

// moveEps is the minimum ring distance an Algorithm-2 move must cover to
// be worth announcing.
const moveEps = 0.002

// reassign is Algorithm 2 live: move the identifier to the ring
// midpoint of the two strongest friends — strengths learned from
// exchange replies, never read from the graph; a position of this
// node's own next to the midpoint, so that peers with the same two
// strongest friends do not end up on one (selectcore.ReassignTarget) —
// when the move covers more than moveEps, and announce the new
// identifier to links and member friends.
func (n *Node) reassign() {
	friends := n.g.Neighbors(n.id)
	if len(friends) < 2 {
		return
	}
	// Mask out friends whose strength is unknown or who are not in the
	// ring: anchoring on them would place us next to nobody.
	row := append(n.row[:0], n.strength...)
	n.row = row
	for i, f := range friends {
		if !n.dir.isMember(f) {
			row[i] = -1
		}
	}
	best, second := selectcore.Top2(friends, row)
	if best < 0 || second < 0 {
		return
	}
	target := selectcore.ReassignTarget(n.dir.position(best), n.dir.position(second), uint64(n.id))
	if ring.Distance(n.dir.position(n.id), target) <= moveEps {
		return
	}
	n.dir.setPosition(n.id, target)
	n.cfg.Obs.Inc(obs.CIDReassign)
	n.cfg.Obs.TraceEvent("reassign", int32(n.id), 0)
	n.rview.rebase(target)
	n.refreshHeads()
	n.cadenceEvent(selectcore.CadenceRing)
	dests := n.appendLinks(n.announce[:0])
	for _, f := range friends {
		if n.dir.isMember(f) {
			dests = append(dests, f)
		}
	}
	n.announce = dests
	n.announceID(dests, n.nextSeq(), target)
}

func (n *Node) inLongOut(q overlay.PeerID) bool {
	for _, x := range n.longOut {
		if x == q {
			return true
		}
	}
	return false
}

func (n *Node) inLongIn(q overlay.PeerID) bool {
	for _, x := range n.longIn {
		if x == q {
			return true
		}
	}
	return false
}

// removeLongOut and removeLongIn unlink q and report whether there was a
// link to remove.
func (n *Node) removeLongOut(q overlay.PeerID) bool {
	for i, x := range n.longOut {
		if x == q {
			n.longOut = append(n.longOut[:i], n.longOut[i+1:]...)
			return true
		}
	}
	return false
}

func (n *Node) removeLongIn(q overlay.PeerID) bool {
	for i, x := range n.longIn {
		if x == q {
			n.longIn = append(n.longIn[:i], n.longIn[i+1:]...)
			return true
		}
	}
	return false
}

// refusal is what a node remembers about a target whose incoming cap
// turned its proposal down: no new proposal before maintain tick until,
// and how often in a row it has been refused (the next wait doubles).
type refusal struct {
	until  uint32
	streak uint8
}

// liftRefusal ends u's current wait without forgetting its streak:
// u's bitmap changed, which is worth one proposal now, but if that one
// is refused too the target is as full as it was and the back-off
// resumes where it stood instead of climbing from 2 again — while links
// are still settling bitmaps change every few ticks, and a restart each
// time would be seven futile proposals per change instead of one.
func (n *Node) liftRefusal(u overlay.PeerID) {
	if r, ok := n.refused[u]; ok {
		r.until = n.mtick
		n.refused[u] = r
	}
}

// Refused targets are left alone for 2 maintain periods, doubling per
// consecutive refusal up to 2<<refusalMaxShift = 128.
const refusalMaxShift = 6

// isRefused reports whether u turned a proposal down recently enough
// that asking again would only buy another LinkDrop.
func (n *Node) isRefused(u overlay.PeerID) bool {
	r, ok := n.refused[u]
	return ok && n.mtick < r.until
}

// noteRefusal backs u off after it refused a proposal. The memory
// is cleared by an accept from u, by u leaving the ring, and with the
// rest of the volatile state; u's bitmap changing lifts the wait
// (liftRefusal).
func (n *Node) noteRefusal(u overlay.PeerID) {
	r := n.refused[u]
	r.until = n.mtick + 2<<r.streak
	if r.streak < refusalMaxShift {
		r.streak++
	}
	n.refused[u] = r
	n.cfg.Obs.Inc(obs.CLinkProposalRefused)
}

// bitmapHas reports whether bit i is set in bm.
func bitmapHas(bm []uint64, i int) bool {
	return i/64 < len(bm) && bm[i/64]&(1<<(i%64)) != 0
}

// covered reports whether friend index i is reachable in one
// forward through an existing long link (the link's learned bitmap has
// the friend's bit).
func (n *Node) covered(i int) bool {
	for _, l := range n.longOut {
		if bitmapHas(n.bitmaps[l], i) {
			return true
		}
	}
	return false
}

// relink is Algorithms 5–6 live: index member friends' learned
// link bitmaps into the K LSH buckets, keep or propose one picker-chosen
// representative per bucket, drop covered same-bucket links, enforce the
// K budget, and spend leftover budget on uncovered friends weakest-tie
// first — structurally the simulator's createLinks, with LinkProposal/
// LinkAccept/LinkDrop messages in place of direct establishment. A
// target that refused a proposal is skipped while its back-off lasts
// (DESIGN.md §8.2): the bucket's best non-refused member is asked
// instead, so a full target costs one proposal per back-off window, not
// one per tick.
func (n *Node) relink() {
	friends := n.g.Neighbors(n.id)
	if len(friends) == 0 {
		return
	}
	n.idx.Begin(n.hasher, len(friends))
	indexed := false
	now := time.Now()
	for i, f := range friends {
		bm, ok := n.bitmaps[f]
		if !ok || !n.dir.isMember(f) || n.quarantined(f, now) {
			continue
		}
		coords := append(n.coords[:0], i) // self bit
		for j := range friends {
			if j != i && bitmapHas(bm, j) {
				coords = append(coords, j)
			}
		}
		n.idx.Add(int32(i), coords)
		n.coords = coords[:0]
		indexed = true
	}
	if !indexed {
		return
	}
	// send is one link-control frame to u.
	send := func(kind wire.Kind, u overlay.PeerID) {
		n.send(int32(u), &wire.Message{Kind: kind, From: int32(n.id), To: int32(u), Seq: n.nextSeq()})
	}
	budget := n.cfg.K - len(n.longOut) - len(n.pendingOut)
	bwOf := func(i int32) float64 { return n.bw[friends[i]] }
	for _, bucket := range n.idx.Buckets {
		if len(bucket) == 0 {
			continue
		}
		// Hysteresis: when the bucket already holds linked peers, keep the
		// picker-best among them instead of re-picking from scratch (the
		// §III-F "no chain of reassignments" rationale).
		linked := n.linked[:0]
		for _, i := range bucket {
			if n.inLongOut(friends[i]) {
				linked = append(linked, i)
			}
		}
		n.linked = linked
		var keep overlay.PeerID = -1
		switch len(linked) {
		case 0:
			if budget <= 0 {
				continue
			}
			askable := n.askScratch[:0]
			for _, i := range bucket {
				if !n.isRefused(friends[i]) {
					askable = append(askable, i)
				}
			}
			n.askScratch = askable
			if len(askable) == 0 {
				continue
			}
			u := friends[selectcore.Pick(askable, n.idx.Conn, bwOf, false)]
			if u == n.id || n.pendingOut[u] {
				continue
			}
			n.pendingOut[u] = true
			budget--
			send(wire.KindLinkProposal, u)
		case 1:
			keep = friends[linked[0]]
		default:
			keep = friends[selectcore.Pick(linked, n.idx.Conn, bwOf, false)]
		}
		if keep < 0 {
			continue
		}
		// Drop redundant same-bucket links the representative covers.
		keepBM := n.bitmaps[keep]
		for _, i := range bucket {
			v := friends[i]
			if v != keep && n.inLongOut(v) && bitmapHas(keepBM, int(i)) {
				n.removeLongOut(v)
				n.cadenceEvent(selectcore.CadenceLink)
				n.cfg.Obs.Inc(obs.CLinkDrop)
				send(wire.KindLinkDrop, v)
			}
		}
	}
	// Enforce the K budget: shed the weakest ties.
	for len(n.longOut) > n.cfg.K {
		victim, vi := overlay.PeerID(-1), -1.0
		for _, q := range n.longOut {
			s := 0.0
			if i, ok := n.fidx[q]; ok {
				s = n.strength[i]
			}
			if victim < 0 || s < vi {
				victim, vi = q, s
			}
		}
		n.removeLongOut(victim)
		n.cadenceEvent(selectcore.CadenceLink)
		n.cfg.Obs.Inc(obs.CLinkDrop)
		send(wire.KindLinkDrop, victim)
	}
	// Spend remaining budget on friends no current link reaches in one
	// forward, weakest ties first (strong ties stay reachable through the
	// ring; weak cross-community ties have no alternative path).
	if budget > 0 {
		uncovered := n.uncovered[:0]
		for i, f := range friends {
			if _, ok := n.bitmaps[f]; !ok || !n.dir.isMember(f) {
				continue
			}
			if !n.inLongOut(f) && !n.pendingOut[f] && !n.isRefused(f) && !n.covered(i) {
				uncovered = append(uncovered, int32(i))
			}
		}
		n.uncovered = uncovered
		slices.SortFunc(uncovered, func(a, b int32) int {
			return cmp.Or(cmp.Compare(n.strength[a], n.strength[b]), cmp.Compare(a, b))
		})
		for _, i := range uncovered {
			if budget <= 0 {
				break
			}
			u := friends[i]
			n.pendingOut[u] = true
			budget--
			send(wire.KindLinkProposal, u)
		}
	}
}

// handleLinkProposal enforces the K-incoming cap of §III-D: accept while
// below the cap, evict the worst-bandwidth incoming link for a
// better-bandwidth proposer (telling the victim), reject otherwise.
func (n *Node) handleLinkProposal(m *wire.Message) {
	n.cfg.Obs.Inc(obs.CLinkProposal)
	from := overlay.PeerID(m.From)
	answer := func(kind wire.Kind) {
		n.send(m.From, &wire.Message{Kind: kind, From: int32(n.id), To: m.From, Seq: m.Seq})
	}
	switch {
	case n.inLongIn(from):
		// Duplicate proposal (retry or crossed wires): re-accept.
		n.cfg.Obs.Inc(obs.CLinkAccept)
		answer(wire.KindLinkAccept)
	case len(n.longIn) < n.cfg.K:
		n.longIn = append(n.longIn, from)
		n.cadenceEvent(selectcore.CadenceLink)
		n.cfg.Obs.Inc(obs.CLinkAccept)
		answer(wire.KindLinkAccept)
	default:
		worst := overlay.PeerID(-1)
		for _, q := range n.longIn {
			if worst < 0 || n.bw[q] < n.bw[worst] {
				worst = q
			}
		}
		if worst >= 0 && n.bw[from] > n.bw[worst] {
			n.removeLongIn(worst)
			n.cadenceEvent(selectcore.CadenceLink)
			n.cfg.Obs.Inc(obs.CLinkEvict)
			n.cfg.Obs.Inc(obs.CLinkDrop)
			n.send(int32(worst), &wire.Message{
				Kind: wire.KindLinkDrop, From: int32(n.id), To: int32(worst), Seq: n.nextSeq(),
			})
			n.longIn = append(n.longIn, from)
			n.cfg.Obs.Inc(obs.CLinkAccept)
			answer(wire.KindLinkAccept)
		} else {
			n.cfg.Obs.Inc(obs.CLinkDrop)
			answer(wire.KindLinkDrop)
		}
	}
}

// handleLinkAccept completes an establishment this node proposed. When a
// dead-link eviction is awaiting its replacement, the accept closes the
// repair and feeds the time-to-repair histogram (suspicion → new link).
func (n *Node) handleLinkAccept(m *wire.Message) {
	from := overlay.PeerID(m.From)
	delete(n.pendingOut, from)
	delete(n.refused, from)
	if n.inLongOut(from) {
		return
	}
	if len(n.longOut) >= n.cfg.K {
		// The budget filled while the proposal was in flight.
		n.cfg.Obs.Inc(obs.CLinkDrop)
		n.send(m.From, &wire.Message{
			Kind: wire.KindLinkDrop, From: int32(n.id), To: m.From, Seq: n.nextSeq(),
		})
		return
	}
	n.longOut = append(n.longOut, from)
	n.cadenceEvent(selectcore.CadenceLink)
	if len(n.linkRepairStart) > 0 {
		since := n.linkRepairStart[0]
		n.linkRepairStart = n.linkRepairStart[1:]
		n.cfg.Obs.ObserveRepairLinkMS(float64(time.Since(since).Milliseconds()))
	}
}

// handleLinkDrop tears the link to the sender down in both directions —
// long links are connections, so a drop by either endpoint closes both
// roles at once (eviction and shedding arrive here). A drop that answers
// a pending proposal with no link behind it is a refusal — the sender's
// incoming cap is full — and is remembered rather than repeated.
func (n *Node) handleLinkDrop(m *wire.Message) {
	n.cfg.Obs.Inc(obs.CLinkDrop)
	from := overlay.PeerID(m.From)
	out, in := n.removeLongOut(from), n.removeLongIn(from)
	switch {
	case out || in:
		n.cadenceEvent(selectcore.CadenceLink)
	case n.pendingOut[from]:
		n.noteRefusal(from)
	}
	delete(n.pendingOut, from)
}

// handleLeave unlinks a gracefully departing peer immediately, without
// waiting for its CMA to decay.
func (n *Node) handleLeave(m *wire.Message) {
	n.cfg.Obs.Inc(obs.CLeave)
	from := overlay.PeerID(m.From)
	if out, in := n.removeLongOut(from), n.removeLongIn(from); out || in {
		n.cadenceEvent(selectcore.CadenceLink)
	}
	delete(n.pendingOut, from)
	delete(n.lookahead, from)
	delete(n.cma, from)
	delete(n.miss, from)
	delete(n.suspectAt, from)
	wasRing := n.shortSucc == from || n.shortPred == from
	n.rview.remove(from)
	if wasRing {
		// Graceful splice: the next successor-list entry takes over.
		n.refreshHeads()
		n.cfg.Obs.Inc(obs.CRingSplice)
	}
	n.cadenceEvent(selectcore.CadenceMembership)
}

// Leave departs the ring gracefully: every link gets a Leave message so
// it can unlink at once, then the node's routing state is cleared. The
// node keeps running and can rejoin through the join protocol.
func (n *Node) Leave() { n.do(n.leave) }

func (n *Node) leave() {
	n.dir.setMember(n.id, false)
	links := n.links()
	seq := n.nextSeq()
	n.resetVolatile()
	for _, q := range links {
		n.send(int32(q), &wire.Message{
			Kind: wire.KindLeave, From: int32(n.id), To: int32(q), Seq: seq,
		})
	}
}

// resetVolatile clears everything a process restart would lose:
// ring membership, links, learned strengths/bitmaps, lookahead and
// availability history. The delivered feed (received, acked) survives as
// persistent storage; seq keeps rising so publication ids never repeat.
func (n *Node) resetVolatile() {
	n.joined = false
	n.wantJoin = false
	n.inviterPref = -1
	n.shortSucc, n.shortPred = -1, -1
	// The maps and lists are cleared in place, not made anew, so that a
	// crash or a leave does not re-grow them: nothing outside the node
	// holds one.
	n.longOut = n.longOut[:0]
	n.longIn = n.longIn[:0]
	clear(n.pendingOut)
	clear(n.refused)
	for i := range n.strength {
		n.strength[i] = -1
	}
	clear(n.bitmaps)
	clear(n.lookahead)
	clear(n.cma)
	clear(n.miss)
	clear(n.suspectAt)
	clear(n.deadUntil)
	n.linkRepairStart = n.linkRepairStart[:0]
	clear(n.pendingPings)
	// Buffered-but-unflushed ack batches, piggybacked-liveness stamps and
	// the peers' pings die with the process, like any unsent frame.
	n.ackBuckets = n.ackBuckets[:0]
	n.ackFlushAt = time.Time{}
	clear(n.lastHeard)
	clear(n.probes)
	// A rejoiner starts at the base cadence with no calm history.
	n.hbFold = false
	n.hbSwept = time.Time{}
	n.resetTimer(&n.hb)
	n.resetTimer(&n.gs)
	// The ring view and join machinery are volatile; a fresh joinedCh
	// lets the next Join wait on this incarnation. The repair outbox
	// (pubs) survives alongside received/acked — it is the same
	// persistent feed, seen from the publisher's side — so a crashed
	// publisher resumes re-sending its unacked publications after it
	// re-joins (§III-F: the publisher repairs when it comes back).
	n.rview.succ, n.rview.pred = n.rview.succ[:0], n.rview.pred[:0]
	n.joinNext = time.Time{}
	n.joinAttempt = 0
	n.joinedCh = make(chan struct{})
	// Durable-tier runtime state is volatile — the claim cycle dies with
	// the process and restarts at the next completed join; the replica
	// drains restart from the journal-backed store, which is the
	// persistent half. claimEpoch survives so each incarnation's lease
	// order differs.
	n.claim, n.claimHave = nil, nil
	n.replay.parkAll()
	// The rendezvous-side topic registry is soft state rebuilt from lease
	// refreshes, and so are the rows that transfer it; subscriptions
	// themselves are app intent and survive, but their refresh bookkeeping
	// resets so the first maintain tick after a rejoin re-registers them at
	// the (possibly re-homed) rendezvous, retiring the open row. The
	// hand-off and replica rows, and the origin index, survive: they resume
	// after the rejoin.
	for seq, st := range n.pubs.rows {
		if st.class == rowTransfer {
			n.retire(seq, st)
		}
	}
	clear(n.topicReg)
	clear(n.unsubbed)
	for _, ts := range n.subTopics {
		ts.set = nil
		ts.lastSub = time.Time{}
	}
}
