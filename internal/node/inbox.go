package node

import (
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
	"selectps/internal/wire"
)

// This file is the durable delivery tier (DESIGN.md §12): the protocol
// glue between the repair engine, the selectcore placement/lease rules,
// and the per-shard inbox journals (internal/inbox).
//
//   - publisher role: when repair would dead-letter a publication for an
//     offline subscriber, the copy is deposited on the subscriber's
//     replica set instead (InboxDeposit, retried on the repair wheel
//     until one replica acks persistence);
//   - replica role: deposits are journaled per shard and replayed to the
//     subscriber highest-priority-first, either immediately (the target
//     is reachable) or when the subscriber claims its inbox;
//   - subscriber role: on every completed (re)join the node claims its
//     replicas one at a time in seeded-deterministic lease order; a
//     replica that makes no progress within the lease hands off to the
//     next. Replayed duplicates are absorbed by the dedup window, so the
//     sequential lease plus dedup yields at-least-once with no double
//     app delivery.

// maxReplayAttempts bounds how often a replica re-sends one unacked
// replay before parking the queue; a later claim re-activates it.
const maxReplayAttempts = 8

// depSub is the publisher-side deposit state for one offline subscriber
// of one publication: retried alongside direct repair until any replica
// acks persistence, then the subscriber counts as durably handled.
type depSub struct {
	attempt int
	nextAt  time.Time
	acked   bool
}

// replayState is the replica-side drain machinery for one subscriber:
// at most one replay copy is outstanding at a time (the lease contract
// is sequential), resent on the inbox wheel entry until acked.
type replayState struct {
	leaseSeq    uint32 // claim-cycle correlation; 0 = self-initiated replay
	outstanding inbox.Record
	hasOut      bool
	attempt     int
	nextAt      time.Time
}

// claimState is the subscriber-side lease cycle: the seeded-deterministic
// order in which this node's replicas are asked to drain, the current
// holder index, and the lease deadline that forces hand-off.
type claimState struct {
	order    []overlay.PeerID
	idx      int
	seq      uint32 // correlates InboxLease replies to this cycle
	deadline time.Time
	got      int     // replays received this cycle; >0 triggers another pass
	prevPos  ring.ID // previous incarnation's position; claims cover both
}

// inboxOn reports whether this node participates in the durable tier.
// Like repair, it needs the retry scheduler (RetryBase > 0).
func (n *Node) inboxOn() bool {
	return n.cfg.Inbox && n.sh != nil && n.sh.ibx != nil && n.repairEnabled()
}

// kickInbox re-arms the shard wheel's inbox entry after a deadline
// changed.
func (n *Node) kickInbox() {
	if n.sh != nil {
		n.sh.scheduleInbox(n)
	}
}

// nextInboxAt returns the earliest pending lease/replay deadline, or
// false when the tier is idle for this node. A paused node dozes at
// ≥50ms like the repair entry.
func (n *Node) nextInboxAt() (time.Time, bool) {
	var earliest time.Time
	upd := func(t time.Time) {
		if !t.IsZero() && (earliest.IsZero() || t.Before(earliest)) {
			earliest = t
		}
	}
	if n.claim != nil {
		upd(n.claim.deadline)
	}
	for _, rs := range n.replay {
		if rs.hasOut {
			upd(rs.nextAt)
		}
	}
	if earliest.IsZero() {
		return time.Time{}, false
	}
	if n.paused.Load() {
		if floor := time.Now().Add(50 * time.Millisecond); earliest.Before(floor) {
			earliest = floor
		}
	}
	return earliest, true
}

// inboxTick is the inbox wheel body: subscriber-side lease expiry
// hand-off and replica-side replay re-sends.
func (n *Node) inboxTick() {
	if n.paused.Load() || !n.inboxOn() {
		return
	}
	now := time.Now()
	if cl := n.claim; cl != nil && !cl.deadline.After(now) {
		// The lease holder made no progress within the lease: hand the
		// claim to the next replica in the deterministic order.
		n.cfg.Obs.Inc(obs.CInboxLeaseExpire)
		n.cfg.Obs.TraceEvent("inbox_lease_expire", int32(n.id), uint32(cl.order[cl.idx]))
		n.advanceClaim(now)
	}
	for target, rs := range n.replay {
		if !rs.hasOut || rs.nextAt.After(now) {
			continue
		}
		if rs.attempt >= maxReplayAttempts {
			// No ack after the full resend schedule: the subscriber went
			// away again. Park the queue; the journal keeps the records
			// and the next claim re-activates the drain.
			delete(n.replay, target)
			continue
		}
		rs.attempt++
		rs.nextAt = now.Add(n.inboxRetryDelay(rs.attempt))
		n.cfg.Obs.Inc(obs.CInboxReplay)
		_ = n.tr.Send(int32(target), n.replayMsg(target, &rs.outstanding))
	}
}

// inboxRetryDelay is the replay re-send backoff: plain capped doubling —
// replay is point-to-point, so the jittered spread the repair engine
// needs against herds buys nothing here.
func (n *Node) inboxRetryDelay(attempt int) time.Duration {
	d := n.cfg.InboxRetry
	for i := 0; i < attempt && i < 3; i++ {
		d *= 2
	}
	return d
}

// inboxReplicaSet computes peer p's replica set from the converged ring
// positions: the first r live clockwise successors (selectcore rule).
func (n *Node) inboxReplicaSet(p overlay.PeerID, r int) []overlay.PeerID {
	return selectcore.InboxReplicas(p, n.dir.position(p), n.dir.ringMembers(), nil, r)
}

// InboxReplicas returns this node's current inbox replica set — where
// its offline copies would be deposited right now (ops/tests surface).
func (n *Node) InboxReplicas() []overlay.PeerID {
	return n.inboxReplicaSet(n.id, n.cfg.InboxReplicas)
}

// ---- publisher role: repair → deposit hand-off ----------------------

// startDeposit hands subscriber s of publication seq to the durable tier:
// the first deposit round goes out now, retries ride the repair wheel.
func (n *Node) startDeposit(seq uint32, st *pubState, s overlay.PeerID, now time.Time) {
	if st.dep == nil {
		st.dep = make(map[overlay.PeerID]*depSub)
	}
	ds := &depSub{}
	st.dep[s] = ds
	n.cfg.Obs.Inc(obs.CInboxDeposited)
	n.cfg.Obs.TraceEvent("inbox_handoff", int32(n.id), uint32(s))
	n.sendDeposit(seq, st, s, ds, now)
}

// sendDeposit sends one deposit round for subscriber s: a copy to every
// replica in s's current set (recomputed per round — membership may have
// shifted since the last one). The publisher needs only one ack; R copies
// are fault tolerance for the replicas themselves.
func (n *Node) sendDeposit(seq uint32, st *pubState, s overlay.PeerID, ds *depSub, now time.Time) {
	ds.nextAt = now.Add(n.backoff().Delay(st.bseed^uint64(uint32(s)), ds.attempt))
	// Deposits carry the publication's origin identity: for a topic
	// hand-off the depositing rendezvous is not the origin publisher, and
	// replay dedup must key by the origin id.
	pub, pseq := int32(n.id), seq
	var topic []byte
	if st.topic != "" {
		pub, pseq = st.origin.Publisher, st.origin.Seq
		topic = []byte(st.topic)
	}
	for _, rep := range n.inboxReplicaSet(s, n.cfg.InboxReplicas) {
		_ = n.tr.Send(int32(rep), &wire.Message{
			Kind: wire.KindInboxDeposit, From: int32(n.id), To: int32(rep),
			Seq: pseq, Publisher: pub, Target: int32(s),
			Priority: st.pri, PayloadSize: st.size, Payload: st.payload,
			Topic: topic,
		})
	}
}

// settled reports whether subscriber s of publication st needs no
// further work: directly acked, or durably deposited.
func settled(acked map[int32]bool, st *pubState, s overlay.PeerID) bool {
	if acked[int32(s)] {
		return true
	}
	ds := st.dep[s]
	return ds != nil && ds.acked
}

// ---- replica role: persist + replay ---------------------------------

// handleInboxDeposit persists one deposited copy in the shard journal
// and acks. A reachable target gets its replay started right away — the
// durable tier doubles as a relay of last resort when the subscriber is
// up but the publisher cannot reach it.
func (n *Node) handleInboxDeposit(m *wire.Message) {
	if !n.inboxOn() {
		return
	}
	target := overlay.PeerID(m.Target)
	ack := wire.AckEntry{
		Kind: wire.KindInboxDepositAck, From: int32(n.id), Dest: m.From,
		Pub: m.Publisher, Seq: m.Seq, Target: m.Target,
	}
	if len(m.Topic) > 0 && n.unsubLate(string(m.Topic), target, time.Now()) {
		// The target left the topic after this copy set out: it is owed
		// nothing. The ack settles the depositor, whose rounds would
		// otherwise outlast the memory of the unsubscribe.
		n.directAck(ack)
		return
	}
	fresh, err := n.sh.ibx.Deposit(inbox.Record{
		Replica: int32(n.id), Target: m.Target, Publisher: m.Publisher,
		Seq: m.Seq, Priority: m.Priority, PayloadSize: m.PayloadSize, Payload: m.Payload,
		Topic: m.Topic,
	})
	if err != nil {
		// Journal failure: no ack, the publisher keeps retrying (possibly
		// onto healthier replicas).
		n.cfg.Obs.TraceEvent("inbox_journal_err", int32(n.id), m.Seq)
		return
	}
	if !fresh {
		n.cfg.Obs.Inc(obs.CInboxDepositDup)
	}
	n.directAck(ack)
	if n.dir.isMember(target) {
		n.activateReplay(target, 0)
		n.pumpReplay(target, time.Now())
	}
	n.kickInbox()
}

// handleInboxClaim answers a subscriber's drain request: report how many
// deposits this replica holds and start replaying if any.
func (n *Node) handleInboxClaim(m *wire.Message) {
	if !n.inboxOn() {
		return
	}
	n.cfg.Obs.Inc(obs.CInboxClaim)
	target := overlay.PeerID(m.From)
	pending := n.sh.ibx.PendingFor(int32(n.id), int32(target))
	_ = n.tr.Send(m.From, &wire.Message{
		Kind: wire.KindInboxLease, From: int32(n.id), To: m.From,
		Seq: m.Seq, Target: m.From, NMutual: int32(pending),
	})
	if pending > 0 {
		n.cfg.Obs.Inc(obs.CInboxLeaseGrant)
		n.activateReplay(target, m.Seq)
		n.pumpReplay(target, time.Now())
	}
	n.kickInbox()
}

// activateReplay opens (or re-tags) the drain state for target.
func (n *Node) activateReplay(target overlay.PeerID, leaseSeq uint32) {
	if n.replay == nil {
		n.replay = make(map[overlay.PeerID]*replayState)
	}
	rs := n.replay[target]
	if rs == nil {
		rs = &replayState{}
		n.replay[target] = rs
	}
	if leaseSeq != 0 {
		rs.leaseSeq = leaseSeq
	}
	// A fresh claim restarts a parked resend schedule.
	rs.attempt = 0
}

// pumpReplay sends the next pending record for target if nothing is
// outstanding, and reports whether it sent anything. A drained queue under
// an active lease emits the final "0 pending" lease notice that releases
// the subscriber to the next replica.
func (n *Node) pumpReplay(target overlay.PeerID, now time.Time) bool {
	rs := n.replay[target]
	if rs == nil || rs.hasOut {
		return false
	}
	rec, ok := n.sh.ibx.Next(int32(n.id), int32(target))
	if !ok {
		delete(n.replay, target)
		if rs.leaseSeq == 0 {
			return false
		}
		_ = n.tr.Send(int32(target), &wire.Message{
			Kind: wire.KindInboxLease, From: int32(n.id), To: int32(target),
			Seq: rs.leaseSeq, Target: int32(target), NMutual: 0,
		})
		return true
	}
	rs.outstanding = rec
	rs.hasOut = true
	rs.attempt = 0
	rs.nextAt = now.Add(n.cfg.InboxRetry)
	n.cfg.Obs.Inc(obs.CInboxReplay)
	_ = n.tr.Send(int32(target), n.replayMsg(target, &rec))
	return true
}

func (n *Node) replayMsg(target overlay.PeerID, rec *inbox.Record) *wire.Message {
	return &wire.Message{
		Kind: wire.KindInboxReplay, From: int32(n.id), To: int32(target),
		Seq: rec.Seq, Publisher: rec.Publisher, Target: int32(target),
		Priority: rec.Priority, PayloadSize: rec.PayloadSize, Payload: rec.Payload,
		Topic: rec.Topic, HopCount: 1,
	}
}

// handleInboxReplayAck clears the acked record from the journal and
// pumps the next one.
func (n *Node) handleInboxReplayAck(m *wire.Message) {
	if !n.inboxOn() {
		return
	}
	existed, err := n.sh.ibx.Ack(int32(n.id), m.Target, m.Publisher, m.Seq)
	if err != nil {
		n.cfg.Obs.TraceEvent("inbox_journal_err", int32(n.id), m.Seq)
	}
	if existed {
		n.cfg.Obs.Inc(obs.CInboxReplayed)
	}
	target := overlay.PeerID(m.Target)
	if rs := n.replay[target]; rs != nil && rs.hasOut &&
		rs.outstanding.Publisher == m.Publisher && rs.outstanding.Seq == m.Seq {
		rs.hasOut = false
		n.pumpReplay(target, time.Now())
	}
	n.kickInbox()
}

// inboxSweep is the replica-side safety net, run on the maintain tick:
// any target this replica holds deposits for that is currently a member
// but has no active drain gets its replay (re)started. It catches the
// cases the claim protocol cannot — a claim that never reached this
// replica (membership drifted further than the 2R candidate window), a
// drain parked by maxReplayAttempts while the target flapped, or a
// replica that was itself offline when the subscriber claimed.
func (n *Node) inboxSweep() {
	if !n.inboxOn() {
		return
	}
	now := time.Now()
	sent := false
	for _, t := range n.sh.ibx.PendingTargets(int32(n.id)) {
		target := overlay.PeerID(t)
		if n.replay[target] != nil || !n.dir.isMember(target) {
			continue
		}
		n.activateReplay(target, 0)
		if n.pumpReplay(target, now) {
			sent = true
		}
	}
	if sent {
		n.kickInbox()
	}
}

// ---- subscriber role: claim cycle -----------------------------------

// startInboxClaim opens a claim cycle after a completed (re)join.
// Candidates are the first 2R live successors of the node's CURRENT
// position unioned with the first 2R of prevPos, its position in the
// previous incarnation: the join protocol assigns a fresh identifier on
// every (re)join, but every deposit made while the node was offline
// landed clockwise of the old one — that is where the directory said the
// subscriber lived. 2R-wide (not R) because membership may also have
// drifted between deposit time and claim time, pushing a holder out of
// the first R. It sends the first claim and reports whether it did (not
// when the tier is off or the ring is empty).
func (n *Node) startInboxClaim(now time.Time, prevPos ring.ID) bool {
	if !n.inboxOn() {
		return false
	}
	members := n.dir.ringMembers()
	cands := selectcore.InboxReplicas(n.id, n.dir.position(n.id), members, nil, 2*n.cfg.InboxReplicas)
	if prevPos != n.dir.position(n.id) {
		seen := make(map[overlay.PeerID]bool, len(cands))
		for _, p := range cands {
			seen[p] = true
		}
		for _, p := range selectcore.InboxReplicas(n.id, prevPos, members, nil, 2*n.cfg.InboxReplicas) {
			if !seen[p] {
				cands = append(cands, p)
			}
		}
	}
	if len(cands) == 0 {
		n.claim = nil
		return false
	}
	n.claimEpoch++
	cl := &claimState{
		order:    selectcore.LeaseOrder(n.id, n.claimEpoch, cands),
		seq:      n.nextSeq(),
		deadline: now.Add(n.cfg.InboxLease),
		prevPos:  prevPos,
	}
	n.claim = cl
	n.sendClaim(cl)
	return true
}

// sendClaim asks the replica whose turn it is to drain.
func (n *Node) sendClaim(cl *claimState) {
	to := int32(cl.order[cl.idx])
	_ = n.tr.Send(to, &wire.Message{
		Kind: wire.KindInboxClaim, From: int32(n.id), To: to,
		Seq: cl.seq, Target: int32(n.id),
	})
}

// advanceClaim moves the lease to the next replica; after a full pass it
// either closes the cycle (nothing replayed — every replica is drained or
// empty) or starts another pass, because deposits that arrived mid-drain
// may sit on replicas already visited.
func (n *Node) advanceClaim(now time.Time) {
	cl := n.claim
	if cl == nil {
		return
	}
	cl.idx++
	if cl.idx >= len(cl.order) {
		if cl.got == 0 {
			n.claim = nil
			n.cfg.Obs.TraceEvent("inbox_claim_done", int32(n.id), cl.seq)
			return
		}
		n.startInboxClaim(now, cl.prevPos)
		return
	}
	cl.deadline = now.Add(n.cfg.InboxLease)
	n.sendClaim(cl)
}

// handleInboxLease consumes a replica's claim answer on the subscriber:
// a positive pending count extends the lease while the replica drains; a
// zero count (empty inbox, or the final drained notice) advances the
// cycle immediately.
func (n *Node) handleInboxLease(m *wire.Message) {
	if !n.inboxOn() {
		return
	}
	now := time.Now()
	cl := n.claim
	if cl == nil || m.Seq != cl.seq || cl.idx >= len(cl.order) || overlay.PeerID(m.From) != cl.order[cl.idx] {
		return // stale cycle or a replica that no longer holds the lease
	}
	if m.NMutual > 0 {
		cl.deadline = now.Add(n.cfg.InboxLease)
	} else {
		n.advanceClaim(now)
	}
	n.kickInbox()
}

// handleInboxReplay delivers a replayed publication on the subscriber:
// first-time copies go through the normal delivery path (dedup window,
// OnDeliver, hop histogram), duplicates are absorbed — and every copy is
// acked so whichever replica sent it can clear its journal record.
func (n *Node) handleInboxReplay(m *wire.Message) {
	if overlay.PeerID(m.To) != n.id || overlay.PeerID(m.Target) != n.id {
		return
	}
	id := msgID{m.Publisher, m.Seq}
	topic := string(m.Topic)
	if topic == "" {
		topic = UserTopic(overlay.PeerID(m.Publisher))
	}
	if cl := n.claim; cl != nil && cl.idx < len(cl.order) && overlay.PeerID(m.From) == cl.order[cl.idx] {
		// Progress from the lease holder keeps its lease alive.
		cl.deadline = time.Now().Add(n.cfg.InboxLease)
		cl.got++
	}
	switch {
	case len(m.Topic) > 0 && n.subTopics[topic] == nil:
		// This node left the topic after the copy was journaled — a replay
		// under way when the unsubscribe purged the replica. Nothing is
		// delivered; the ack below still clears the record.
		n.cfg.Obs.Inc(obs.CTopicUnsubLate)
	case !n.rememberDelivery(id, m.HopCount):
		n.cfg.Obs.Inc(obs.CPublishDuplicate)
	default:
		if len(m.Topic) > 0 {
			n.cfg.Obs.Inc(obs.CTopicDelivered)
		} else {
			n.cfg.Obs.Inc(obs.CPublishDelivered)
		}
		n.cfg.Obs.ObserveHops(float64(m.HopCount))
		n.cfg.Obs.TraceEvent("deliver", int32(n.id), m.Seq)
		n.notify(n.subTopics[topic], Delivery{
			Publisher: overlay.PeerID(m.Publisher), Topic: topic,
			Seq: m.Seq, Hops: m.HopCount, Priority: m.Priority,
			Payload: m.Payload,
		})
	}
	_ = n.tr.Send(m.From, &wire.Message{
		Kind: wire.KindInboxReplayAck, From: int32(n.id), To: m.From,
		Seq: m.Seq, Publisher: m.Publisher, Target: int32(n.id),
	})
	n.kickInbox()
}
