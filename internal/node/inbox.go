package node

import (
	"slices"
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
//     replica set instead (InboxDeposit — one frame per replica, naming
//     every subscriber whose copy it takes — retried on the repair wheel
//     until one replica acks persistence);
//   - replica role: deposits are journaled per shard and replayed to the
//     subscriber highest-priority-first, a batch of records to a frame,
//     either immediately (the target is reachable) or when the
//     subscriber claims its inbox;
//   - subscriber role: on every completed (re)join the node claims its
//     replicas one at a time in seeded-deterministic lease order, telling
//     each what the ones before it already replayed; a replica that makes
//     no progress within the lease hands off to the next. Replayed
//     duplicates are absorbed by the dedup window, so the sequential
//     lease plus dedup yields at-least-once with no double app delivery.

const (
	// replayBatchMax is the most records one replay frame carries. It
	// stays under ackBatchMax, so the acks of one replay frame fit one ack
	// frame.
	replayBatchMax = 32
	// replayBatchBytes bounds the payload and topic bytes of one replay
	// frame — but a frame always carries one record, so a publication
	// larger than this (Fig. 7's 1.2 MB bodies) travels alone.
	replayBatchBytes = 32 << 10
	// claimDigestMax is the most publications a claim's have-digest names.
	// A subscriber that was replayed more than this says nothing about the
	// rest — they are replayed again and absorbed by the dedup window — and
	// a replica drops a claim that names more.
	claimDigestMax = 1024
)

// depSub is the publisher-side deposit state for one offline subscriber
// of one publication: retried alongside direct repair until any replica
// acks persistence, then the subscriber counts as durably handled.
type depSub struct {
	attempt int
	nextAt  time.Time
	acked   bool
}

// depGroup is the subscribers one deposit round names to one replica.
type depGroup struct {
	rep     overlay.PeerID
	targets []int32
}

// replayState is the replica-side drain machinery for one subscriber: at
// most one replay batch is outstanding at a time (the lease contract is
// sequential). out holds the records of it that are neither acked nor
// cleared yet; repairTick re-sends them on the engine's backoff and
// parks the drain after the engine's budget, and the next batch leaves
// when none is left.
type replayState struct {
	leaseSeq uint32 // claim-cycle correlation; 0 = self-initiated replay
	out      []inbox.Record
	attempt  int
	nextAt   time.Time
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

// drainSeed is the backoff stream of this replica's drain toward target:
// the node's seq-0 stream (no publication draws seq 0) split per target,
// the way a deposit round splits its publication's stream per subscriber.
func (n *Node) drainSeed(target overlay.PeerID) uint64 {
	return n.joinSeed() ^ uint64(uint32(target)+1)
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

// startDeposit hands subscriber s of publication seq to the durable tier.
// Its first deposit round leaves with the round repairTick sends for the
// publication at the end of this pass; retries ride the repair wheel.
func (n *Node) startDeposit(st *pubState, s overlay.PeerID) {
	if st.dep == nil {
		st.dep = make(map[overlay.PeerID]*depSub)
	}
	st.dep[s] = &depSub{}
	n.cfg.Obs.Inc(obs.CInboxDeposited)
	n.cfg.Obs.TraceEvent("inbox_handoff", int32(n.id), uint32(s))
}

// depositRound sends one deposit round of publication seq for subs, the
// handed-off subscribers whose round is due — a first round or a retry.
// Every subscriber's copy goes to every replica of its current set
// (recomputed per round — membership may have shifted since the last
// one), and the subscribers that share a replica share a frame: one
// KindInboxDeposit per (publication, replica), naming them in Target and
// RoutingTable the way a KindPublish frame names destinations. The
// publisher needs one ack per subscriber; R copies are fault tolerance
// for the replicas themselves.
func (n *Node) depositRound(seq uint32, st *pubState, subs []overlay.PeerID, now time.Time) {
	// Deposits carry the publication's origin identity: for a topic
	// hand-off the depositing rendezvous is not the origin publisher, and
	// replay dedup must key by the origin id.
	m := wire.Message{
		Kind: wire.KindInboxDeposit, From: int32(n.id), Seq: seq, Publisher: int32(n.id),
		Priority: st.pri, PayloadSize: st.size, Payload: st.payload,
	}
	if st.class == rowReplica {
		m.Publisher, m.Seq, m.Topic = st.origin.Publisher, st.origin.Seq, []byte(st.topic)
	}
	members := n.dir.ringMembers()
	groups := n.depGroups[:0]
	for _, s := range subs {
		ds := st.dep[s]
		ds.nextAt = now.Add(n.backoff().Delay(st.bseed^uint64(uint32(s)), ds.attempt))
		for _, rep := range selectcore.InboxReplicas(s, n.dir.position(s), members, nil, n.cfg.InboxReplicas) {
			i := slices.IndexFunc(groups, func(g depGroup) bool { return g.rep == rep })
			if i < 0 {
				// The next slot, with the storage an earlier round left in it.
				if i = len(groups); i == cap(groups) {
					groups = append(groups, depGroup{})
				}
				groups = groups[:i+1]
				groups[i].rep, groups[i].targets = rep, groups[i].targets[:0]
			}
			groups[i].targets = append(groups[i].targets, int32(s))
		}
	}
	for i := range groups {
		for rest := groups[i].targets; len(rest) > 0; {
			named := rest[:min(len(rest), wire.MaxPublishDests)]
			rest = rest[len(named):]
			m.To, m.Target, m.RoutingTable = int32(groups[i].rep), named[0], named[1:]
			n.send(m.To, &m)
		}
	}
	n.depGroups = groups
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

// handleInboxDeposit persists the deposited publication in the shard
// journal, one record per subscriber the frame names (Target, then
// RoutingTable), and acks each — one ack frame for them all. A reachable
// target gets its replay started right away — the durable tier doubles as
// a relay of last resort when the subscriber is up but the publisher
// cannot reach it. The list is outside input like a publish frame's: over
// the cap, or naming a peer this cluster does not have, the frame is
// dropped whole and counted.
func (n *Node) handleInboxDeposit(m *wire.Message) {
	if !n.inboxOn() {
		return
	}
	malformed := len(m.RoutingTable) >= wire.MaxPublishDests || !n.dir.valid(overlay.PeerID(m.Target))
	for _, t := range m.RoutingTable {
		malformed = malformed || !n.dir.valid(overlay.PeerID(t))
	}
	if malformed {
		n.cfg.Obs.Inc(obs.CPublishDestMalformed)
		return
	}
	now := time.Now()
	acks := n.depositFor(m, overlay.PeerID(m.Target), now, n.acks[:0])
	for _, t := range m.RoutingTable {
		acks = n.depositFor(m, overlay.PeerID(t), now, acks)
	}
	n.directAcks(overlay.PeerID(m.From), acks)
	n.kickRetry()
}

// depositFor journals the copy of deposit frame m that is target's and
// appends its ack to acks. A journal failure appends none: the publisher
// keeps retrying (possibly onto healthier replicas).
func (n *Node) depositFor(m *wire.Message, target overlay.PeerID, now time.Time, acks []wire.AckEntry) []wire.AckEntry {
	ack := wire.AckEntry{
		Kind: wire.KindInboxDepositAck, From: int32(n.id), Dest: m.From,
		Pub: m.Publisher, Seq: m.Seq, Target: int32(target),
	}
	if len(m.Topic) > 0 && n.unsubLate(string(m.Topic), target, now) {
		// The target left the topic after this copy set out: it is owed
		// nothing. The ack settles the depositor, whose rounds would
		// otherwise outlast the memory of the unsubscribe.
		return append(acks, ack)
	}
	fresh, err := n.sh.ibx.Deposit(inbox.Record{
		Replica: int32(n.id), Target: int32(target), Publisher: m.Publisher,
		Seq: m.Seq, Priority: m.Priority, PayloadSize: m.PayloadSize, Payload: m.Payload,
		Topic: m.Topic,
	})
	if err != nil {
		n.cfg.Obs.TraceEvent("inbox_journal_err", int32(n.id), m.Seq)
		return acks
	}
	if !fresh {
		n.cfg.Obs.Inc(obs.CInboxDepositDup)
	}
	if n.dir.isMember(target) {
		n.activateReplay(target, 0)
		n.pumpReplay(target, now)
	}
	return append(acks, ack)
}

// handleInboxClaim answers a subscriber's drain request: clear what the
// claim's have-digest says the subscriber already has, report how many
// deposits this replica still holds and start replaying if any. The
// digest clears records held for the frame's sender and nobody else, and
// only while that sender is a member — a subscriber claims after it
// joined, and the inbox of a peer that is away is exactly the one a
// forged claim must not empty. A claim naming more than claimDigestMax is
// dropped; the subscriber's lease on this replica lapses.
func (n *Node) handleInboxClaim(m *wire.Message) {
	target := overlay.PeerID(m.From)
	switch {
	case !n.inboxOn() || !n.dir.isMember(target):
		return
	case len(m.Acks) > claimDigestMax:
		n.cfg.Obs.Inc(obs.CInboxClaimOversize)
		return
	}
	n.cfg.Obs.Inc(obs.CInboxClaim)
	now := time.Now()
	var (
		ids     [ackBatchMax]inbox.ID
		cleared int
	)
	for have := m.Acks; len(have) > 0; {
		k := min(len(have), len(ids))
		for i, e := range have[:k] {
			ids[i] = inbox.ID{Publisher: e.Pub, Seq: e.Seq}
		}
		cleared += n.clearReplayed(target, ids[:k])
		have = have[k:]
	}
	n.cfg.Obs.Addn(obs.CInboxHaveCleared, int64(cleared))
	pending := n.sh.ibx.PendingFor(int32(n.id), int32(target))
	n.send(m.From, &wire.Message{
		Kind: wire.KindInboxLease, From: int32(n.id), To: m.From,
		Seq: m.Seq, Target: m.From, NMutual: int32(pending),
	})
	if pending > 0 {
		n.cfg.Obs.Inc(obs.CInboxLeaseGrant)
		n.activateReplay(target, m.Seq)
		n.pumpReplay(target, now)
	} else {
		delete(n.replay, target) // the digest cleared all a drain had left
	}
	n.kickRetry()
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

// pumpReplay sends the next batch of pending records for target if
// nothing is outstanding, and reports whether it sent anything. A drained
// queue under an active lease emits the final "0 pending" lease notice
// that releases the subscriber to the next replica.
func (n *Node) pumpReplay(target overlay.PeerID, now time.Time) bool {
	rs := n.replay[target]
	if rs == nil || len(rs.out) > 0 {
		return false
	}
	rs.out = n.sh.ibx.NextN(rs.out, int32(n.id), int32(target), replayBatchMax, replayBatchBytes)
	if len(rs.out) == 0 {
		delete(n.replay, target)
		if rs.leaseSeq == 0 {
			return false
		}
		n.send(int32(target), &wire.Message{
			Kind: wire.KindInboxLease, From: int32(n.id), To: int32(target),
			Seq: rs.leaseSeq, Target: int32(target), NMutual: 0,
		})
		return true
	}
	rs.attempt = 0
	rs.nextAt = now.Add(n.backoff().Delay(n.drainSeed(target), 0))
	if rs.leaseSeq == 0 {
		n.cfg.Obs.Addn(obs.CInboxReplaySelf, int64(len(rs.out)))
	}
	n.sendReplay(target, rs.out)
	return true
}

// replayMsg renders recs as one KindInboxReplay frame for target: the
// records in a container in the Payload slot (encoded into box), their
// number in NMutual, and the first record's identity in the fixed header,
// where a frame used to carry its only record.
func (n *Node) replayMsg(target overlay.PeerID, recs []inbox.Record, box []byte) wire.Message {
	record := func(r *inbox.Record) wire.ReplayRecord {
		return wire.ReplayRecord{
			Publisher: r.Publisher, Seq: r.Seq, Priority: r.Priority,
			PayloadSize: r.PayloadSize, Payload: r.Payload, Topic: r.Topic,
		}
	}
	// Sized first: a box that grows, grows once and to what it needs.
	size := 0
	for i := range recs {
		r := record(&recs[i])
		size += r.Size()
	}
	box = slices.Grow(box, size)
	for i := range recs {
		r := record(&recs[i])
		box = wire.AppendReplayRecord(box, &r)
	}
	return wire.Message{
		Kind: wire.KindInboxReplay, From: int32(n.id), To: int32(target),
		Seq: recs[0].Seq, Publisher: recs[0].Publisher, Priority: recs[0].Priority,
		Target: int32(target), NMutual: int32(len(recs)), Payload: box, HopCount: 1,
	}
}

// sendReplay sends recs — a drain's outstanding batch, or what is left of
// it — to target as one frame, its container built in a pooled buffer.
func (n *Node) sendReplay(target overlay.PeerID, recs []inbox.Record) {
	n.cfg.Obs.Addn(obs.CInboxReplay, int64(len(recs)))
	n.cfg.Obs.Inc(obs.CInboxReplayFrame)
	box := wire.GetFrame()
	m := n.replayMsg(target, recs, (*box)[:0])
	n.send(int32(target), &m)
	*box = m.Payload[:0]
	wire.PutFrame(box)
}

// clearReplayed journal-acks ids — publications target says it has, at
// most ackBatchMax of them so that callers can keep them on the stack —
// with one write, and takes them off the outstanding batch of target's
// drain.
// It returns how many records the journal dropped. The caller pumps: the
// next batch leaves when this one has nothing left. On a journal error
// nothing changes, and the resend timer tries the batch again.
func (n *Node) clearReplayed(target overlay.PeerID, ids []inbox.ID) int {
	cleared, err := n.sh.ibx.AckMany(int32(n.id), int32(target), ids)
	if err != nil {
		n.cfg.Obs.TraceEvent("inbox_journal_err", int32(n.id), uint32(target))
		return cleared
	}
	if rs := n.replay[target]; rs != nil {
		rs.out = slices.DeleteFunc(rs.out, func(r inbox.Record) bool {
			return slices.Contains(ids, inbox.ID{Publisher: r.Publisher, Seq: r.Seq})
		})
	}
	return cleared
}

// inboxSweep is the replica-side safety net, run on the maintain tick:
// any target this replica holds deposits for that is currently a member
// but has no active drain gets its replay (re)started. It catches the
// cases the claim protocol cannot — a claim that never reached this
// replica (membership drifted further than the 2R candidate window), a
// drain parked at the retry budget or while the target flapped, or a
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
		n.kickRetry()
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
		for _, p := range selectcore.InboxReplicas(n.id, prevPos, members, nil, 2*n.cfg.InboxReplicas) {
			if !slices.Contains(cands, p) {
				cands = append(cands, p)
			}
		}
	}
	if len(cands) == 0 {
		n.claim, n.claimHave = nil, nil
		return false
	}
	n.claimEpoch++
	cl := &claimState{
		order:    selectcore.LeaseOrder(n.id, n.claimEpoch, cands),
		seq:      n.nextSeq(),
		deadline: now.Add(n.cfg.InboxLease),
		prevPos:  prevPos,
	}
	n.claim, n.claimHave = cl, n.claimHave[:0]
	n.sendClaim(cl)
	return true
}

// sendClaim asks the replica whose turn it is to drain, and tells it what
// this node was replayed since the cycle opened (claimHave) so that it
// clears its copies of those instead of sending them. A replica is asked
// once per cycle, so no digest goes to a peer that has seen it.
func (n *Node) sendClaim(cl *claimState) {
	to := int32(cl.order[cl.idx])
	n.send(to, &wire.Message{
		Kind: wire.KindInboxClaim, From: int32(n.id), To: to,
		Seq: cl.seq, Target: int32(n.id), Acks: n.claimHave,
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
			n.claim, n.claimHave = nil, nil
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
	n.kickRetry()
}

// handleInboxReplay delivers a frame of replayed publications on the
// subscriber: first-time copies go through the normal delivery path
// (dedup window, OnDeliver, hop histogram), duplicates are absorbed — and
// every record is acked, one AckEntry each in one ack frame, so whichever
// replica sent it can clear its journal. The record container is outside
// input: a frame whose count or lengths do not add up is dropped whole —
// nothing delivered, nothing acked — and the replica sends it again.
func (n *Node) handleInboxReplay(m *wire.Message) {
	if overlay.PeerID(m.To) != n.id || overlay.PeerID(m.Target) != n.id {
		return
	}
	count := int(m.NMutual)
	if count > replayBatchMax || wire.CheckReplayContainer(m.Payload, count) != nil {
		n.cfg.Obs.Inc(obs.CInboxReplayMalformed)
		return
	}
	from := overlay.PeerID(m.From)
	cl := n.claim
	if cl != nil && cl.idx < len(cl.order) && from == cl.order[cl.idx] {
		// Progress from the lease holder keeps its lease alive.
		cl.deadline = time.Now().Add(n.cfg.InboxLease)
		cl.got += count
	}
	acks := n.acks[:0]
	for rest := m.Payload; len(rest) > 0; {
		var r wire.ReplayRecord
		r, rest, _ = wire.NextReplayRecord(rest) // checked above
		n.deliverReplayed(&r, m.HopCount)
		acks = append(acks, wire.AckEntry{
			Kind: wire.KindInboxReplayAck, From: int32(n.id), Dest: m.From,
			Pub: r.Publisher, Seq: r.Seq, Target: int32(n.id),
		})
	}
	if n.claim != nil {
		n.claimHave = append(n.claimHave, acks[:min(len(acks), claimDigestMax-len(n.claimHave))]...)
	}
	n.directAcks(from, acks)
	n.kickRetry()
}

// deliverReplayed hands one replayed publication to the application
// unless this node has seen it, or has left its topic since.
func (n *Node) deliverReplayed(r *wire.ReplayRecord, hops uint8) {
	topic := string(r.Topic)
	if topic == "" {
		topic = UserTopic(overlay.PeerID(r.Publisher))
	}
	switch {
	case len(r.Topic) > 0 && n.subTopics[topic] == nil:
		// This node left the topic after the copy was journaled — a replay
		// under way when the unsubscribe purged the replica. Nothing is
		// delivered; the ack still clears the record.
		n.cfg.Obs.Inc(obs.CTopicUnsubLate)
	case !n.rememberDelivery(msgID{r.Publisher, r.Seq}, hops):
		n.cfg.Obs.Inc(obs.CPublishDuplicate)
	default:
		if len(r.Topic) > 0 {
			n.cfg.Obs.Inc(obs.CTopicDelivered)
		} else {
			n.cfg.Obs.Inc(obs.CPublishDelivered)
		}
		n.cfg.Obs.ObserveHops(float64(hops))
		n.cfg.Obs.TraceEvent("deliver", int32(n.id), r.Seq)
		n.notify(n.subTopics[topic], Delivery{
			Publisher: overlay.PeerID(r.Publisher), Topic: topic,
			Seq: r.Seq, Hops: hops, Priority: r.Priority,
			Payload: r.Payload,
		})
	}
}
