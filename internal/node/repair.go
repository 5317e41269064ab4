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

// This file is the self-healing layer of the live runtime (DESIGN.md §9):
//
//   - the autonomous delivery-repair engine: one table (n.pubs) of rows,
//     one per thing this node owes someone — its own friend-feed post, a
//     topic publication it accepted as rendezvous replica, its own topic
//     publication on its way to the rendezvous set, its own registration
//     on a topic, or a registry it no longer owns. Each row
//     re-sends to its unacked destinations on a seeded
//     exponential-backoff-with-jitter schedule (selectcore.Backoff) until
//     they all acked or the retry budget escalates it — no caller ever
//     drives repair by hand;
//   - join-request resends, the durable tier's claim-lease expiry and its
//     replay re-sends, all on the same timer, backoff and budget;
//   - the accrual failure detector sweep: heartbeat evidence (miss
//     streaks + CMA history) is classified by selectcore.FailureDetector
//     into alive → suspect → dead, and a dead link is evicted and
//     repaired immediately — LSH-bucket refill for long links, local
//     successor-list splice for ring neighbors;
//   - the state bounds: dedup windows and publication history are FIFO
//     garbage-collected so long-running nodes hold bounded maps.

// Row classes of the repair engine (DESIGN.md §9.1): what a row's
// destinations are, which ack clears them, and how it escalates. The
// classes from rowHandoff on are set rows: their destinations are a
// topic's live rendezvous set, recomputed every round (setRound), and a
// member's acceptance is kept in the row.
const (
	// rowFeed is this node's friend-feed publication: its subscribers,
	// KindAck, direct → deposit → dead letter.
	rowFeed uint8 = iota
	// rowReplica is a topic publication this node accepted as rendezvous
	// replica: the registry's subscribers, KindAck, direct → deposit →
	// dead letter.
	rowReplica
	// rowHandoff is this node's topic publication on its way to the
	// rendezvous set: KindTopicPubAck, direct → resolved if any member
	// accepted → dead letter.
	rowHandoff
	// rowRegister is this node's registration on a topic (one per lease
	// refresh): KindTopicSubAck, direct → retired at budget.
	rowRegister
	// rowTransfer is a registry this node holds for a topic whose set it
	// left: KindTopicSubAck, direct → retired at budget.
	rowTransfer
)

// pubState is one row of the repair engine: an in-flight publication.
type pubState struct {
	class   uint8
	subs    []overlay.PeerID
	payload []byte
	size    uint32
	pri     uint8     // durable-tier replay class (inbox.High/Medium/Low)
	attempt int       // retries already sent
	nextAt  time.Time // next retry deadline
	bseed   uint64    // selectcore.RepairSeed(seed, node, seq)
	// dep holds the subscribers handed to the durable tier (inbox.go):
	// direct repair stopped for them, deposit rounds retry until one
	// replica acks persistence.
	dep map[overlay.PeerID]*depSub
	// topic is set on topic rows (topic.go). On a replica row origin is
	// the publication's original (publisher, seq) identity — acks and
	// deposits are keyed by it, not by this node's local repair seq — and
	// peers are the other members of the rendezvous set as this replica
	// computed it on accepting: it passes each first-hand subscriber ack
	// on to them (consumeAck). On a set row accepted lists the members
	// that acked acceptance. It is kept here and not in n.acked:
	// when this node is its topic's primary, n.acked[(self, seq)] holds
	// the subscriber acks of its replica row, a subscribing standby's
	// among them, and that ack says nothing about the standby's repair
	// state.
	origin   msgID
	topic    string
	peers    []overlay.PeerID
	accepted []overlay.PeerID
}

// setRow reports whether st is a set row: a hand-off, a registration or a
// registry transfer.
func (st *pubState) setRow() bool { return st.class >= rowHandoff }

// DeadLetter records a publication that exhausted its retry budget with
// destinations still unacked — the bounded failure record the harness can
// inspect instead of silently losing deliveries. (Publisher, Seq) names
// the publication, also on a rendezvous replica that repaired someone
// else's.
type DeadLetter struct {
	Publisher overlay.PeerID
	Seq       uint32
	Missing   []overlay.PeerID
	Retries   int
}

// maxDeadLetters bounds the per-node dead-letter record.
const maxDeadLetters = 128

// repairEnabled reports whether the delivery-repair engine runs;
// RetryBase = 0 disables it (the soak's no-recovery ablation arm).
func (n *Node) repairEnabled() bool { return n.cfg.RetryBase > 0 }

func (n *Node) backoff() selectcore.Backoff {
	return selectcore.Backoff{Base: n.cfg.RetryBase, Max: n.cfg.RetryMax, Budget: n.cfg.RetryBudget}
}

// retryBudget is how many rounds a row, a deposit or a drain is re-sent
// before it escalates: RetryBudget, 12 when that is not positive.
func (n *Node) retryBudget() int { return cmp.Or(max(n.cfg.RetryBudget, 0), 12) }

// joinBackoff is the join-resend schedule: same engine, but with a
// fallback base (joins must retry even when publication repair is off)
// and no budget — a joiner keeps asking at the capped delay forever.
func (n *Node) joinBackoff() selectcore.Backoff {
	b := n.backoff()
	if b.Base <= 0 {
		b.Base = 15 * time.Millisecond
	}
	return b
}

// joinSeed is the backoff stream for join resends; seq 0 is never used by
// publications (nextSeq starts at 1), so it is free as the join stream id.
func (n *Node) joinSeed() uint64 {
	return selectcore.RepairSeed(n.cfg.Seed, int32(n.id), 0)
}

// kickRetry re-arms the shard wheel's repair entry after a deadline
// changed (new publication, new join attempt, claim or drain moved).
func (n *Node) kickRetry() {
	if n.sh != nil {
		n.sh.scheduleRepair(n)
	}
}

// earlier returns the earlier of t and u, a zero time counting as none.
func earlier(t, u time.Time) time.Time {
	if t.IsZero() || (!u.IsZero() && u.Before(t)) {
		return u
	}
	return t
}

// nextRepairAt returns the earliest pending deadline — a row's retry or
// deposit round, a join resend, the claim lease, a drain's re-send — or
// false when nothing is in flight (the wheel entry is dropped). A paused
// (churned-out) node dozes at ≥50 ms instead of spinning.
func (n *Node) nextRepairAt() (time.Time, bool) {
	var earliest time.Time
	for _, st := range n.pubs {
		earliest = earlier(earliest, st.nextAt)
		for _, ds := range st.dep {
			if !ds.acked {
				earliest = earlier(earliest, ds.nextAt)
			}
		}
	}
	if n.wantJoin {
		earliest = earlier(earliest, n.joinNext)
	}
	if n.claim != nil {
		earliest = earlier(earliest, n.claim.deadline)
	}
	for _, rs := range n.replay {
		if len(rs.out) > 0 {
			earliest = earlier(earliest, rs.nextAt)
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

// registerPublish opens the row of this node's publication seq, a
// friend-feed row: the first retry fires one backoff-delay after the
// initial send. It returns the row, nil when repair is off.
func (n *Node) registerPublish(seq uint32, subs []overlay.PeerID, payload []byte, size uint32, pri uint8, now time.Time) *pubState {
	if !n.repairEnabled() {
		return nil
	}
	bseed := selectcore.RepairSeed(n.cfg.Seed, int32(n.id), seq)
	st := &pubState{
		subs:    append([]overlay.PeerID(nil), subs...),
		payload: payload,
		size:    size,
		pri:     pri,
		bseed:   bseed,
		nextAt:  now.Add(n.backoff().Delay(bseed, 0)),
	}
	n.pubs[seq] = st
	return st
}

// pubKey is the identity of the publication row seq repairs, and the
// key of its ack set: the origin identity on a replica row, (self, seq)
// otherwise.
func (n *Node) pubKey(seq uint32, st *pubState) msgID {
	if st.class == rowReplica {
		return st.origin
	}
	return msgID{int32(n.id), seq}
}

// resolveAck retires row seq once every destination is settled — a
// subscriber directly acked or durably deposited, every live member of a
// set row's rendezvous set accepted (setRound, which accepts on the spot
// for this node if it is one) — the moment its record becomes
// garbage-collectable.
func (n *Node) resolveAck(seq uint32) {
	st := n.pubs[seq]
	if st == nil {
		return
	}
	if st.setRow() {
		now := time.Now()
		if missing, anyAccepted := n.setRound(seq, st, n.topicRendezvous(st.topic, now), now); len(missing) > 0 || !anyAccepted {
			return
		}
	}
	acked := n.acked[n.pubKey(seq, st)]
	for _, s := range st.subs {
		if !settled(acked, st, s) {
			return
		}
	}
	n.retire(seq, st)
	n.cfg.Obs.TraceEvent("pub_resolved", int32(n.id), seq)
}

// retire is the one exit of row seq — resolved, dead-lettered, or out of
// direct repair with nothing left to deposit. A replica row also leaves
// tpOrigin, the index its acks and deposit acks find it by. A
// registration any member accepted releases Subscribe. A transfer row
// takes the registry it carried with it, unless this node is back in the
// topic's set.
func (n *Node) retire(seq uint32, st *pubState) {
	delete(n.pubs, seq)
	switch st.class {
	case rowReplica:
		delete(n.tpOrigin, st.origin)
	case rowRegister:
		if ts := n.subTopics[st.topic]; ts != nil && len(st.accepted) > 0 {
			ts.ack()
		}
	case rowTransfer:
		if !slices.Contains(n.topicRendezvous(st.topic, time.Now()), n.id) {
			delete(n.topicReg, st.topic)
		}
	}
}

// scheduleJoinResend arms the next join-resend deadline from the
// current attempt count.
func (n *Node) scheduleJoinResend(now time.Time) {
	n.joinNext = now.Add(n.joinBackoff().Delay(n.joinSeed(), n.joinAttempt))
}

// repairTick is the engine's timer body: re-send every due row to its
// still-unacked destinations, run the durable-tier deposit rounds,
// re-send a pending join request, hand an expired claim lease on, and
// re-send every drain's outstanding replay batch that is due. With the
// inbox tier on, a subscriber that is no longer a ring member — or that
// stayed unacked through the whole direct-retry budget — is handed off to
// its inbox replica set instead of dead-lettered; only a failed deposit
// (no replica acked within the budget) still dead-letters. A friend-feed
// retry names only the subscribers still missing and leaves through
// fanOut, grouped by next hop like the first send; the deposits a
// publication owes in this pass — first rounds and retries alike — leave
// through one depositRound, grouped by replica.
func (n *Node) repairTick() {
	if n.paused.Load() {
		return
	}
	now := time.Now()
	budget := n.retryBudget()
	var due []overlay.PeerID
	for seq, st := range n.pubs {
		// Deposit rounds run on their own per-subscriber deadlines, even
		// when the publication's direct-retry deadline is not due.
		due = due[:0]
		var failed []overlay.PeerID
		for s, ds := range st.dep {
			if ds.acked || ds.nextAt.After(now) {
				continue
			}
			if ds.attempt >= budget {
				// The durable tier itself failed for s: no replica ever
				// acked persistence. This is the real dead-letter case.
				failed = append(failed, s)
				continue
			}
			ds.attempt++
			due = append(due, s)
		}
		if len(failed) > 0 {
			n.deadLetter(seq, st, failed)
			continue
		}
		if !st.nextAt.After(now) {
			due = n.retryDirect(seq, st, due, now)
		}
		if len(due) > 0 {
			n.depositRound(seq, st, due, now)
		}
	}
	if n.wantJoin && !n.joinNext.IsZero() && !n.joinNext.After(now) {
		n.joinAttempt++
		n.scheduleJoinResend(now)
		n.cfg.Obs.Inc(obs.CJoinResend)
		n.sendJoinRequest()
	}
	if cl := n.claim; cl != nil && !cl.deadline.After(now) {
		// The lease holder made no progress within the lease: hand the
		// claim to the next replica in the deterministic order.
		n.cfg.Obs.Inc(obs.CInboxLeaseExpire)
		n.cfg.Obs.TraceEvent("inbox_lease_expire", int32(n.id), uint32(cl.order[cl.idx]))
		n.advanceClaim(now)
	}
	for target, rs := range n.replay {
		if len(rs.out) == 0 || rs.nextAt.After(now) {
			continue
		}
		if rs.attempt >= budget || !n.dir.isMember(target) {
			// No ack after the whole budget, or the subscriber left the
			// ring again: park the drain. The journal keeps the records;
			// the next claim or inboxSweep restarts it.
			delete(n.replay, target)
			continue
		}
		rs.attempt++
		rs.nextAt = now.Add(n.backoff().Delay(n.drainSeed(target), rs.attempt))
		n.sendReplay(target, rs.out)
	}
}

// retryDirect is row seq's direct-retry round, due now: the destinations
// still missing get another copy, the subscribers out of budget or out of
// the ring are handed to the durable tier — appended to due, whose
// deposit round the caller sends — and a row with neither is retired. A
// set row's round is setRound's: the members of the topic's rendezvous set
// as it stands now, this node accepting on the spot once it is one.
func (n *Node) retryDirect(seq uint32, st *pubState, due []overlay.PeerID, now time.Time) []overlay.PeerID {
	bo, budget := n.backoff(), n.retryBudget()
	inboxOn := n.inboxOn()
	acked := n.acked[n.pubKey(seq, st)]
	var missing []overlay.PeerID
	depositing := false
	anyAccepted := true
	if st.setRow() {
		missing, anyAccepted = n.setRound(seq, st, n.topicRendezvous(st.topic, now), now)
	}
	for _, s := range st.subs {
		if settled(acked, st, s) {
			continue
		}
		if st.dep[s] != nil {
			depositing = true // hand-off done, deposit round pending
			continue
		}
		if inboxOn && (st.attempt >= budget || !n.dir.isMember(s)) {
			// Offline (membership dropped) or out of direct budget:
			// hand this subscriber's copy to the durable tier.
			n.startDeposit(st, s)
			due = append(due, s)
			depositing = true
			continue
		}
		missing = append(missing, s)
	}
	if len(missing) == 0 && anyAccepted {
		if !depositing {
			n.retire(seq, st)
		} else {
			// Direct repair is done; keep the record alive for the
			// deposit rounds without spinning the retry schedule.
			st.nextAt = now.Add(bo.Delay(st.bseed, budget))
		}
		return due
	}
	if st.attempt >= budget {
		if st.setRow() && (anyAccepted || st.class != rowHandoff) {
			// A member that answered none of the budget's rounds is de
			// facto dead even while the accrual detector still lists it
			// live. A replica that accepted a hand-off owns delivery (tree,
			// repair, deposits); a registration or a registry is soft
			// state, held where it was accepted and repaired by the next
			// refresh where it was not.
			n.retire(seq, st)
			return due
		}
		// Inbox off (or it would have claimed them above), or no member
		// ever accepted the publication: budget exhausted with
		// destinations missing.
		n.deadLetter(seq, st, missing)
		return due
	}
	st.attempt++
	if st.attempt == 2 {
		// Two retries in a row unacked (≈3 RetryBase): the data path
		// has evidence the control plane may lack — probe now rather
		// than at the end of a backed-off interval.
		n.cadenceEvent(selectcore.CadenceRetry)
	}
	st.nextAt = now.Add(bo.Delay(st.bseed, st.attempt))
	n.cfg.Obs.Addn(obs.CRetrySent, int64(len(missing)))
	n.cfg.Obs.TraceEvent("retry", int32(n.id), seq)
	switch st.class {
	case rowFeed:
		n.fanOut(n.feedFrame(seq, st.payload, st.size, st.pri), missing, -1)
	case rowReplica:
		for _, s := range missing {
			// Topic repair copies are point-to-point leaf deliveries (no
			// subtree) carrying the origin identity, with acks addressed
			// back to this rendezvous replica.
			n.send(int32(s), &wire.Message{
				Kind: wire.KindTopicPub, From: int32(n.id), To: int32(s),
				Seq: st.origin.Seq, Publisher: st.origin.Publisher,
				Target: int32(n.id), Priority: st.pri, TTL: n.cfg.TTL,
				PayloadSize: st.size, Payload: st.payload,
				Topic: []byte(st.topic),
			})
		}
	default:
		n.sendSet(seq, st, missing, now)
	}
	return due
}

// deadLetter retires row seq unresolved: budget exhausted with
// destinations missing. The record names the publication and is bounded
// FIFO.
func (n *Node) deadLetter(seq uint32, st *pubState, missing []overlay.PeerID) {
	id := n.pubKey(seq, st)
	n.retire(seq, st)
	n.cfg.Obs.Inc(obs.CDeadLetter)
	n.cfg.Obs.TraceEvent("dead_letter", int32(n.id), seq)
	n.deadLetters = append(n.deadLetters, DeadLetter{Publisher: overlay.PeerID(id.Publisher), Seq: id.Seq, Missing: missing, Retries: st.attempt})
	if len(n.deadLetters) > maxDeadLetters {
		n.deadLetters = n.deadLetters[len(n.deadLetters)-maxDeadLetters:]
	}
}

// DeadLetters returns the node's bounded record of publications that
// exhausted their retry budget.
func (n *Node) DeadLetters() (dl []DeadLetter) {
	n.do(func() { dl = append(dl, n.deadLetters...) })
	return dl
}

// PendingRepairs returns how many publication rows the repair engine
// holds — friend-feed publications, topic publications accepted as
// rendezvous replica and topic hand-offs alike — unresolved and not
// dead-lettered. Registrations and registry transfers are not counted.
func (n *Node) PendingRepairs() int { return n.pendingRows(rowFeed, rowHandoff) }

// pendingRows counts the repair engine's rows of the classes lo to hi.
func (n *Node) pendingRows(lo, hi uint8) (k int) {
	n.do(func() {
		for _, st := range n.pubs {
			if lo <= st.class && st.class <= hi {
				k++
			}
		}
	})
	return k
}

const (
	// dedupWindow bounds each node's delivery-dedup record.
	dedupWindow = 8192
	// pubHistory bounds the publisher-side ack records kept after a
	// publication resolves or dead-letters.
	pubHistory = 1024
)

// rememberDelivery records a first-time delivery in the dedup
// window, evicting the oldest entry past dedupWindow. Returns false on a
// duplicate. The window bound is the at-least-once contract: a copy
// arriving after its record aged out would deliver again.
func (n *Node) rememberDelivery(id msgID, hops uint8) bool {
	if _, dup := n.received[id]; dup {
		return false
	}
	n.received[id] = hops
	n.recvOrder = append(n.recvOrder, id)
	for len(n.recvOrder) > dedupWindow {
		delete(n.received, n.recvOrder[0])
		n.recvOrder = n.recvOrder[1:]
	}
	return true
}

// ackedSet returns (creating if needed) the ack set of publication
// id, evicting the oldest completed record past pubHistory.
func (n *Node) ackedSet(id msgID) map[int32]bool {
	set := n.acked[id]
	if set == nil {
		set = make(map[int32]bool)
		n.acked[id] = set
		n.ackOrder = append(n.ackOrder, id)
		for len(n.ackOrder) > pubHistory {
			delete(n.acked, n.ackOrder[0])
			n.ackOrder = n.ackOrder[1:]
		}
	}
	return set
}

// quarantineFor is how long an evicted-dead peer stays unlearnable from
// third-party gossip: long enough for the rest of the protocol to notice
// the death, short enough that a recovered peer is not shunned for long.
// First-person evidence (pong, own IDAnnounce) clears it early.
func (n *Node) quarantineFor() time.Duration {
	d := 8 * n.cfg.HeartbeatEvery
	if d < 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	return d
}

// quarantined reports whether q is under dead-quarantine at `now`,
// expiring stale entries as a side effect.
func (n *Node) quarantined(q overlay.PeerID, now time.Time) bool {
	t, ok := n.deadUntil[q]
	if !ok {
		return false
	}
	if now.After(t) {
		delete(n.deadUntil, q)
		return false
	}
	return true
}

// learnRing folds piggybacked successor/predecessor wire fields
// into the ring view, skipping self and quarantined peers — gossip from
// third parties must not resurrect a neighbor this node declared dead.
// from is the message sender: its own entry (piggyback prepends self) is
// firsthand evidence confirmed now, everything else is hearsay confirmed
// ages[i] milliseconds (a missing age reads 0) plus one hop ago — the
// single claim rule of DESIGN.md §9.3. Hardened, every claim is first
// cross-checked against the shared directory's admission record and
// CORRECTED rather than believed: a claim about a non-member is a ghost
// and is dropped, and a claimed position that contradicts the one the
// directory granted is replaced by the granted one (both count
// pos_rejected). An eclipse cohort's ε-flank forgeries therefore
// collapse to statements about real members at their real positions —
// worthless — while honest-but-stale gossip (a peer moved or rejoined
// and the claim predates it) still contributes its liveness information
// at the corrected position instead of being thrown away (DESIGN.md
// §14). That cross-check is a defence, not ring maintenance; stale
// hearsay that tried to move a firsthand entry feeds the
// eclipse_displaced counter either way.
func (n *Node) learnRing(own ring.ID, from overlay.PeerID, peers []int32, poss []uint64, ages []int32) {
	k := min(len(peers), len(poss))
	now := time.Now()
	for i := 0; i < k; i++ {
		q := overlay.PeerID(peers[i])
		if q == n.id || n.quarantined(q, now) {
			continue
		}
		pos := ring.ID(math.Float64frombits(poss[i]))
		if n.cfg.Hardened {
			dp, ok := n.dir.memberPos(q)
			if !ok {
				n.cfg.Obs.Inc(obs.CPosRejected)
				continue
			}
			if dp != pos {
				n.cfg.Obs.Inc(obs.CPosRejected)
				pos = dp
			}
		}
		conf := now
		if q != from {
			conf = now.Add(-n.rview.hop)
			if i < len(ages) && ages[i] > 0 {
				conf = conf.Add(-time.Duration(ages[i]) * time.Millisecond)
			}
		}
		if n.rview.learn(own, n.id, q, pos, q == from, conf) {
			n.cfg.Obs.Inc(obs.CEclipseDisplaced)
		}
	}
}

// learnPiggyback folds the ring claims a Ping, Pong or JoinReply
// carries — both lists, with their ages — into the view and re-derives
// the heads.
func (n *Node) learnPiggyback(own ring.ID, m *wire.Message) {
	from := overlay.PeerID(m.From)
	succAge, predAge := claimAges(m)
	n.learnRing(own, from, m.Succs, m.SuccPos, succAge)
	n.learnRing(own, from, m.Preds, m.PredPos, predAge)
	n.refreshHeads()
}

// detectorSweep classifies the accrued heartbeat evidence of every
// probed peer — the links and the ring candidates on probation
// (selectcore.FailureDetector) — and evicts the dead ones. Called from
// the heartbeat sweep after folding the round's misses.
func (n *Node) detectorSweep(now time.Time) {
	det := n.cfg.Detector
	var (
		dead    []overlay.PeerID
		linkBuf [routeLinksMax]overlay.PeerID
	)
	for _, q := range append(n.appendLinks(linkBuf[:0]), n.rview.probation(n.dir.isMember)...) {
		c := n.cma[q]
		if c == nil {
			continue
		}
		switch det.Classify(n.miss[q], c.Samples(), c.Value()) {
		case selectcore.LinkSuspect:
			if _, ok := n.suspectAt[q]; !ok {
				n.suspectAt[q] = now
				n.cfg.Obs.Inc(obs.CLinkSuspect)
				n.cfg.Obs.TraceEvent("suspect", int32(n.id), uint32(q))
				n.cadenceEvent(selectcore.CadenceDetector)
			}
		case selectcore.LinkDead:
			if !slices.Contains(dead, q) {
				dead = append(dead, q)
			}
		}
	}
	for _, q := range dead {
		n.evictDead(q, now)
	}
}

// evictDead removes a dead link from every routing role and repairs
// immediately: a dead ring neighbor is spliced out of the successor list
// locally, a dead long link's LSH bucket is re-filled by an Algorithm-5/6
// pass right now rather than at the next maintenance tick. Time-to-repair
// is measured from first suspicion.
func (n *Node) evictDead(q overlay.PeerID, now time.Time) {
	since := now
	if t, ok := n.suspectAt[q]; ok {
		since = t
	}
	wasLong := n.inLongOut(q) || n.inLongIn(q)
	wasRing := n.shortSucc == q || n.shortPred == q
	n.removeLongOut(q)
	n.removeLongIn(q)
	delete(n.pendingOut, q)
	delete(n.lookahead, q)
	delete(n.cma, q)
	delete(n.miss, q)
	delete(n.suspectAt, q)
	n.deadUntil[q] = now.Add(n.quarantineFor())
	n.rview.remove(q)
	n.cfg.Obs.Inc(obs.CLinkDeadEvict)
	n.cfg.Obs.TraceEvent("dead_evict", int32(n.id), uint32(q))
	n.cadenceEvent(selectcore.CadenceDetector)
	if wasRing {
		n.refreshHeads()
		n.cfg.Obs.Inc(obs.CRingSplice)
		n.cfg.Obs.ObserveRepairRingMS(float64(now.Sub(since).Milliseconds()))
		n.cfg.Obs.TraceEvent("ring_splice", int32(n.id), uint32(q))
	}
	if wasLong {
		n.linkRepairStart = append(n.linkRepairStart, since)
		n.relink()
	}
}
