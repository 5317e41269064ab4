package node

import (
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
//   - the autonomous delivery-repair engine: every publication this node
//     publishes gets a per-(node, seq) state machine that re-sends to
//     unacked subscribers on a seeded exponential-backoff-with-jitter
//     schedule (selectcore.Backoff) until every subscriber acked or the
//     retry budget dead-letters the publication — no caller ever drives
//     repair by hand;
//   - join-request resends, riding the same scheduler instead of the
//     maintenance ticker;
//   - the accrual failure detector sweep: heartbeat evidence (miss
//     streaks + CMA history) is classified by selectcore.FailureDetector
//     into alive → suspect → dead, and a dead link is evicted and
//     repaired immediately — LSH-bucket refill for long links, local
//     successor-list splice for ring neighbors;
//   - the state bounds: dedup windows and publication history are FIFO
//     garbage-collected so long-running nodes hold bounded maps.

// pubState is the publisher-side record of one in-flight publication.
type pubState struct {
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
	// origin/topic are set on topic-rendezvous repair state (topic.go):
	// the publication's original (publisher, seq) identity — acks and
	// deposits are keyed by it, not by this node's local repair seq —
	// and the topic it disseminates on. peers are the other members of
	// the rendezvous set as this replica computed it on accepting: it
	// passes each first-hand subscriber ack on to them (consumeAck).
	origin msgID
	topic  string
	peers  []overlay.PeerID
}

// DeadLetter records a publication that exhausted its retry budget with
// subscribers still unacked — the bounded failure record the harness can
// inspect instead of silently losing deliveries.
type DeadLetter struct {
	Seq     uint32
	Missing []overlay.PeerID
	Retries int
}

// maxDeadLetters bounds the per-node dead-letter record.
const maxDeadLetters = 128

// repairEnabled reports whether the delivery-repair engine runs;
// RetryBase = 0 disables it (the soak's no-recovery ablation arm).
func (n *Node) repairEnabled() bool { return n.cfg.RetryBase > 0 }

func (n *Node) backoff() selectcore.Backoff {
	return selectcore.Backoff{Base: n.cfg.RetryBase, Max: n.cfg.RetryMax, Budget: n.cfg.RetryBudget}
}

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
// changed (new publication, new join attempt).
func (n *Node) kickRetry() {
	if n.sh != nil {
		n.sh.scheduleRepair(n)
	}
}

// nextRepairAt returns the earliest pending retry/join deadline, or
// false when nothing is in flight (the wheel entry is dropped). A paused
// (churned-out) node dozes at ≥50 ms instead of spinning.
func (n *Node) nextRepairAt() (time.Time, bool) {
	var earliest time.Time
	for _, st := range n.pubs {
		if earliest.IsZero() || st.nextAt.Before(earliest) {
			earliest = st.nextAt
		}
		for _, ds := range st.dep {
			if !ds.acked && (earliest.IsZero() || ds.nextAt.Before(earliest)) {
				earliest = ds.nextAt
			}
		}
	}
	for _, tp := range n.tpubs {
		if earliest.IsZero() || tp.nextAt.Before(earliest) {
			earliest = tp.nextAt
		}
	}
	if n.wantJoin && !n.joinNext.IsZero() && (earliest.IsZero() || n.joinNext.Before(earliest)) {
		earliest = n.joinNext
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

// registerPublish opens the repair state machine for publication
// seq: the first retry fires one backoff-delay after the initial send.
func (n *Node) registerPublish(seq uint32, subs []overlay.PeerID, payload []byte, size uint32, pri uint8, now time.Time) {
	if !n.repairEnabled() {
		return
	}
	bseed := selectcore.RepairSeed(n.cfg.Seed, int32(n.id), seq)
	n.pubs[seq] = &pubState{
		subs:    append([]overlay.PeerID(nil), subs...),
		payload: payload,
		size:    size,
		pri:     pri,
		bseed:   bseed,
		nextAt:  now.Add(n.backoff().Delay(bseed, 0)),
	}
}

// pubKey is the ack-set key of publication seq's state: the origin
// identity for topic-rendezvous repair state, (self, seq) otherwise.
func (n *Node) pubKey(seq uint32, st *pubState) msgID {
	if st.topic != "" {
		return st.origin
	}
	return msgID{int32(n.id), seq}
}

// resolveAck closes publication seq's state machine once every
// subscriber is settled — directly acked or durably deposited — the
// moment its record becomes garbage-collectable.
func (n *Node) resolveAck(seq uint32) {
	st := n.pubs[seq]
	if st == nil {
		return
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

// retire drops publication seq's state machine — resolved, dead-lettered,
// or out of direct repair with nothing left to deposit. A topic replica's
// state also leaves tpOrigin, the index its acks and deposit acks find it
// by.
func (n *Node) retire(seq uint32, st *pubState) {
	delete(n.pubs, seq)
	if st.topic != "" {
		delete(n.tpOrigin, st.origin)
	}
}

// scheduleJoinResend arms the next join-resend deadline from the
// current attempt count.
func (n *Node) scheduleJoinResend(now time.Time) {
	n.joinNext = now.Add(n.joinBackoff().Delay(n.joinSeed(), n.joinAttempt))
}

// repairTick is the engine's timer body: re-send every due publication to
// its still-unacked subscribers, re-send a pending join request, and run
// the durable-tier deposit rounds. With the inbox tier on, a subscriber
// that is no longer a ring member — or that stayed unacked through the
// whole direct-retry budget — is handed off to its inbox replica set
// instead of dead-lettered; only a failed deposit (no replica acked
// within the budget) still dead-letters. A friend-feed retry names only
// the subscribers still missing and leaves through fanOut, grouped by
// next hop like the first send; the deposits a publication owes in this
// pass — first rounds and retries alike — leave through one depositRound,
// grouped by replica.
func (n *Node) repairTick() {
	if n.paused.Load() {
		return
	}
	now := time.Now()
	budget := n.backoff().Budget
	if budget <= 0 {
		budget = 12
	}
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
			due = n.retryDirect(seq, st, due, now, budget)
		}
		if len(due) > 0 {
			n.depositRound(seq, st, due, now)
		}
	}
	n.topicRepair(now, budget)
	if n.wantJoin && !n.joinNext.IsZero() && !n.joinNext.After(now) {
		n.joinAttempt++
		n.scheduleJoinResend(now)
		n.cfg.Obs.Inc(obs.CJoinResend)
		n.sendJoinRequest()
	}
}

// retryDirect is publication seq's direct-retry round, due now: the
// subscribers still missing get another copy, the ones out of budget or
// out of the ring are handed to the durable tier — appended to due, whose
// deposit round the caller sends — and a publication with neither is
// retired.
func (n *Node) retryDirect(seq uint32, st *pubState, due []overlay.PeerID, now time.Time, budget int) []overlay.PeerID {
	bo := n.backoff()
	inboxOn := n.inboxOn()
	acked := n.acked[n.pubKey(seq, st)]
	var missing []overlay.PeerID
	depositing := false
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
	if len(missing) == 0 {
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
		// Inbox off (or it would have claimed them above): budget
		// exhausted with subscribers missing.
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
	if st.topic == "" {
		n.fanOut(n.feedFrame(seq, st.payload, st.size, st.pri), missing, -1, nil)
		return due
	}
	for _, s := range missing {
		// Topic repair copies are point-to-point leaf deliveries (no
		// subtree) carrying the origin identity, with acks addressed
		// back to this rendezvous replica.
		_ = n.tr.Send(int32(s), &wire.Message{
			Kind: wire.KindTopicPub, From: int32(n.id), To: int32(s),
			Seq: st.origin.Seq, Publisher: st.origin.Publisher,
			Target: int32(n.id), Priority: st.pri, TTL: n.cfg.TTL,
			PayloadSize: st.size, Payload: st.payload,
			Topic: []byte(st.topic),
		})
	}
	return due
}

// deadLetter retires publication seq unresolved: budget exhausted
// with subscribers missing. The record is bounded FIFO.
func (n *Node) deadLetter(seq uint32, st *pubState, missing []overlay.PeerID) {
	n.retire(seq, st)
	n.cfg.Obs.Inc(obs.CDeadLetter)
	n.cfg.Obs.TraceEvent("dead_letter", int32(n.id), seq)
	n.deadLetters = append(n.deadLetters, DeadLetter{Seq: seq, Missing: missing, Retries: st.attempt})
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

// PendingRepairs returns how many publications are still in the repair
// engine (unresolved, not dead-lettered).
func (n *Node) PendingRepairs() (k int) {
	n.do(func() { k = len(n.pubs) })
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
	var dead []overlay.PeerID
	for _, q := range append(n.links(), n.rview.probation(n.dir.isMember)...) {
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
