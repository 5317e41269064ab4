package node

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/selectcore"
	"selectps/internal/wire"
)

// This file is the named-topic pub/sub tier (DESIGN.md §13): hashtags,
// group channels and pages whose subscribers are not social friends.
//
//   - placement: a topic hashes to a ring position; the first R live
//     clockwise successors (selectcore.Rendezvous — the PR-7 successor
//     geometry) host its subscriber registry. Index 0 is the primary,
//     the rest are standbys.
//   - subscription: subscribers register at every member of the
//     rendezvous set with a lease. A registration is a row of the repair
//     engine (rowRegister): its rounds send TopicSub to the members that
//     have not accepted, a member accepts with a KindTopicSubAck entry on
//     the ack-batch path, and Subscribe returns once every live member
//     holds the entry, or once the row retires at budget with any holding
//     it. A fresh row opens at lease/2 on the maintain tick; registry
//     entries expire when refreshes stop.
//   - publication: the publisher hands the message to the rendezvous
//     set (TopicPub with Target = -1). The hand-off is a row of the
//     repair engine (rowHandoff), retried until every live member acked
//     acceptance, resolved at budget if any had, dead-lettered if none
//     had. The primary fans it down a bounded-fanout dissemination tree
//     built from the registry (selectcore.TreeBranches; each tree copy
//     carries its subtree in RoutingTable); every accepting replica also
//     opens a row of its own for the publication (rowReplica), so
//     unacked subscribers get direct retries and — via the PR-7 inbox —
//     durable deposits when they are offline.
//   - acknowledgement (DESIGN.md §13.4): a subscriber acks one replica
//     per copy, the one that stamped it (Target); that replica passes
//     each first-hand ack on to the other members of its rendezvous set
//     on the timed ack flush, so one ack settles every replica's repair
//     state. A standby the acks never reach retries after its backoff
//     step, with copies naming itself, and is acked directly.
//   - re-homing: membership changes and accrual-detector verdicts
//     (deadUntil) shift the rendezvous set; a subscriber's registration
//     row runs its next round the moment the computed set changes, a peer
//     that lost ownership carries its registry to the current set in a
//     row of its own (rowTransfer, TopicHandoff, acked like a
//     registration) and drops it when the row retires, and publishers
//     recompute the set on every retry. The three set rows share one
//     round (setRound, sendSet). Duplicate fan-out waves from standby
//     acceptance are absorbed by the (publisher, seq) dedup window.

// Errors returned by the topic-first API.
var (
	// ErrForeignUserTopic is returned when publishing to another peer's
	// implicit user topic: only the owner posts to its own feed.
	ErrForeignUserTopic = errors.New("node: cannot publish to another user's feed topic")
	// ErrNotFriend is returned when subscribing to a user topic whose
	// owner is not a social friend — user feeds disseminate along the
	// friend graph only; use a named topic for non-friend fan-out.
	ErrNotFriend = errors.New("node: user-feed topics are only subscribable by friends")
	// ErrTopicRepairOff is returned when the topic tier is used without
	// the repair scheduler (RetryBase = 0): rendezvous hand-off and
	// lease refresh both ride it.
	ErrTopicRepairOff = errors.New("node: topic pub/sub requires the repair scheduler (RetryBase > 0)")
)

// userTopicPrefix marks the implicit per-user feed topics.
const userTopicPrefix = "~"

// topicFanout bounds the branching factor of the per-topic dissemination
// tree.
const topicFanout = 4

// UserTopic names peer p's implicit feed topic: every friend-feed
// publication is a publication on this topic, so one delivery path (and
// one handler signature) serves friend feeds and named topics alike.
func UserTopic(p overlay.PeerID) string {
	return userTopicPrefix + strconv.Itoa(int(p))
}

// parseUserTopic reports whether name is an implicit user topic and
// whose.
func parseUserTopic(name string) (overlay.PeerID, bool) {
	if !strings.HasPrefix(name, userTopicPrefix) {
		return -1, false
	}
	v, err := strconv.Atoi(name[len(userTopicPrefix):])
	if err != nil || v < 0 {
		return -1, false
	}
	return overlay.PeerID(v), true
}

// TopicHandle is the topic-first API surface: a cheap, stateless handle
// on one named topic as seen from one node. Obtain with Node.Topic.
type TopicHandle struct {
	n    *Node
	name string
}

// Topic returns a handle on the named topic. User topics ("~<id>",
// UserTopic) address the implicit per-user feed; any other name is a
// rendezvous-placed named topic (hashtag, group, page).
func (n *Node) Topic(name string) *TopicHandle {
	return &TopicHandle{n: n, name: name}
}

// Name returns the topic's name.
func (t *TopicHandle) Name() string { return t.name }

// Subscription is one node's registration on one topic. At most one
// subscription exists per (node, topic); a second Subscribe returns the
// same Subscription.
type Subscription struct {
	n     *Node
	topic string
}

// Topic returns the subscribed topic's name.
func (s *Subscription) Topic() string { return s.topic }

// OnDeliver registers the per-subscription push handler, called once
// per first-time delivery on this topic, on the node's shard loop (see
// Node.OnDeliver for what it may call). Topics without a subscription
// handler fall back to the node-level handler.
func (s *Subscription) OnDeliver(fn DeliverFunc) {
	s.n.do(func() {
		if ts := s.n.subTopics[s.topic]; ts != nil {
			ts.handler = fn
		}
	})
}

// topicSub is the subscriber-side state for one topic.
type topicSub struct {
	sub      *Subscription
	handler  DeliverFunc
	implicit bool // user topic: delivered by the friend graph, no rendezvous
	acked    bool // a registration row resolved, or retired accepted (Subscribe unblocks)
	ackCh    chan struct{}
	row      uint32           // the registration row: n.pubs[row], nil once retired
	lastSub  time.Time        // when the row opened, the last lease refresh
	set      []overlay.PeerID // rendezvous set at the last refresh or re-home
}

// Subscribe registers this node on the topic and blocks until every live
// member of the topic's rendezvous set holds the registration — or until
// the registration's repair row retires at its budget with at least one
// member holding it, or ctx expires; the registration is refreshed on
// the maintain tick either way. User-topic subscriptions are implicit —
// friends already receive the feed — and return immediately; non-friends
// get ErrNotFriend.
func (t *TopicHandle) Subscribe(ctx context.Context) (*Subscription, error) {
	n := t.n
	owner, implicit := parseUserTopic(t.name)
	switch {
	case implicit && owner != n.id && !n.g.HasEdge(n.id, owner):
		return nil, ErrNotFriend
	case !implicit && !n.repairEnabled():
		return nil, ErrTopicRepairOff
	}
	var ts *topicSub
	n.do(func() {
		ts = n.subTopics[t.name]
		if ts == nil {
			ts = &topicSub{sub: &Subscription{n: n, topic: t.name}, implicit: implicit, ackCh: make(chan struct{})}
			n.subTopics[t.name] = ts
		}
		switch {
		case implicit:
			ts.ack()
		case n.pubs[ts.row] == nil: // else the open row releases this call too
			now := time.Now()
			n.topicRegister(t.name, ts, n.topicRendezvous(t.name, now), now)
		}
	})
	// ackCh and sub never change once the subscription exists.
	select {
	case <-ts.ackCh:
		return ts.sub, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ack marks the registration confirmed and releases Subscribe.
func (ts *topicSub) ack() {
	if !ts.acked {
		ts.acked = true
		close(ts.ackCh)
	}
}

// Unsubscribe removes the registration: the rendezvous set drops this
// node from the registry, and both the rendezvous peers and this node's
// own inbox replicas purge any journaled deposits still parked for
// (node, topic) — a departed subscriber must not strand journal
// entries it will never claim.
func (s *Subscription) Unsubscribe(ctx context.Context) error {
	_ = ctx
	s.n.do(func() { s.n.unsubscribe(s.topic) })
	return nil
}

func (n *Node) unsubscribe(topic string) {
	ts := n.subTopics[topic]
	delete(n.subTopics, topic)
	if ts == nil || ts.implicit {
		return
	}
	if st := n.pubs[ts.row]; st != nil {
		n.retire(ts.row, st) // no TopicSub of it follows the TopicUnsub
	}
	seq, now := n.nextSeq(), time.Now()
	told := append(n.topicRendezvous(topic, now), selectcore.InboxReplicas(n.id, n.dir.position(n.id), n.dir.ringMembers(), nil, n.cfg.InboxReplicas)...)
	slices.Sort(told)
	for _, rep := range slices.Compact(told) {
		if rep == n.id {
			n.dropTopicSub(topic, n.id, seq, now)
			continue
		}
		n.send(int32(rep), &wire.Message{
			Kind: wire.KindTopicUnsub, From: int32(n.id), To: int32(rep),
			Seq: seq, Topic: []byte(topic),
		})
	}
}

// Publish sends one publication to the topic and returns its sequence
// number. On the node's own user topic it is exactly the friend-feed
// Publish; on a named topic the message is handed to the rendezvous set
// and disseminated down the per-topic tree, with the hand-off retried
// on the repair wheel until every live rendezvous replica accepted.
func (t *TopicHandle) Publish(payload []byte, opts ...PublishOption) (uint32, error) {
	n := t.n
	if owner, ok := parseUserTopic(t.name); ok {
		if owner != n.id {
			return 0, ErrForeignUserTopic
		}
		return n.publishFeed(payload, opts...), nil
	}
	if !n.repairEnabled() {
		return 0, ErrTopicRepairOff
	}
	o := resolvePublishOpts(payload, opts)
	seq := n.nextSeq()
	n.post(func() { n.publishTopic(seq, t.name, payload, o) })
	return seq, nil
}

// publishTopic opens the hand-off row of topic publication seq and sends
// the first round. All-member acceptance is what makes a mid-fan-out
// rendezvous death lossless: a surviving standby that accepted keeps
// repairing.
func (n *Node) publishTopic(seq uint32, topic string, payload []byte, o pubOpts) {
	now := time.Now()
	n.rememberDelivery(msgID{int32(n.id), seq}, 0) // the publisher trivially has its own message
	n.cfg.Obs.Inc(obs.CPublishSent)
	n.cfg.Obs.TraceEvent("topic_publish", int32(n.id), seq)
	n.openSetRow(n.registerPublish(seq, nil, payload, o.size, o.pri, now), seq, rowHandoff, topic, n.topicRendezvous(topic, now), now)
}

// sendTopicTree sends one copy of tmpl — a dissemination copy less its
// destination — per branch of the tree over subs: to the branch's child,
// carrying the child's subtree in RoutingTable.
func (n *Node) sendTopicTree(tmpl wire.Message, subs []overlay.PeerID) {
	branches := selectcore.TreeBranches(subs, topicFanout)
	for _, branch := range branches {
		tmpl.To, tmpl.RoutingTable = int32(branch[0]), branch[1:]
		n.send(tmpl.To, &tmpl)
	}
	n.cfg.Obs.Addn(obs.CTopicFanout, int64(len(branches)))
}

// ---- placement -------------------------------------------------------

// topicLive returns the liveness filter for rendezvous placement:
// ring members not currently under this node's dead-quarantine — the
// accrual detector's verdict is what re-homes a topic whose rendezvous
// died without the directory noticing yet.
func (n *Node) topicLive(now time.Time) func(overlay.PeerID) bool {
	return func(q overlay.PeerID) bool {
		t, dead := n.deadUntil[q]
		return !dead || now.After(t)
	}
}

// topicRendezvous computes the topic's current rendezvous set
// from the converged ring positions (R = InboxReplicas deep — the PR-7
// placement rule applied to the topic's hash position).
func (n *Node) topicRendezvous(topic string, now time.Time) []overlay.PeerID {
	return selectcore.Rendezvous(
		selectcore.TopicPos(topic), n.dir.ringMembers(), n.topicLive(now), n.cfg.InboxReplicas)
}

// TopicRendezvous returns the topic's rendezvous set as this node
// currently computes it (ops/tests surface; the selectcore equivalence
// test pins it against the simulator-side rule).
func (n *Node) TopicRendezvous(topic string) (set []overlay.PeerID) {
	n.do(func() { set = n.topicRendezvous(topic, time.Now()) })
	return set
}

// ---- subscriber side -------------------------------------------------

// topicRegister opens a fresh registration row for a subscribed topic and
// runs its first round against set, the topic's rendezvous set now; the
// open row, if any, retires first, so a member that stays silent holds
// back no one's lease. Stamps lastSub and caches the set for re-home
// detection.
func (n *Node) topicRegister(topic string, ts *topicSub, set []overlay.PeerID, now time.Time) {
	if st := n.pubs[ts.row]; st != nil {
		n.retire(ts.row, st)
	}
	ts.row, ts.lastSub, ts.set = n.nextSeq(), now, set
	n.openSetRow(n.registerPublish(ts.row, nil, nil, 0, 0, now), ts.row, rowRegister, topic, slices.Clone(set), now)
}

// topicMaintain runs on the maintain tick: lease refreshes (a round at
// once after a rendezvous-set change), registry expiry, and registry
// transfer by peers that lost ownership.
func (n *Node) topicMaintain() {
	if !n.repairEnabled() {
		return
	}
	now := time.Now()
	// Subscriber role: a fresh registration row at lease/2; when the set
	// changed, the open row's next round now, or a fresh row if none is
	// open.
	for topic, ts := range n.subTopics {
		if ts.implicit {
			continue
		}
		set := n.topicRendezvous(topic, now)
		moved := !slices.Equal(ts.set, set)
		if moved && ts.set != nil {
			n.cfg.Obs.Inc(obs.CTopicRehome)
			n.cfg.Obs.TraceEvent("topic_rehome", int32(n.id), 0)
		}
		st := n.pubs[ts.row]
		switch {
		case now.Sub(ts.lastSub) >= n.cfg.TopicLease/2 || (moved && st == nil):
			n.topicRegister(topic, ts, set, now)
		case moved:
			ts.set = set
			n.retryDirect(ts.row, st, nil, now)
		}
	}
	// Rendezvous role: expire silent registrations, and carry a registry
	// this node no longer owns to the current set in a transfer row; the
	// registry goes when the row retires.
	for topic, reg := range n.topicReg {
		for sub, exp := range reg {
			if now.After(exp) {
				delete(reg, sub)
				n.cfg.Obs.Inc(obs.CTopicLeaseExpire)
			}
		}
		if len(reg) == 0 {
			delete(n.topicReg, topic)
			continue
		}
		set := n.topicRendezvous(topic, now)
		if len(set) == 0 || slices.Contains(set, n.id) || n.transferring(topic) {
			continue
		}
		// Ownership moved (an Algorithm-2 ID move or membership change).
		seq := n.nextSeq()
		n.openSetRow(n.registerPublish(seq, nil, nil, 0, 0, now), seq, rowTransfer, topic, set, now)
		n.cfg.Obs.Inc(obs.CTopicHandoff)
		n.cfg.Obs.TraceEvent("topic_handoff", int32(n.id), seq)
	}
	n.sweepUnsubbed(now)
}

// transferring reports whether a transfer row carries topic's registry.
func (n *Node) transferring(topic string) bool {
	for _, st := range n.pubs {
		if st.class == rowTransfer && st.topic == topic {
			return true
		}
	}
	return false
}

// ---- set rows --------------------------------------------------------

// openSetRow makes st, the fresh row seq, a set row of class on topic
// (DESIGN.md §9.1) and runs its first round against set, which it takes.
func (n *Node) openSetRow(st *pubState, seq uint32, class uint8, topic string, set []overlay.PeerID, now time.Time) {
	st.class, st.topic = class, topic
	st.accepted = make([]overlay.PeerID, 0, n.cfg.InboxReplicas)
	if missing, _ := n.setRound(seq, st, set, now); len(missing) > 0 {
		n.sendSet(seq, st, missing, now)
	} else {
		n.resolveAck(seq)
	}
	n.kickRetry()
}

// setRound is the membership half of every round of set row seq, the
// first and each retry: its destinations are set, the topic's live
// rendezvous set as it stands now, and this node, once it is one of them,
// accepts on the spot — it accepts a hand-off for fan-out, registers
// itself, or keeps the registry it holds. It returns the members that
// have not accepted, in set's storage, and whether any member has.
func (n *Node) setRound(seq uint32, st *pubState, set []overlay.PeerID, now time.Time) (missing []overlay.PeerID, anyAccepted bool) {
	missing = set[:0]
	for _, rep := range set {
		if rep == n.id && !slices.Contains(st.accepted, rep) {
			st.accepted = append(st.accepted, rep)
			switch st.class {
			case rowHandoff:
				n.acceptTopicPub(msgID{int32(n.id), seq}, st.topic, st.payload, st.size, st.pri)
			case rowRegister:
				delete(n.unsubbed, unsubKey{st.topic, n.id})
				n.registerTopicSub(st.topic, n.id, now)
			}
		}
		if slices.Contains(st.accepted, rep) {
			anyAccepted = true
		} else {
			missing = append(missing, rep)
		}
	}
	return missing, anyAccepted
}

// sendSet is the other half of a round of set row seq: one frame to each
// member in to — the publication (KindTopicPub, Target -1), the
// registration (KindTopicSub) or the registry's live entries
// (KindTopicHandoff, in RoutingTable).
func (n *Node) sendSet(seq uint32, st *pubState, to []overlay.PeerID, now time.Time) {
	m := wire.Message{Kind: wire.KindTopicSub, From: int32(n.id), Seq: seq, Topic: []byte(st.topic)}
	switch st.class {
	case rowHandoff:
		m.Kind, m.Publisher, m.Target, m.TTL = wire.KindTopicPub, int32(n.id), -1, n.cfg.TTL
		m.Priority, m.PayloadSize, m.Payload = st.pri, st.size, st.payload
	case rowTransfer:
		m.Kind, m.RoutingTable = wire.KindTopicHandoff, n.registrySubs(st.topic, now, -1)
	}
	for _, rep := range to {
		m.To = int32(rep)
		n.send(m.To, &m)
	}
}

// ackAccept answers set-row frame m with this member's acceptance: an
// entry of kind, straight back to the row's owner on the ack-batch path.
func (n *Node) ackAccept(kind wire.Kind, m *wire.Message) {
	n.directAck(wire.AckEntry{Kind: kind, From: int32(n.id), Dest: m.From, Pub: m.From, Seq: m.Seq})
}

// ---- rendezvous side -------------------------------------------------

// registerTopicSub records (or refreshes) one subscriber lease.
func (n *Node) registerTopicSub(topic string, sub overlay.PeerID, now time.Time) {
	reg := n.topicReg[topic]
	if reg == nil {
		reg = make(map[overlay.PeerID]time.Time)
		n.topicReg[topic] = reg
	}
	reg[sub] = now.Add(n.cfg.TopicLease)
}

// unsubKey names one departed subscription, and unsubscribed is what its
// rendezvous peers and inbox replicas remember of it (DESIGN.md §13): the
// Seq of the TopicUnsub and how long the memory lasts. While it lasts,
// whatever was sent for the pair before the subscriber left and arrives
// after — a registration with an older Seq, a hand-off entry, a deposit —
// is dropped (topic_unsub_late) instead of undoing the unsubscribe. Only
// a TopicSub the subscriber itself sent later — its Seq is monotone —
// lifts it.
type unsubKey struct {
	topic string
	sub   overlay.PeerID
}

type unsubscribed struct {
	seq   uint32
	until time.Time
}

// unsubbedMax bounds Node.unsubbed, which otherwise holds one entry per
// TopicUnsub received in the last unsubMemory: at the bound lapsed entries
// are swept, and if none had lapsed the new one is not recorded — the
// unsubscribe itself still takes effect.
const unsubbedMax = 4096

// unsubMemory is how long an unsubscribe is remembered: long enough for a
// frame in flight when it arrived and for one more retry round of a
// sender it did not reach (rounds are at most RetryMax apart).
func (n *Node) unsubMemory() time.Duration { return 2 * n.cfg.RetryMax }

// unsubLate reports whether (topic, sub) is remembered as unsubscribed,
// and counts the frame that asked as late when it is.
func (n *Node) unsubLate(topic string, sub overlay.PeerID, now time.Time) bool {
	u, ok := n.unsubbed[unsubKey{topic, sub}]
	if !ok || now.After(u.until) {
		return false
	}
	n.cfg.Obs.Inc(obs.CTopicUnsubLate)
	return true
}

func (n *Node) sweepUnsubbed(now time.Time) {
	for k, u := range n.unsubbed {
		if now.After(u.until) {
			delete(n.unsubbed, k)
		}
	}
}

// dropTopicSub is the receiving end of an unsubscribe (Seq seq) — also on
// the subscriber itself, where it holds one of the roles: forget the
// registration, cancel the repair and the replay still owed to sub, purge
// its journaled deposits, and remember all that for a while.
func (n *Node) dropTopicSub(topic string, sub overlay.PeerID, seq uint32, now time.Time) {
	if len(n.unsubbed) >= unsubbedMax {
		n.sweepUnsubbed(now)
	}
	if len(n.unsubbed) < unsubbedMax {
		if n.unsubbed == nil {
			n.unsubbed = make(map[unsubKey]unsubscribed)
		}
		n.unsubbed[unsubKey{topic, sub}] = unsubscribed{seq: seq, until: now.Add(n.unsubMemory())}
	}
	if reg := n.topicReg[topic]; reg != nil {
		delete(reg, sub)
		if len(reg) == 0 {
			delete(n.topicReg, topic)
		}
	}
	// Cancel repair still owed to the departed subscriber: publications
	// retrying toward it must neither keep re-sending nor deposit fresh
	// journal entries after the purge below.
	for rseq, st := range n.pubs {
		if st.class != rowReplica || st.topic != topic {
			continue
		}
		if i := slices.Index(st.subs, sub); i >= 0 {
			st.subs = slices.Delete(st.subs, i, i+1)
			delete(st.dep, sub)
			n.resolveAck(rseq)
		}
	}
	if !n.inboxOn() {
		return
	}
	// Records of the departed topic leave the outstanding replay batch and
	// are not sent again; what is left of the batch still waits for its
	// acks, and the pump moves on once there is nothing left.
	if rs := n.replay[sub]; rs != nil {
		rs.out = slices.DeleteFunc(rs.out, func(r inbox.Record) bool { return string(r.Topic) == topic })
	}
	dropped, err := n.sh.ibx.PurgeTopic(int32(n.id), int32(sub), []byte(topic))
	if err != nil {
		n.cfg.Obs.TraceEvent("inbox_journal_err", int32(n.id), uint32(sub))
	}
	n.cfg.Obs.Addn(obs.CTopicPurged, int64(dropped))
	n.pumpReplay(sub, now)
}

// registrySubs snapshots the topic's live-lease subscribers,
// excluding the origin publisher and this node itself (the rendezvous
// delivers to itself locally, not through the tree).
func (n *Node) registrySubs(topic string, now time.Time, excl int32) []overlay.PeerID {
	reg := n.topicReg[topic]
	subs := make([]overlay.PeerID, 0, len(reg))
	for sub, exp := range reg {
		if sub == n.id || int32(sub) == excl || now.After(exp) {
			continue
		}
		subs = append(subs, sub)
	}
	return subs
}

func (n *Node) handleTopicSub(m *wire.Message) {
	n.cfg.Obs.Inc(obs.CTopicSub)
	topic, sub, now := string(m.Topic), overlay.PeerID(m.From), time.Now()
	if u, ok := n.unsubbed[unsubKey{topic, sub}]; ok && int32(m.Seq-u.seq) > 0 {
		delete(n.unsubbed, unsubKey{topic, sub}) // subscribed again, later
	} else if n.unsubLate(topic, sub, now) {
		return
	}
	n.registerTopicSub(topic, sub, now)
	n.ackAccept(wire.KindTopicSubAck, m)
}

func (n *Node) handleTopicUnsub(m *wire.Message) {
	n.cfg.Obs.Inc(obs.CTopicUnsub)
	n.dropTopicSub(string(m.Topic), overlay.PeerID(m.From), m.Seq, time.Now())
}

func (n *Node) handleTopicHandoff(m *wire.Message) {
	now := time.Now()
	topic := string(m.Topic)
	for _, sub := range m.RoutingTable {
		if overlay.PeerID(sub) == n.id || n.unsubLate(topic, overlay.PeerID(sub), now) {
			continue
		}
		// Adopt with a fresh lease; the subscriber's own refresh corrects
		// the expiry within a lease period.
		n.registerTopicSub(topic, overlay.PeerID(sub), now)
	}
	n.ackAccept(wire.KindTopicSubAck, m)
}

// handleTopicPub dispatches one TopicPub copy: Target < 0 is the
// publisher→rendezvous hand-off, Target >= 0 a dissemination copy for
// this subscriber (with its subtree to forward on).
func (n *Node) handleTopicPub(m *wire.Message) {
	if overlay.PeerID(m.To) != n.id {
		return
	}
	if m.Target < 0 {
		n.acceptTopicPub(msgID{m.Publisher, m.Seq}, string(m.Topic), m.Payload, m.PayloadSize, m.Priority)
		// Ack the hand-off whether fresh or duplicate — the publisher
		// retries until every live rendezvous member confirmed.
		n.ackAccept(wire.KindTopicPubAck, m)
		return
	}
	n.deliverTopicCopy(m)
}

// acceptTopicPub is the rendezvous accept path: register the
// publication in the repair engine against the current registry and —
// when this node is the set's primary — fan it down the dissemination
// tree. Standbys skip the immediate tree wave and let their repair
// schedule re-send directly to whoever the primary's wave missed. The
// state records the set's other members: subscribers ack the replica
// that stamped their copy, and that replica passes the acks on to them
// (consumeAck), so one ack settles both. Acks that arrived before the
// hand-off already count: a state they settle whole resolves here. The
// row keeps a copy of payload: a hand-off's payload is a view of its
// inbound Message, which is recycled when the handler returns.
func (n *Node) acceptTopicPub(origin msgID, topic string, payload []byte, size uint32, pri uint8) {
	if !n.repairEnabled() {
		return
	}
	if _, dup := n.tpOrigin[origin]; dup {
		return
	}
	payload = slices.Clone(payload)
	now := time.Now()
	n.cfg.Obs.Inc(obs.CTopicPubRecv)
	subs := n.registrySubs(topic, now, origin.Publisher)
	rseq := n.nextSeq()
	bseed := selectcore.RepairSeed(n.cfg.Seed, origin.Publisher, origin.Seq)
	st := &pubState{
		class: rowReplica, subs: subs, payload: payload, size: size, pri: pri,
		bseed: bseed, origin: origin, topic: topic,
	}
	set := n.topicRendezvous(topic, now)
	primary := len(set) > 0 && set[0] == n.id
	st.peers = slices.DeleteFunc(set, func(p overlay.PeerID) bool { return p == n.id })
	delayStep := 0
	if !primary {
		delayStep = 1 // let the primary's wave land first
	}
	st.nextAt = now.Add(n.backoff().Delay(bseed, delayStep))
	n.pubs[rseq] = st
	n.tpOrigin[origin] = rseq
	// Local delivery when the rendezvous itself subscribes (it is not in
	// the tree). The other replicas count it among their subscribers. A
	// standby gets the primary's tree copy and acks that; the primary gets
	// no copy from anyone, so it acks the standbys itself.
	if ts := n.subTopics[topic]; ts != nil && origin.Publisher != int32(n.id) && n.rememberDelivery(origin, 0) {
		n.cfg.Obs.Inc(obs.CTopicDelivered)
		n.notify(ts, Delivery{
			Publisher: overlay.PeerID(origin.Publisher), Topic: topic,
			Seq: origin.Seq, Priority: pri, Payload: payload,
		})
		for _, p := range st.peers {
			if primary {
				n.bufferAck(p, wire.AckEntry{
					Kind: wire.KindAck, From: int32(n.id), Dest: int32(p),
					Pub: origin.Publisher, Seq: origin.Seq, TTL: n.cfg.TTL,
				}, false)
			}
		}
	}
	if primary {
		n.sendTopicTree(wire.Message{
			Kind: wire.KindTopicPub, From: int32(n.id),
			Seq: origin.Seq, Publisher: origin.Publisher, Target: int32(n.id),
			Priority: pri, PayloadSize: size, Payload: payload,
			Topic: []byte(topic), TTL: n.cfg.TTL,
		}, subs)
	}
	n.cfg.Obs.TraceEvent("topic_accept", int32(n.id), origin.Seq)
	n.resolveAck(rseq)
	n.kickRetry()
}

// deliverTopicCopy is the subscriber path of a dissemination-tree (or
// repair) copy: deliver locally, forward the carried subtree with bounded
// fanout, and ack the replica that stamped the copy (Target) — the one
// ack this copy costs; that replica passes it on to the rest of its
// rendezvous set. The subtree is forwarded also when this node's own copy
// is a duplicate, as a friend-feed relay does (handlePublish): the peers
// below it are still owed theirs. A subscribing standby is the usual case
// — the publisher's hand-off reaches it before the primary's tree copy
// does, and it delivers on the hand-off. Nothing on this path allocates
// but the split of the subtree (selectcore.TreeBranches): the delivery and
// the copies are views of m.
func (n *Node) deliverTopicCopy(m *wire.Message) {
	id := msgID{m.Publisher, m.Seq}
	if !n.rememberDelivery(id, m.HopCount) {
		n.cfg.Obs.Inc(obs.CPublishDuplicate)
	} else if ts := n.subTopics[string(m.Topic)]; ts != nil {
		n.cfg.Obs.Inc(obs.CTopicDelivered)
		n.cfg.Obs.ObserveHops(float64(m.HopCount))
		n.cfg.Obs.TraceEvent("topic_deliver", int32(n.id), m.Seq)
		n.notify(ts, Delivery{
			Publisher: overlay.PeerID(m.Publisher), Topic: ts.sub.topic,
			Seq: m.Seq, Hops: m.HopCount, Priority: m.Priority,
			Payload: m.Payload,
		})
	}
	if len(m.RoutingTable) > 0 {
		n.sendTopicTree(wire.Message{
			Kind: wire.KindTopicPub, From: int32(n.id),
			Seq: m.Seq, Publisher: m.Publisher, Target: m.Target,
			Priority: m.Priority, PayloadSize: m.PayloadSize, Payload: m.Payload,
			Topic: m.Topic, TTL: n.cfg.TTL, HopCount: m.HopCount + 1,
		}, m.RoutingTable)
	}
	if rep := overlay.PeerID(m.Target); rep != n.id && n.dir.valid(rep) {
		n.directAck(wire.AckEntry{
			Kind: wire.KindAck, From: int32(n.id), Dest: m.Target,
			Pub: m.Publisher, Seq: m.Seq, TTL: n.cfg.TTL,
		})
	}
}

// TopicSubscribers reports the topic's registry size at this node
// (rendezvous role; ops/tests surface).
func (n *Node) TopicSubscribers(topic string) (k int) {
	n.do(func() { k = len(n.topicReg[topic]) })
	return k
}

// PendingTopicPublishes reports how many topic hand-offs are still
// unresolved on this node (publisher role): its rows of class rowHandoff.
func (n *Node) PendingTopicPublishes() int { return n.pendingRows(rowHandoff, rowHandoff) }
