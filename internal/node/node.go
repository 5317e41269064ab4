// Package node is the live deployment of a SELECT overlay: peers speak
// the wire protocol over a transport (in-memory switchboard or real TCP
// loopback sockets), scheduled on S sharded event loops — each shard owns
// a hashed timer wheel and a multiplexed mailbox for all its nodes
// (shard.go, DESIGN.md §11) — so one process hosts thousands of live
// peers without one goroutine per peer. It corresponds to the paper's
// "realistic experiments" runtime (§IV-D), where the simulator is
// replaced by actual message passing.
//
// Unlike earlier revisions, the runtime is no longer handed a frozen
// overlay: each node owns its routing state and maintains it live with
// the same decision rules the simulator converges with (selectcore):
//
//   - directed publication forwarding (§III-E): the publisher sends one
//     frame per next hop, naming the subscribers that lie beyond it;
//     intermediate nodes split the set again, routing greedily with only
//     their own links and their cached lookahead (route.go);
//   - the peer-sampling exchange (Algorithms 3–4): nodes periodically send
//     their neighborhood and routing table to a random friend and receive
//     the mutual-friend count — from which they learn social strength —
//     and the friend's routing table; each end reads the other's link
//     bitmap over its own neighborhood from the table it receives, which
//     feeds the LSH link reassignment;
//   - live maintenance (Algorithms 1–2, 5–6): joins are placed next to
//     their inviter, identifiers periodically move to the midpoint of the
//     two strongest friends, and long-range links are rebuilt from LSH
//     buckets over the learned bitmaps, with incoming-degree capping and
//     bandwidth eviction (maintain.go);
//   - heartbeats feeding per-link CMA availability (§III-F).
package node

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"selectps/internal/churn"
	"selectps/internal/inbox"
	"selectps/internal/lsh"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
	"selectps/internal/socialgraph"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// msgID identifies a publication.
type msgID struct {
	Publisher int32
	Seq       uint32
}

// Delivery is one first-time publication delivery as the application
// sees it: who published, on which topic (the publisher's implicit
// UserTopic for friend-feed publications), and the payload with its
// routing and durability metadata. Payload is a view of the Message that
// brought it — for a replayed publication a container of up to
// replayBatchBytes shared with the rest of its batch — and is valid only
// during the callback: the Message is recycled when the handler returns,
// so a handler that keeps the bytes copies them.
type Delivery struct {
	Publisher overlay.PeerID
	Topic     string
	Seq       uint32
	Hops      uint8
	Priority  uint8
	Payload   []byte
}

// DeliverFunc is the push handler for first-time publication deliveries.
type DeliverFunc func(d Delivery)

// Node is one live peer. Its fields below the configuration block are
// touched only on the goroutine of the shard it is pinned to — handlers,
// timer bodies and the commands the exported API posts (shard.go) — with
// three exceptions, all atomic: paused, which the ingress edge reads, and
// seq and onDeliver, which Publish and OnDeliver serve without a trip
// through the loop.
type Node struct {
	id  overlay.PeerID
	g   *socialgraph.Graph
	dir *directory
	tr  transport.Transport
	// out is the Message every send hands the transport (send), and
	// claims, group, acks, linkList, bitmap and announce back the lists of
	// the frames built in them: node-owned, so that a frame built on a
	// handler's stack costs no allocation when it goes through the
	// interface call (DESIGN.md §15.1). linkList is R_p as an exchange, its
	// reply or a join reply carries it, bitmap the friendship bitmap
	// learnLinks derives, announce the destinations of an IDAnnounce.
	out      wire.Message
	claims   ringClaims
	group    [wire.MaxPublishDests]int32
	acks     [ackBatchMax]wire.AckEntry
	linkList []overlay.PeerID
	bitmap   []uint64
	announce []overlay.PeerID
	cfg      Options
	rng      *rand.Rand
	hasher   *lsh.Hasher
	// sampler picks gossip-exchange partners: a PeerSwap-style swap
	// sampler (selectcore) with private seeded state, so exchange-partner
	// choice is uniform with bounded gaps and cannot be steered by
	// inbound traffic advancing the general-purpose rng.
	sampler *selectcore.Sampler
	bw      []float64 // shared, read-only

	// Live routing state: ring membership, short-range ring neighbors and
	// the two directed long-link sets (R_p = short ∪ longOut ∪ longIn).
	joined               bool
	wantJoin             bool
	inviterPref          overlay.PeerID
	shortSucc, shortPred overlay.PeerID
	longOut, longIn      []overlay.PeerID
	pendingOut           map[overlay.PeerID]bool
	// refused remembers targets whose incoming cap answered a proposal
	// with LinkDrop, and mtick counts maintain ticks — the clock that
	// memory backs off on (maintain.go, DESIGN.md §8.2).
	refused map[overlay.PeerID]refusal
	mtick   uint32
	// Learned social state (Algorithm 3–4): strength[i] is the tie to
	// C_p[i], -1 until an exchange reply carried its mutual count;
	// bitmaps[f] is f's link bitmap over C_p, derived from the latest
	// routing table f sent (learnLinks) and kept in the storage of the one
	// before. feedTopics[i] is UserTopic(C_p[i]), named once for every
	// delivery of that friend's feed.
	strength   []float64
	bitmaps    map[overlay.PeerID][]uint64
	fidx       map[overlay.PeerID]int
	feedTopics []string
	// rview is the decentralized r-deep successor/predecessor view the
	// ring links come from (ringlist.go); the directory's ringNeighbors
	// scan is bootstrap-only.
	rview ringView
	// received records local deliveries with their hop count, bounded
	// FIFO (dedupWindow).
	received recvWindow
	// lookahead caches neighbors' routing tables learned from exchanges,
	// their replies and join replies, each table in the storage of the one
	// before.
	lookahead map[overlay.PeerID][]overlay.PeerID
	// cma tracks per-link availability from heartbeats, by value so that
	// a new link costs no allocation; miss is the consecutive-miss streak
	// and suspectAt when suspicion started — the accrual failure
	// detector's evidence (repair.go).
	cma       map[overlay.PeerID]churn.CMA
	miss      map[overlay.PeerID]int
	suspectAt map[overlay.PeerID]time.Time
	// deadUntil quarantines evicted-dead peers: piggybacked successor
	// lists and ID announcements from third parties must not resurrect a
	// peer this node just declared dead. First-person evidence (a pong or
	// the peer's own announcement) clears it.
	deadUntil map[overlay.PeerID]time.Time
	// linkRepairStart queues eviction times of dead long links awaiting a
	// replacement LinkAccept, feeding the time-to-repair histogram.
	linkRepairStart []time.Time
	// pendingPings: seq -> target of pings not yet answered.
	pendingPings map[uint32]overlay.PeerID
	// acked records publication acks seen by this node (publisher role),
	// bounded FIFO (pubHistory).
	acked ackHistory
	// pubs is the delivery-repair engine's table, one row per thing this
	// node owes someone — its own feed post, a topic publication it
	// accepted as rendezvous replica, its own topic hand-off, its own
	// registration, a registry it no longer owns (repair.go); deadline
	// changes re-arm the shard wheel via kickRetry.
	pubs        repairTable
	deadLetters []DeadLetter
	// Durable delivery tier state (inbox.go): claim is the subscriber's
	// in-flight lease cycle, replay the replica-side drains keyed by
	// target, claimEpoch the seed that varies the lease order per cycle.
	// claimHave is the digest the cycle's next claim carries: one entry
	// per record replayed to this node since the cycle opened, by
	// whichever replica, up to claimDigestMax; it goes when the cycle
	// closes.
	claim      *claimState
	replay     drains
	claimEpoch uint32
	claimHave  []wire.AckEntry
	// Topic tier state (topic.go): subTopics is this node's own
	// subscriptions, topicReg the rendezvous-side subscriber registry, and
	// tpOrigin maps an accepted publication's origin id to the local
	// repair seq its replica row is keyed by (the ack/deposit correlation
	// for rows whose owner is not the origin publisher). The publisher's
	// hand-offs, the subscriber's registrations and a lost registry's
	// transfer are rows of pubs.
	// unsubbed remembers recent unsubscribes on the peers that were told of
	// them, bounded by unsubbedMax.
	subTopics map[string]*topicSub
	topicReg  map[string]*registry
	tpOrigin  map[msgID]uint32
	unsubbed  map[unsubKey]unsubscribed
	// Placement and tree storage (topic.go, inbox.go): members is the
	// directory's membership as a placement pass reads it, rvSet the
	// rendezvous set topicRendezvous returns — valid until its next call —
	// replicas an inbox replica set, and treeOrder and treeBranches the
	// split of a subtree into branches.
	members      []selectcore.RingMember
	rvSet        []overlay.PeerID
	replicas     []overlay.PeerID
	treeOrder    []overlay.PeerID
	treeBranches [][]overlay.PeerID
	// Hardened admission state (adversary.go): the last granted join per
	// identity (the re-join cooldown cache, time + assigned position) and
	// the sliding window of friend-arc placements this inviter made.
	joinAdmits map[overlay.PeerID]joinGrant
	arcGrants  []time.Time
	// Adversary hooks (adversary.go): the soak driver mirrors faultnet's
	// scheduled attack windows onto these; honest nodes keep AdvNone.
	advMode   AdversaryMode
	advTarget overlay.PeerID
	advCohort []overlay.PeerID
	advRank   int
	// joinNext/joinAttempt schedule join-request resends on the repair
	// timer; joinedCh closes when the node becomes a ring member.
	joinNext    time.Time
	joinAttempt int
	joinedCh    chan struct{}
	// exchanges counts completed Algorithm-3 rounds (active side).
	exchanges int
	// seq numbers everything this node originates; Publish draws from it on
	// the caller's goroutine. onDeliver is the node-level push handler.
	seq       atomic.Uint32
	onDeliver atomic.Pointer[DeliverFunc]
	// Maintain-round scratch (maintain.go): the Algorithm-5 index and one
	// friend's coordinates, a bucket's askable and linked members, the
	// uncovered friends, and Algorithm 2's strength row.
	idx        selectcore.Indexer
	coords     []int
	askScratch []int32
	linked     []int32
	uncovered  []int32
	row        []float64

	// Ack batching (DESIGN.md §15.1, ackbatch.go): ackBuckets holds the
	// buffered ack entries, one bucket per next hop in order of first use,
	// each with its own deadline; any frame sent to a bucket's hop takes
	// its entries along. ackFlushAt is when the node's one tkAckFlush
	// wheel entry fires (zero: not armed): the earliest deadline, pulled
	// in by an earlier one and never pushed out (armAckFlush).
	ackBuckets []ackBucket
	ackFlushAt time.Time
	// Heartbeat piggybacking and the one probe per link (DESIGN.md §15.2):
	// lastHeard stamps the most recent inbound non-heartbeat frame per peer
	// (liveness evidence), probes is what the sweep keeps per link
	// (linkProbe).
	hbPiggyback bool
	lastHeard   map[overlay.PeerID]time.Time
	probes      map[overlay.PeerID]linkProbe
	// Liveness cadence (cadence.go, DESIGN.md §15.2): the heartbeat and
	// gossip timers each run at base<<level.
	hb, gs cadenceTimer
	// hbFold marks the next heartbeat fire as the fold point of a
	// backed-off sweep — one base interval after its probes — and
	// hbSweepAt is the deadline the sweep after that keeps if every pong
	// came home; hbSwept is when the last sweep ran, the horizon of
	// piggybacked liveness. gsRounds is the sampler pass the gossip
	// cadence last closed.
	hbFold             bool
	hbSweepAt, hbSwept time.Time
	gsRounds           int

	// paused simulates an unresponsive peer (churn): incoming messages are
	// consumed and dropped, nothing is sent.
	paused atomic.Bool

	// sh is the event-loop shard this node is pinned to (shard.go): all
	// its timers fire and all its inbound messages are handled there.
	sh *shard
}

// newNode wires a node; Start pins it to a shard and arms its wheel
// entries (shard.go).
func newNode(id overlay.PeerID, dir *directory, bw []float64, cfg Options, seed int64) *Node {
	friends := cfg.Graph.Neighbors(id)
	buckets := cfg.K
	if buckets < 1 {
		buckets = 1
	}
	n := &Node{
		id: id, g: cfg.Graph, dir: dir, tr: cfg.Transport, cfg: cfg,
		rng:          rand.New(rand.NewSource(seed)),
		hasher:       lsh.NewHasher(len(friends), buckets, 0, rand.New(rand.NewSource(seed^0x15b))),
		sampler:      selectcore.NewSampler(friends, selectcore.SamplerSeed(seed, int32(id))),
		bw:           bw,
		inviterPref:  -1,
		shortSucc:    -1,
		shortPred:    -1,
		rview:        newRingView(cfg.HeartbeatEvery),
		pendingOut:   make(map[overlay.PeerID]bool),
		refused:      make(map[overlay.PeerID]refusal),
		hb:           cadenceTimer{kind: tkHeartbeat, base: cfg.HeartbeatEvery},
		gs:           cadenceTimer{kind: tkGossip, base: cfg.GossipEvery},
		strength:     make([]float64, len(friends)),
		bitmaps:      make(map[overlay.PeerID][]uint64),
		fidx:         make(map[overlay.PeerID]int, len(friends)),
		feedTopics:   make([]string, len(friends)),
		lookahead:    make(map[overlay.PeerID][]overlay.PeerID),
		cma:          make(map[overlay.PeerID]churn.CMA),
		miss:         make(map[overlay.PeerID]int),
		suspectAt:    make(map[overlay.PeerID]time.Time),
		deadUntil:    make(map[overlay.PeerID]time.Time),
		pendingPings: make(map[uint32]overlay.PeerID),
		pubs:         repairTable{rows: make(map[uint32]*pubState)},
		subTopics:    make(map[string]*topicSub),
		topicReg:     make(map[string]*registry),
		tpOrigin:     make(map[msgID]uint32),
		joinedCh:     make(chan struct{}),
	}
	for i := range n.strength {
		n.strength[i] = -1
	}
	for i, f := range friends {
		n.fidx[f] = i
		n.feedTopics[i] = UserTopic(f)
	}
	n.hbPiggyback = cfg.HeartbeatEvery > 0
	if n.hbPiggyback {
		n.lastHeard = make(map[overlay.PeerID]time.Time)
		n.probes = make(map[overlay.PeerID]linkProbe)
	}
	return n
}

func (n *Node) nextSeq() uint32 { return n.seq.Add(1) }

// send is the node's one way onto the network: m goes to peer `to` as a
// copy in n.out, so a Message built on the caller's stack stays there, and
// the transport copies n.out before it returns (transport.Transport) — m
// and the lists it names are the caller's again at once. A frame that may
// carry acks (carriesAcks) takes the entries buffered for `to` along in
// its Acks slot, and their bucket empties (DESIGN.md §15.1). A refused
// send is a lost frame like any other: the protocol repairs it (retries,
// acks, heartbeats), so the error is not looked at.
func (n *Node) send(to int32, m *wire.Message) {
	n.out = *m
	var b *ackBucket
	if len(n.ackBuckets) > 0 && n.carriesAcks(m) {
		if b = n.heldBucket(overlay.PeerID(to)); b != nil {
			n.out.Acks = b.acks
		}
	}
	_ = n.tr.Send(to, &n.out)
	if b != nil {
		n.cfg.Obs.Addn(obs.CAckPiggyback, int64(len(b.acks)))
		n.cfg.Obs.Inc(obs.CAckBatchSent)
		b.acks = b.acks[:0]
	}
}

func (n *Node) handle(m *wire.Message) {
	if n.hbPiggyback && m.From >= 0 && overlay.PeerID(m.From) != n.id &&
		m.Kind != wire.KindPing && m.Kind != wire.KindPong {
		// Any inbound non-heartbeat frame is liveness evidence for its
		// sender: the next heartbeat sweep skips pinging links that carried
		// traffic inside the interval (sendHeartbeats) instead of
		// generating a redundant ping/pong pair. Pings and pongs are
		// excluded: a ping stands in only for the reverse ping (below), and
		// a pong answers a probe this node sent.
		n.lastHeard[overlay.PeerID(m.From)] = time.Now()
	}
	if len(m.Acks) > 0 && m.Kind != wire.KindAckBatch && m.Kind != wire.KindInboxClaim {
		// Entries that rode a frame of another kind (send): consumed and
		// relayed before the frame's own handler, as if in a batch from
		// the hop that sent it — a publish frame's From is the publisher,
		// its hop is HopFrom.
		hop := overlay.PeerID(m.From)
		if m.Kind == wire.KindPublish {
			hop = overlay.PeerID(m.HopFrom())
		}
		if n.dir.valid(hop) && hop != n.id {
			n.handleAcks(m.Acks, hop)
		}
	}
	switch m.Kind {
	case wire.KindPing:
		if from := overlay.PeerID(m.From); n.hbPiggyback && from != n.id && n.dir.valid(from) {
			// The ping is this node's next probe of its sender, if the
			// sweep comes soon enough (sendHeartbeats).
			pr := n.probes[from]
			pr.pingAt = time.Now()
			n.probes[from] = pr
		}
		if n.joined && len(m.Succs) > 0 {
			n.learnPiggyback(n.dir.position(n.id), m)
		}
		n.sendPong(m)
	case wire.KindPong:
		n.cfg.Obs.Inc(obs.CPongReceived)
		if target, ok := n.pendingPings[m.Seq]; ok && target == overlay.PeerID(m.From) {
			delete(n.pendingPings, m.Seq)
			n.observe(target, true)
		} else {
			// Late pong (already counted as a miss at the last heartbeat
			// tick): the peer evidently is alive — record the recovery so
			// slow links do not read as dead ones.
			n.cfg.Obs.Inc(obs.CLatePongRecover)
			n.observe(overlay.PeerID(m.From), true)
		}
		if n.joined && len(m.Succs) > 0 {
			n.learnPiggyback(n.dir.position(n.id), m)
		}
	case wire.KindExchangeRT:
		n.handleExchange(m)
	case wire.KindExchangeReply:
		n.handleExchangeReply(m)
	case wire.KindPublish:
		n.handlePublish(m)
	case wire.KindAckBatch:
		n.handleAcks(m.Acks, overlay.PeerID(m.From))
	case wire.KindJoinRequest:
		n.handleJoinRequest(m)
	case wire.KindJoinReply:
		n.handleJoinReply(m)
	case wire.KindIDAnnounce:
		n.cfg.Obs.Inc(obs.CIDAnnounce)
		// A joined or moved peer announced its identifier: fold it into
		// the ring view so successor lists track Algorithm-2 moves.
		if n.joined {
			// The announcement comes from the peer itself — first-person
			// liveness evidence that overrides any dead-quarantine.
			delete(n.deadUntil, overlay.PeerID(m.From))
			n.learnRing(n.dir.position(n.id), overlay.PeerID(m.From),
				[]int32{m.From}, []uint64{m.Pos}, nil)
			n.refreshHeads()
			n.cadenceEvent(selectcore.CadenceMembership)
		}
	case wire.KindLinkProposal:
		n.handleLinkProposal(m)
	case wire.KindLinkAccept:
		n.handleLinkAccept(m)
	case wire.KindLinkDrop:
		n.handleLinkDrop(m)
	case wire.KindLeave:
		n.handleLeave(m)
	case wire.KindInboxDeposit:
		n.handleInboxDeposit(m)
	case wire.KindInboxClaim:
		n.handleInboxClaim(m)
	case wire.KindInboxLease:
		n.handleInboxLease(m)
	case wire.KindInboxReplay:
		n.handleInboxReplay(m)
	case wire.KindTopicSub:
		n.handleTopicSub(m)
	case wire.KindTopicUnsub:
		n.handleTopicUnsub(m)
	case wire.KindTopicPub:
		n.handleTopicPub(m)
	case wire.KindTopicHandoff:
		n.handleTopicHandoff(m)
	}
}

// links returns R_p (short ∪ longOut ∪ longIn, deduplicated) in a
// freshly allocated slice.
func (n *Node) links() []overlay.PeerID {
	return n.appendLinks(make([]overlay.PeerID, 0, 2+len(n.longOut)+len(n.longIn)))
}

// handleExchange is the passive thread of Algorithm 4: compare the
// received neighborhood with the local one, return the mutual count and
// this node's routing table, and learn the sender's links from the
// table it sent (learnLinks).
func (n *Node) handleExchange(m *wire.Message) {
	mine := n.g.Neighbors(n.id)
	theirs := m.Neighborhood
	mutual := n.liarMutual(countMutualSorted(mine, theirs), len(theirs))
	n.learnLinks(overlay.PeerID(m.From), m.RoutingTable)
	n.linkList = n.appendLinks(n.linkList[:0])
	n.send(m.From, &wire.Message{
		Kind: wire.KindExchangeReply, From: int32(n.id), To: m.From, Seq: m.Seq,
		NMutual:      int32(mutual),
		RoutingTable: n.linkList,
	})
}

// handleExchangeReply is the active thread's learning step: the mutual
// count yields the tie strength (selectcore.StrengthFromCounts — the
// same formula the simulator evaluates from graph reads), and the
// routing table the friend's lookahead and bitmap (learnLinks).
func (n *Node) handleExchangeReply(m *wire.Message) {
	n.cfg.Obs.Inc(obs.CGossipReply)
	from := overlay.PeerID(m.From)
	n.learnLinks(from, m.RoutingTable)
	if i, ok := n.fidx[from]; ok {
		if nm, sane := n.clampMutual(int(m.NMutual), from); sane {
			n.strength[i] = selectcore.StrengthFromCounts(n.g.Degree(n.id), n.g.Degree(from), nm)
		}
	}
	n.exchanges++
}

// learnLinks takes in q's routing table, whichever frame carried it (an
// exchange, its reply, a join reply): it becomes q's lookahead and, for a
// friend, yields Algorithm 4's friendship bitmap — bit i set when this
// node's i-th friend is in the table — which no frame carries (DESIGN.md
// §15.2). A changed bitmap means q's links changed, and whatever made q
// refuse a proposal may have changed with them (maintain.go). None of it
// is a cadence event: it changes what this node knows, not what its own
// exchanges carry. Both are copied into the storage of what they replace,
// since rt is recycled with its frame.
func (n *Node) learnLinks(q overlay.PeerID, rt []int32) {
	n.lookahead[q] = append(n.lookahead[q][:0], rt...)
	if _, ok := n.fidx[q]; !ok {
		return
	}
	bm := n.bitmap[:0]
	for i, f := range n.g.Neighbors(n.id) {
		if i%64 == 0 {
			bm = append(bm, 0)
		}
		if slices.Contains(rt, f) {
			bm[i/64] |= 1 << (i % 64)
		}
	}
	n.bitmap = bm
	if old, had := n.bitmaps[q]; !had || !slices.Equal(old, bm) {
		n.liftRefusal(q)
		n.bitmaps[q] = append(old[:0], bm...)
	}
}

// sendExchange is the active thread of Algorithm 3: draw the next social
// friend from the swap sampler and send it the neighborhood and routing
// table. Every friend is exchanged with exactly once per sampler round,
// so no tie strength goes stale longer than 2·deg−1 gossip ticks.
func (n *Node) sendExchange() {
	if n.adversaryGossip() {
		return
	}
	fi, ok := n.sampler.Next()
	if r := n.sampler.Rounds(); r != n.gsRounds {
		// One full sampler pass — every friend exchanged with once —
		// closes a gossip round: with no table change in it, every friend
		// holds the current table and gossip rests at the cap.
		n.gsRounds = r
		n.gs.Cadence = n.gs.Pass()
	}
	if !ok {
		return
	}
	f := overlay.PeerID(fi)
	n.cfg.Obs.Inc(obs.CGossipSent)
	n.linkList = n.appendLinks(n.linkList[:0])
	n.send(int32(f), &wire.Message{
		Kind: wire.KindExchangeRT, From: int32(n.id), To: int32(f), Seq: n.nextSeq(),
		Neighborhood: n.g.Neighbors(n.id),
		RoutingTable: n.linkList,
	})
}

// linkProbe is what the heartbeat sweep keeps per link (DESIGN.md
// §15.2): pingAt is when the link last pinged this node, and skip counts
// the link's consecutive data-suppressed sweeps, so that the ring's
// anti-entropy keeps a floor.
type linkProbe struct {
	pingAt time.Time
	skip   int
}

// sendHeartbeats is one heartbeat sweep: probe every link once;
// unanswered pings from the previous sweep count as offline observations
// (§III-F probes). After folding the misses the accrual detector sweep
// runs — dead links are evicted and repaired before the next pings go out
// (repair.go) — and the sweep closes one round of the liveness cadence
// (cadence.go).
func (n *Node) sendHeartbeats() {
	now := time.Now()
	// fresh reports whether q's traffic since the last sweep already
	// proved it alive (piggybacked liveness, DESIGN.md §15.2). The horizon
	// is the sweep interval actually elapsed, so it follows the cadence.
	cutoff := n.hbSwept
	if cutoff.IsZero() {
		cutoff = now.Add(-n.cfg.HeartbeatEvery)
	}
	n.hbSwept = now
	fresh := func(q overlay.PeerID) bool {
		return n.hbPiggyback && n.lastHeard[q].After(cutoff)
	}
	// probed reports whether q pinged this node since the last sweep and
	// inside the last base interval: that ping was this sweep's probe of q
	// (one probe per link per interval). The horizon stops at one base
	// interval so that a backed-off sweep cannot lean on a ping from most
	// of an interval ago, which would put off probing a peer that fell
	// silent after it by a whole backed-off interval.
	since := now.Add(-n.hb.base)
	if cutoff.After(since) {
		since = cutoff
	}
	probed := func(q overlay.PeerID) bool {
		return n.probes[q].pingAt.After(since)
	}
	missed := false
	for _, target := range n.pendingPings {
		if fresh(target) || probed(target) {
			// The pong never came but data frames or the peer's own ping
			// did: the link is alive, the miss would be pure noise. The
			// links loop below records the round's (single) online
			// observation.
			continue
		}
		n.cfg.Obs.Inc(obs.CHeartbeatMiss)
		n.observe(target, false)
		missed = true
	}
	if missed {
		n.cadenceEvent(selectcore.CadenceMiss)
	}
	clear(n.pendingPings)
	// Ring claims nobody re-confirmed lapse here (ringlist.go).
	if n.rview.prune(func(e ringEntry) bool { return !n.rview.lapsed(e.conf, now) }) {
		n.refreshHeads()
	}
	n.detectorSweep(now)
	n.cfg.Obs.Inc(obs.CHeartbeatSweep)
	if n.hb.Level() == 0 {
		n.cfg.Obs.Inc(obs.CHeartbeatSweepBase)
	}
	n.hb.Cadence = n.hb.Round()
	var linkBuf [routeLinksMax]overlay.PeerID
	links := n.appendLinks(linkBuf[:0])
	// Also probe the ring candidates: hearsay entries sitting ahead of the
	// firsthand heads. Their pong self-entry places them, so a nearer
	// neighbor becomes the head one round trip after it was first heard
	// of, and a stale claim is refuted by the peer it names. Candidates
	// are exempt from stand-ins and suppression (links[probe:]): only a
	// pong can verify them, so they always get a real ping.
	probe := len(links)
	for _, q := range n.rview.probation(n.dir.isMember) {
		if !slices.Contains(links, q) {
			links = append(links, q)
		}
	}
	// A ping carries its sender's ring lists the way a pong does, its own
	// position heading the successor side, so the probed peer learns the
	// prober first-hand — a node that moved in between two neighbours is
	// seen by them the moment it probes them — and one ping/pong pair runs
	// the ring's anti-entropy in both directions.
	ping := wire.Message{Kind: wire.KindPing, From: int32(n.id)}
	if n.joined {
		ping = n.rview.piggyback(ping, &n.claims, n.id, n.dir.position(n.id), now)
	}
	for i, q := range links {
		if i < probe {
			pr := n.probes[q]
			switch {
			case probed(q):
				// q probed this link since the last sweep, and its ping and
				// this node's pong carried both ring views: that exchange is
				// this sweep's probe of q, one online detector sample and a
				// re-stamped ring claim, for this sweep only. At worst the
				// two ends take turns pinging; they never both fall silent.
				pr.skip = 0
				n.probes[q] = pr
				n.observe(q, true)
				n.rview.confirm(q, now)
				n.cfg.Obs.Inc(obs.CHeartbeatProbed)
				continue
			case fresh(q) && pr.skip < hbSuppressMax:
				// Heartbeat piggybacking: the link moved data this interval,
				// so its ping would be redundant — fold the traffic as this
				// round's online sample instead (exactly one detector sample
				// per link per sweep, same as a pong). Every hbSuppressMax-th
				// sweep still pings: pings and pongs carry successor lists,
				// the ring's anti-entropy channel, which data frames do not.
				pr.skip++
				n.probes[q] = pr
				n.observe(q, true)
				n.rview.confirm(q, now)
				n.cfg.Obs.Inc(obs.CHeartbeatSuppress)
				continue
			case pr.skip != 0:
				pr.skip = 0
				n.probes[q] = pr
			}
		}
		ping.To, ping.Seq = int32(q), n.nextSeq()
		n.pendingPings[ping.Seq] = q
		n.cfg.Obs.Inc(obs.CHeartbeatSent)
		n.send(ping.To, &ping)
	}
}

// sendPong answers ping. Pongs piggyback the responder's successor/
// predecessor lists — the anti-entropy channel that keeps every
// heartbeating pair's ring views converging without extra messages.
func (n *Node) sendPong(ping *wire.Message) {
	m := wire.Message{Kind: wire.KindPong, From: int32(n.id), To: ping.From, Seq: ping.Seq}
	if ss, sp, ps, pp, forged := n.forgedRingClaim(); forged && overlay.PeerID(ping.From) == n.advTarget {
		// An armed eclipse attacker answers its victim's heartbeats with
		// the same forged flank claims its gossip tick pushes.
		m.Succs, m.SuccPos, m.Preds, m.PredPos = ss, sp, ps, pp
	} else if n.joined {
		m = n.rview.piggyback(m, &n.claims, n.id, n.dir.position(n.id), time.Now())
	}
	n.send(ping.From, &m)
}

// observe folds one availability sample for link q into the CMA and the
// consecutive-miss streak the failure detector classifies.
func (n *Node) observe(q overlay.PeerID, online bool) {
	c := n.cma[q]
	c.Observe(online)
	n.cma[q] = c
	if online {
		n.miss[q] = 0
		delete(n.suspectAt, q)
		delete(n.deadUntil, q)
	} else {
		n.miss[q]++
	}
}

// publishDests reads the destination set of an inbound KindPublish frame
// — To, then RoutingTable — into dests, which must be empty and hold
// wire.MaxPublishDests: the peers other than this node that the frame is
// still for, in frame order, and whether this node is named. The set is
// outside input. A frame that names more than the cap or a peer id this
// cluster does not have is dropped whole (ok false); a peer named twice
// counts once; both are counted. An armed eclipse attacker eats every
// destination but itself. (The frame's other outside input, the inbound
// hop, is handlePublish's.)
func (n *Node) publishDests(m *wire.Message, dests []overlay.PeerID) (_ []overlay.PeerID, named, ok bool) {
	malformed := len(m.RoutingTable) >= wire.MaxPublishDests ||
		!n.dir.valid(m.Publisher) || !n.dir.valid(m.To)
	for _, p := range m.RoutingTable {
		malformed = malformed || !n.dir.valid(p)
	}
	if malformed {
		n.cfg.Obs.Inc(obs.CPublishDestMalformed)
		return nil, false, false
	}
	twice := false
	add := func(p overlay.PeerID) {
		switch {
		case p == n.id:
			named = true
		case slices.Contains(dests, p):
			twice = true
		case !n.adversaryBlackhole(p):
			dests = append(dests, p)
		}
	}
	add(m.To)
	for _, p := range m.RoutingTable {
		add(p)
	}
	if twice {
		n.cfg.Obs.Inc(obs.CPublishDestMalformed)
	}
	return dests, named, true
}

// handlePublish processes a publication frame: deliver locally (and ack)
// when this node is named, then forward what remains of the destination
// set one hop on — whether or not the local copy was a duplicate, the
// peers beyond this one are still owed theirs — by any link but the one
// the frame came in on. That hop is the sender's word (wire.HopFrom) and
// outside input like the destination list: a frame that names a peer this
// cluster does not have, or the receiver, is dropped whole and counted; a
// frame that names none is routed without a split horizon; one that names
// a peer that is no link of this node excludes nothing. What a lie can
// cost is in DESIGN.md §14.1.
func (n *Node) handlePublish(m *wire.Message) {
	from := overlay.PeerID(m.HopFrom())
	if from != -1 && (!n.dir.valid(from) || from == n.id) {
		n.cfg.Obs.Inc(obs.CPublishHopMalformed)
		return
	}
	var destBuf [wire.MaxPublishDests]overlay.PeerID
	dests, named, ok := n.publishDests(m, destBuf[:0])
	if !ok {
		return
	}
	pub, seq := m.Publisher, m.Seq
	if named {
		id := msgID{pub, seq}
		topic := n.userTopic(overlay.PeerID(pub))
		if !n.received.add(id, m.HopCount) {
			n.cfg.Obs.Inc(obs.CPublishDuplicate)
		} else {
			n.cfg.Obs.Inc(obs.CPublishDelivered)
			n.cfg.Obs.ObserveHops(float64(m.HopCount))
			n.cfg.Obs.TraceEvent("deliver", int32(n.id), seq)
			n.notify(n.subTopics[topic], Delivery{
				Publisher: overlay.PeerID(pub), Topic: topic,
				Seq: seq, Hops: m.HopCount, Priority: m.Priority,
				Payload: m.Payload,
			})
		}
	}
	forwarded := len(dests) > 0 && m.TTL > 0
	switch {
	case forwarded:
		// The counters count copies — destinations — not frames.
		n.cfg.Obs.Addn(obs.CPublishForwarded, int64(len(dests)))
		n.fanOut(wire.Message{
			Kind: wire.KindPublish, From: m.From, Seq: seq, Publisher: pub,
			TTL: m.TTL - 1, HopCount: m.HopCount + 1,
			Priority: m.Priority, PayloadSize: m.PayloadSize, Payload: m.Payload,
		}, dests, from)
	case len(dests) > 0:
		n.cfg.Obs.Addn(obs.CPublishTTLDrop, int64(len(dests)))
		n.cfg.Obs.TraceEvent("ttl_drop", int32(n.id), seq)
	}
	// Ack back to the publisher (directed). The ack waits for company: the
	// acks of the peers beyond this one, or any frame leaving for its hop.
	if named && overlay.PeerID(pub) != n.id {
		n.queueAck(wire.AckEntry{
			Kind: wire.KindAck, From: int32(n.id), Dest: pub,
			Pub: pub, Seq: seq, TTL: n.cfg.TTL,
		}, m.HopCount)
	}
}

// Pause makes the node unresponsive (simulated churn departure). Pause
// and Resume flip the flag the ingress edge reads and take effect at
// once, not in call order with the calls that go through the loop.
func (n *Node) Pause() { n.paused.Store(true) }

// Resume brings a paused node back online.
func (n *Node) Resume() { n.paused.Store(false) }

// OnDeliver registers the node-level push handler called once per
// first-time publication delivery, on the node's shard loop. It receives
// every delivery a per-subscription handler (Subscription.OnDeliver)
// does not claim. The handler may call Publish; it must not call the
// parts of the API that wait for the loop (every getter, Subscribe,
// Crash, Join, ...), which would be waiting for itself. A nil handler
// disables the callback.
func (n *Node) OnDeliver(fn DeliverFunc) {
	if fn == nil {
		n.onDeliver.Store(nil)
		return
	}
	n.onDeliver.Store(&fn)
}

// notify hands a first-time delivery to the application, on the loop:
// to the handler of the topic's own subscription ts (nil: none) when it
// has one, else to the node-level handler. The shard is marked for as
// long as the handler runs (shard.inCallback).
func (n *Node) notify(ts *topicSub, d Delivery) {
	var fn DeliverFunc
	if ts != nil && ts.handler != nil {
		fn = ts.handler
	} else if p := n.onDeliver.Load(); p != nil {
		fn = *p
	} else {
		return
	}
	if n.sh == nil {
		fn(d)
		return
	}
	n.sh.inCallback.Store(true)
	fn(d)
	n.sh.inCallback.Store(false)
}

// pubOpts is the resolved form of a Publish call's options.
type pubOpts struct {
	size    uint32
	sizeSet bool
	pri     uint8
}

// PublishOption configures one Publish call (WithPriority, WithSize).
type PublishOption func(*pubOpts)

// WithPriority sets the durable-tier priority class (inbox.High /
// inbox.Medium / inbox.Low, default Medium): should the publication end
// up deposited for an offline subscriber, the class decides its replay
// order when the subscriber rejoins.
func WithPriority(pri uint8) PublishOption {
	return func(o *pubOpts) { o.pri = pri }
}

// WithSize overrides the modeled payload size without materializing a
// body — the benchmark shim for the paper's 1.2 MB fragments, where
// only byte accounting matters and real bodies would swamp the harness.
// Without it the size is len(payload).
func WithSize(size uint32) PublishOption {
	return func(o *pubOpts) { o.size = size; o.sizeSet = true }
}

func resolvePublishOpts(payload []byte, opts []PublishOption) pubOpts {
	if len(opts) == 0 {
		// The options write through a pointer, which puts o on the heap:
		// a call without options does not declare it.
		return pubOpts{size: uint32(len(payload)), pri: inbox.Medium}
	}
	o := pubOpts{pri: inbox.Medium}
	for _, f := range opts {
		f(&o)
	}
	if !o.sizeSet {
		o.size = uint32(len(payload))
	}
	return o
}

// publishCmd is one Publish call on its way to the node's loop: the
// typed form of the closure the rest of the API posts, carried in a
// pooled command (shard.go), so that a publication costs the caller no
// allocation. feed marks the node's own user topic; topic names any
// other.
type publishCmd struct {
	n       *Node
	seq     uint32
	feed    bool
	topic   string
	payload []byte
	o       pubOpts
}

func (p *publishCmd) run() {
	if p.feed {
		p.n.publish(p.seq, p.payload, p.o.size, p.o.pri)
	} else {
		p.n.publishTopic(p.seq, p.topic, p.payload, p.o)
	}
}

// publishFeed resolves options and runs the friend-feed fan-out — the
// node's implicit UserTopic. The public surface is
// Topic(UserTopic(id)).Publish (topic.go); the PR-8 deprecated
// Publish/PublishPriority/PublishSize shims are gone. The call takes the
// sequence number and returns; registration with the repair engine and
// the first send run on the node's loop, in the order the calls were made.
func (n *Node) publishFeed(payload []byte, opts ...PublishOption) uint32 {
	seq := n.nextSeq()
	n.postPublish(publishCmd{n: n, seq: seq, feed: true, payload: payload, o: resolvePublishOpts(payload, opts)})
	return seq
}

func (n *Node) publish(seq uint32, payload []byte, size uint32, pri uint8) {
	subs := n.g.Neighbors(n.id)
	n.received.add(msgID{int32(n.id), seq}, 0) // the publisher trivially has its own message
	n.registerPublish(seq, subs, payload, size, pri, time.Now())
	n.cfg.Obs.Addn(obs.CPublishSent, int64(len(subs)))
	n.cfg.Obs.TraceEvent("publish", int32(n.id), seq)
	n.fanOut(n.feedFrame(seq, payload, size, pri), subs, -1)
	n.kickRetry()
}

// feedFrame is the KindPublish frame of this node's own publication seq
// as it leaves the publisher, first send or retry, less its destinations.
func (n *Node) feedFrame(seq uint32, payload []byte, size uint32, pri uint8) wire.Message {
	return wire.Message{
		Kind: wire.KindPublish, From: int32(n.id),
		Seq: seq, Publisher: int32(n.id), TTL: n.cfg.TTL,
		Priority: pri, PayloadSize: size, Payload: payload,
	}
}

// Received reports whether this node got publication (publisher, seq) and
// at how many hops.
func (n *Node) Received(publisher overlay.PeerID, seq uint32) (hops uint8, ok bool) {
	n.do(func() { hops, ok = n.received.get(msgID{int32(publisher), seq}) })
	return hops, ok
}

// Acked returns how many subscribers have acknowledged publication seq.
func (n *Node) Acked(seq uint32) (k int) {
	n.do(func() { k = len(n.acked.of(msgID{int32(n.id), seq})) })
	return k
}

// Exchanges returns the number of completed gossip exchanges (active side).
func (n *Node) Exchanges() (k int) {
	n.do(func() { k = n.exchanges })
	return k
}

// LinkAvailability returns the CMA estimate for link q (1 when never
// probed).
func (n *Node) LinkAvailability(q overlay.PeerID) float64 {
	v := 1.0
	n.do(func() {
		if c, ok := n.cma[q]; ok {
			v = c.Value()
		}
	})
	return v
}

// Lookahead returns the cached routing table of neighbor q.
func (n *Node) Lookahead(q overlay.PeerID) (rt []overlay.PeerID) {
	n.do(func() { rt = append(rt, n.lookahead[q]...) })
	return rt
}

// ID returns the node's peer id.
func (n *Node) ID() overlay.PeerID { return n.id }

// Joined reports whether the node is currently a ring member.
func (n *Node) Joined() (joined bool) {
	n.do(func() { joined = n.joined })
	return joined
}

// Links returns the node's current routing table R_p.
func (n *Node) Links() (links []overlay.PeerID) {
	n.do(func() { links = n.links() })
	return links
}

// RingNeighbors returns the node's current short-range ring links (-1
// when a direction has no live entry).
func (n *Node) RingNeighbors() (succ, pred overlay.PeerID) {
	n.do(func() { succ, pred = n.shortSucc, n.shortPred })
	return succ, pred
}

// RingList returns the node's successor and predecessor lists (nearest
// first), the decentralized state ring repair splices from.
func (n *Node) RingList() (succs, preds []overlay.PeerID) {
	n.do(func() {
		for _, e := range n.rview.succ {
			succs = append(succs, e.peer)
		}
		for _, e := range n.rview.pred {
			preds = append(preds, e.peer)
		}
	})
	return succs, preds
}

// Position returns the node's current ring identifier.
func (n *Node) Position() ring.ID { return n.dir.position(n.id) }

// LinkCoverage reports the fraction of this node's member friends that
// are one forward away: directly long-linked, or long-linked by one of
// our long links (known through the learned bitmaps). It is the live
// overlay-quality metric the soak's churn arm watches converge.
func (n *Node) LinkCoverage() float64 {
	members, covered := 0, 0
	n.do(func() {
		for i, f := range n.g.Neighbors(n.id) {
			if !n.dir.isMember(f) {
				continue
			}
			members++
			if n.inLongOut(f) || n.covered(i) {
				covered++
			}
		}
	})
	if members == 0 {
		return 1
	}
	return float64(covered) / float64(members)
}

// countMutualSorted counts common elements of two sorted id lists; the
// live analogue of |C_u ∩ C_p| in Algorithm 4 line 3.
func countMutualSorted(a, b []overlay.PeerID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
