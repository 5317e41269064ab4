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
//     and the friend's link bitmap over their neighborhood, which feeds
//     the LSH link reassignment;
//   - live maintenance (Algorithms 1–2, 5–6): joins are placed next to
//     their inviter, identifiers periodically move to the midpoint of the
//     two strongest friends, and long-range links are rebuilt from LSH
//     buckets over the learned bitmaps, with incoming-degree capping and
//     bandwidth eviction (maintain.go);
//   - heartbeats feeding per-link CMA availability (§III-F).
package node

import (
	"math"
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
	// claims, group and acks back the lists of the frames built in them:
	// node-owned, so that a frame built on a handler's stack costs no
	// allocation when it goes through the interface call.
	out    wire.Message
	claims ringClaims
	group  [wire.MaxPublishDests]int32
	acks   [ackBatchMax]wire.AckEntry
	cfg    Options
	rng    *rand.Rand
	hasher *lsh.Hasher
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
	// bitmaps[f] is f's link bitmap over C_p from the latest reply.
	strength []float64
	bitmaps  map[overlay.PeerID][]uint64
	fidx     map[overlay.PeerID]int
	// rview is the decentralized r-deep successor/predecessor view the
	// ring links come from (ringlist.go); the directory's ringNeighbors
	// scan is bootstrap-only.
	rview ringView
	// received records local deliveries with their hop count, bounded FIFO
	// by recvOrder (dedupWindow).
	received  map[msgID]uint8
	recvOrder []msgID
	// lookahead caches neighbors' routing tables learned via ExchangeRT.
	lookahead map[overlay.PeerID][]overlay.PeerID
	// cma tracks per-link availability from heartbeats; miss is the
	// consecutive-miss streak and suspectAt when suspicion started — the
	// accrual failure detector's evidence (repair.go).
	cma       map[overlay.PeerID]*churn.CMA
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
	// bounded FIFO by ackOrder (pubHistory).
	acked    map[msgID]map[int32]bool
	ackOrder []msgID
	// pubs is the delivery-repair engine's table, one row per thing this
	// node owes someone — its own feed post, a topic publication it
	// accepted as rendezvous replica, its own topic hand-off, its own
	// registration, a registry it no longer owns (repair.go); deadline
	// changes re-arm the shard wheel via kickRetry.
	pubs        map[uint32]*pubState
	deadLetters []DeadLetter
	// Durable delivery tier state (inbox.go): claim is the subscriber's
	// in-flight lease cycle, replay the replica-side drains keyed by
	// target, claimEpoch the seed that varies the lease order per cycle.
	// claimHave is the digest the cycle's next claim carries: one entry
	// per record replayed to this node since the cycle opened, by
	// whichever replica, up to claimDigestMax; it goes when the cycle
	// closes. depGroups is the per-replica groups of one deposit round,
	// storage kept between rounds.
	claim      *claimState
	replay     map[overlay.PeerID]*replayState
	claimEpoch uint32
	claimHave  []wire.AckEntry
	depGroups  []depGroup
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
	topicReg  map[string]map[overlay.PeerID]time.Time
	tpOrigin  map[msgID]uint32
	unsubbed  map[unsubKey]unsubscribed
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
	// Algorithm-5 scratch (maintain.go).
	idx         selectcore.Indexer
	coords      []int
	pickScratch []int32
	askScratch  []int32

	// Ack batching (DESIGN.md §15.1, ackbatch.go): ackBuckets holds the
	// buffered ack entries, one bucket per next hop in order of first use;
	// ackFlushArmed guards the one-shot tkAckFlush wheel entry against
	// re-arm (the wheel's Schedule is an upsert — re-arming would push the
	// deadline back under sustained traffic).
	ackBuckets    []ackBucket
	ackFlushArmed bool
	// Heartbeat piggybacking: lastHeard stamps the most recent inbound
	// frame per peer (liveness evidence), hbSkip counts consecutive
	// suppressed pings so the ring's pong anti-entropy keeps a floor.
	hbPiggyback bool
	lastHeard   map[overlay.PeerID]time.Time
	hbSkip      map[overlay.PeerID]int
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
		received:     make(map[msgID]uint8),
		lookahead:    make(map[overlay.PeerID][]overlay.PeerID),
		cma:          make(map[overlay.PeerID]*churn.CMA),
		miss:         make(map[overlay.PeerID]int),
		suspectAt:    make(map[overlay.PeerID]time.Time),
		deadUntil:    make(map[overlay.PeerID]time.Time),
		pendingPings: make(map[uint32]overlay.PeerID),
		acked:        make(map[msgID]map[int32]bool),
		pubs:         make(map[uint32]*pubState),
		subTopics:    make(map[string]*topicSub),
		topicReg:     make(map[string]map[overlay.PeerID]time.Time),
		tpOrigin:     make(map[msgID]uint32),
		joinedCh:     make(chan struct{}),
	}
	for i := range n.strength {
		n.strength[i] = -1
	}
	for i, f := range friends {
		n.fidx[f] = i
	}
	n.hbPiggyback = cfg.HeartbeatEvery > 0
	if n.hbPiggyback {
		n.lastHeard = make(map[overlay.PeerID]time.Time)
		n.hbSkip = make(map[overlay.PeerID]int)
	}
	return n
}

func (n *Node) nextSeq() uint32 { return n.seq.Add(1) }

// send is the node's one way onto the network: m goes to peer `to` as a
// copy in n.out, so a Message built on the caller's stack stays there, and
// the transport copies n.out before it returns (transport.Transport) — m
// and the lists it names are the caller's again at once. A refused send is
// a lost frame like any other: the protocol repairs it (retries, acks,
// heartbeats), so the error is not looked at.
func (n *Node) send(to int32, m *wire.Message) {
	n.out = *m
	_ = n.tr.Send(to, &n.out)
}

func (n *Node) handle(m *wire.Message) {
	if n.hbPiggyback && m.From >= 0 && overlay.PeerID(m.From) != n.id &&
		m.Kind != wire.KindPing && m.Kind != wire.KindPong {
		// Any inbound non-heartbeat frame is liveness evidence for its
		// sender: the next heartbeat sweep skips pinging links that carried
		// traffic inside the interval (sendHeartbeats) instead of
		// generating a redundant ping/pong pair. Pings and pongs are
		// excluded — the probe channel must not feed its own suppression,
		// or an idle mesh would throttle the pong-borne ring anti-entropy
		// it has no other way to run.
		n.lastHeard[overlay.PeerID(m.From)] = time.Now()
	}
	switch m.Kind {
	case wire.KindPing:
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
		n.handleAckBatch(m)
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
// the friendship bitmap over the sender's neighborhood, and cache the
// sender's routing table as lookahead.
func (n *Node) handleExchange(m *wire.Message) {
	mine := n.g.Neighbors(n.id)
	theirs := m.Neighborhood
	mutual := n.liarMutual(countMutualSorted(mine, theirs), len(theirs))
	links := n.links()
	if n.setLookahead(overlay.PeerID(m.From), m.RoutingTable) {
		n.cadenceEvent(selectcore.CadenceGossipNews)
	}
	// Friendship bitmap over the SENDER's neighborhood: bit i set when
	// their i-th friend is in our routing table.
	inRT := make(map[overlay.PeerID]bool, len(links))
	for _, q := range links {
		inRT[q] = true
	}
	words := (len(theirs) + 63) / 64
	bitmap := make([]uint64, words)
	for i, f := range theirs {
		if inRT[f] {
			bitmap[i/64] |= 1 << (i % 64)
		}
	}
	n.send(m.From, &wire.Message{
		Kind: wire.KindExchangeReply, From: int32(n.id), To: m.From, Seq: m.Seq,
		NMutual:      int32(mutual),
		Bitmap:       bitmap,
		RoutingTable: links,
	})
}

// handleExchangeReply is the active thread's learning step: the mutual
// count yields the tie strength (selectcore.StrengthFromCounts — the
// same formula the simulator evaluates from graph reads), the bitmap
// feeds the Algorithm-5 link pass, and the routing table becomes
// lookahead.
func (n *Node) handleExchangeReply(m *wire.Message) {
	n.cfg.Obs.Inc(obs.CGossipReply)
	from := overlay.PeerID(m.From)
	news := n.setLookahead(from, m.RoutingTable)
	if i, ok := n.fidx[from]; ok {
		if nm, sane := n.clampMutual(int(m.NMutual), from); sane {
			s := selectcore.StrengthFromCounts(n.g.Degree(n.id), n.g.Degree(from), nm)
			news = news || s != n.strength[i]
			n.strength[i] = s
		}
		if old, had := n.bitmaps[from]; !had || !slices.Equal(old, m.Bitmap) {
			// The friend's links changed: whatever made it refuse a
			// proposal may have changed with them, so it may be asked again
			// now (maintain.go).
			n.liftRefusal(from)
			n.bitmaps[from] = slices.Clone(m.Bitmap) // m is recycled on return
			news = true
		}
	}
	if news {
		n.cadenceEvent(selectcore.CadenceGossipNews)
	}
	n.exchanges++
}

// setLookahead caches q's routing table and reports whether that
// changed anything — a quiet neighbourhood re-sends the table it sent
// last time, which costs neither a copy nor a cadence reset.
func (n *Node) setLookahead(q overlay.PeerID, rt []int32) bool {
	if old, had := n.lookahead[q]; had && slices.Equal(old, rt) {
		return false
	}
	n.lookahead[q] = slices.Clone(rt)
	return true
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
		// closes a gossip round.
		n.gsRounds = r
		n.gs.Cadence = n.gs.Round(selectcore.GossipCalmRounds)
	}
	if !ok {
		return
	}
	f := overlay.PeerID(fi)
	n.cfg.Obs.Inc(obs.CGossipSent)
	n.send(int32(f), &wire.Message{
		Kind: wire.KindExchangeRT, From: int32(n.id), To: int32(f), Seq: n.nextSeq(),
		Neighborhood: n.g.Neighbors(n.id),
		RoutingTable: n.links(),
	})
}

// sendHeartbeats is one heartbeat sweep: ping every link; unanswered
// pings from the previous sweep count as offline observations (§III-F
// probes). After folding the misses the accrual detector sweep runs —
// dead links are evicted and repaired before the next pings go out
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
	missed := false
	for _, target := range n.pendingPings {
		if fresh(target) {
			// The pong never came but data frames did: the link is alive,
			// the miss would be pure noise. The links loop below records
			// the round's (single) online observation.
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
	n.hb.Cadence = n.hb.Round(selectcore.HeartbeatCalmRounds)
	var linkBuf [routeLinksMax]overlay.PeerID
	links := n.appendLinks(linkBuf[:0])
	// Also probe the ring candidates: hearsay entries sitting ahead of the
	// firsthand heads. Their pong self-entry places them, so a nearer
	// neighbor becomes the head one round trip after it was first heard
	// of, and a stale claim is refuted by the peer it names. Candidates
	// are exempt from suppression (links[probe:]): only a pong can verify
	// them, so they always get a real ping.
	probe := len(links)
	for _, q := range n.rview.probation(n.dir.isMember) {
		if !slices.Contains(links, q) {
			links = append(links, q)
		}
	}
	// A ping names its sender's position the way a pong does — as the self
	// entry of the successor side — so the probed peer learns the prober
	// first-hand: a node that moved in between two neighbours is seen by
	// them the moment it probes them, not only if a third party happens to
	// vouch for it.
	ping := wire.Message{Kind: wire.KindPing, From: int32(n.id)}
	if n.joined {
		ping.Succs = append(n.claims.succs[:0], int32(n.id))
		ping.SuccPos = append(n.claims.succPos[:0], math.Float64bits(float64(n.dir.position(n.id))))
	}
	for i, q := range links {
		if i < probe && fresh(q) && n.hbSkip[q] < hbSuppressMax {
			// Heartbeat piggybacking: the link moved data this interval, so
			// its ping would be redundant — fold the traffic as this round's
			// online sample instead (exactly one detector sample per link
			// per sweep, same as a pong). Every hbSuppressMax-th sweep still
			// pings: pongs carry successor lists, the ring's anti-entropy
			// channel, which data frames do not.
			n.hbSkip[q]++
			n.observe(q, true)
			n.rview.confirm(q, now)
			n.cfg.Obs.Inc(obs.CHeartbeatSuppress)
			continue
		}
		delete(n.hbSkip, q)
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
	if c == nil {
		c = &churn.CMA{}
		n.cma[q] = c
	}
	c.Observe(online)
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
		topic := UserTopic(overlay.PeerID(pub))
		if !n.rememberDelivery(id, m.HopCount) {
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
	// Ack back to the publisher (directed). A node that forwarded keeps the
	// flush window open for the acks of the peers beyond it; one that did
	// not has nothing to wait for.
	if named && overlay.PeerID(pub) != n.id {
		n.queueAck(wire.AckEntry{
			Kind: wire.KindAck, From: int32(n.id), Dest: pub,
			Pub: pub, Seq: seq, TTL: n.cfg.TTL,
		}, !forwarded)
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
	o := pubOpts{pri: inbox.Medium}
	for _, f := range opts {
		f(&o)
	}
	if !o.sizeSet {
		o.size = uint32(len(payload))
	}
	return o
}

// publishFeed resolves options and runs the friend-feed fan-out — the
// node's implicit UserTopic. The public surface is
// Topic(UserTopic(id)).Publish (topic.go); the PR-8 deprecated
// Publish/PublishPriority/PublishSize shims are gone. The call takes the
// sequence number and returns; registration with the repair engine and
// the first send run on the node's loop, in the order the calls were made.
func (n *Node) publishFeed(payload []byte, opts ...PublishOption) uint32 {
	o := resolvePublishOpts(payload, opts)
	seq := n.nextSeq()
	n.post(func() { n.publish(seq, payload, o.size, o.pri) })
	return seq
}

func (n *Node) publish(seq uint32, payload []byte, size uint32, pri uint8) {
	subs := n.g.Neighbors(n.id)
	n.rememberDelivery(msgID{int32(n.id), seq}, 0) // the publisher trivially has its own message
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
	n.do(func() { hops, ok = n.received[msgID{int32(publisher), seq}] })
	return hops, ok
}

// Acked returns how many subscribers have acknowledged publication seq.
func (n *Node) Acked(seq uint32) (k int) {
	n.do(func() { k = len(n.acked[msgID{int32(n.id), seq}]) })
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
		if c := n.cma[q]; c != nil {
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
