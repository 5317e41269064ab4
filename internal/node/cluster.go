package node

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
	"selectps/internal/socialgraph"
	"selectps/internal/transport"
)

// Options configures a live cluster. Graph, Overlay and Transport are
// required; everything else has working defaults.
type Options struct {
	// Graph is the social graph (subscription relation, §III-A).
	Graph *socialgraph.Graph
	// Overlay provides the converged positions (and, when it is a SELECT
	// overlay, long links and bandwidths) that seed the bootstrap members.
	Overlay overlay.Overlay
	// Transport carries the wire protocol: switchboard, TCP, or faultnet
	// over either. It must implement transport.BatchInboxMux, the
	// runtime's only ingress.
	Transport transport.Transport
	// Seed derives every per-node RNG and LSH hasher; two clusters started
	// from the same Options make the same protocol decisions.
	Seed int64

	// Shards is how many event-loop goroutines the cluster runs
	// (default GOMAXPROCS). Every node is pinned to one shard by hashed
	// PeerID: its timers fire and its inbound messages are handled on
	// that shard's goroutine (DESIGN.md §11). Do not raise this past
	// GOMAXPROCS: shard loops run hot under load, so any loop beyond the
	// core count is descheduled in whole preemption quanta (~10ms) and
	// every timer due during that window fires late — measured as tens
	// of milliseconds of added deadline lag and message sojourn, enough
	// to starve retry backoffs and trip spurious repair traffic.
	Shards int
	// ShardMailbox is each shard's mailbox depth in envelope batches
	// (default 8192); every node pinned to the shard receives through it.
	// Keep it moderate: an overloaded shard sheds load by dropping at the
	// mailbox (counted), and a deeper queue only trades those drops for
	// seconds of sojourn latency on every queued message.
	ShardMailbox int

	// HeartbeatEvery is the base interval of the heartbeat sweep, the
	// shortest it ever runs at: a node whose neighbourhood stays quiet
	// backs off to up to 8× this and returns to it on any change
	// (DESIGN.md §15.2). 0 disables heartbeats.
	HeartbeatEvery time.Duration
	// GossipEvery is the base interval of the Algorithm-3 exchange,
	// backed off the same way while the node's own links, ring and
	// membership stay put (0 disables).
	GossipEvery time.Duration
	// MaintainEvery is the live maintenance interval — join retries,
	// short-link refresh, Algorithm-2 identifier moves and Algorithm-5/6
	// link reassignment (0 disables maintenance: a frozen cluster).
	MaintainEvery time.Duration

	// TTL bounds forwarding hops (default 32).
	TTL uint8
	// K is the long-link budget and incoming cap (default: the overlay's
	// own K when it exposes one, else ~log2(N)).
	K int

	// RetryBase is the delivery-repair engine's base backoff: the first
	// re-send to unacked subscribers fires about one RetryBase after the
	// publication, doubling (with ±25% seeded jitter) up to RetryMax.
	// 0 disables autonomous repair — the ablation arm.
	RetryBase time.Duration
	// RetryMax caps the backoff delay (default 10×RetryBase).
	RetryMax time.Duration
	// RetryBudget is how many retry rounds a publication gets before it is
	// dead-lettered (default 12).
	RetryBudget int
	// Detector holds the accrual failure-detection thresholds shared with
	// the simulator (zero value = selectcore.DefaultFailureDetector).
	Detector selectcore.FailureDetector

	// AckBatch does nothing: acks buffer per next hop and ride
	// KindAckBatch frames on every transport (DESIGN.md §15.1). The field
	// and its one value, AckBatchAuto, are kept because the frozen
	// bench/cluster.go sets them.
	AckBatch AckBatchMode
	// Inbox enables the durable delivery tier (DESIGN.md §12): instead of
	// dead-lettering a publication for a subscriber that left the ring or
	// exhausted the direct-retry budget, the publisher deposits the copy on
	// the subscriber's replica set, which journals it and replays it when
	// the subscriber rejoins. Requires repair (RetryBase > 0) — deposits
	// ride the repair scheduler.
	Inbox bool
	// InboxReplicas is R, how many live clockwise ring successors of a
	// subscriber hold its inbox (default 2).
	InboxReplicas int
	// InboxDir is where the per-shard journals live. Empty means a fresh
	// temp directory owned (and removed at Shutdown) by the cluster; a
	// caller-provided directory survives Shutdown — restart durability.
	InboxDir string
	// InboxSyncEvery is the journal fsync policy: 0 leaves flushing to the
	// OS, 1 syncs every append, N syncs every N appends.
	InboxSyncEvery int
	// InboxLease is how long a claimed replica may go without replay
	// progress before the subscriber hands the claim to the next replica
	// (default 150ms).
	InboxLease time.Duration

	// Hardened enables the adversarial defenses of DESIGN.md §14: the
	// per-identity join admission cache and arc-occupancy caps against
	// sybil floods, directory position cross-checks (correction, not
	// drop) on successor/predecessor list claims against eclipse
	// attempts, and mutual-count sanity rejection against
	// tie-strength liars. Off by default so the honest protocol (and the
	// defenses-off ablation the resilience benchmarks measure against)
	// is unchanged.
	Hardened bool
	// JoinRateWindow is the hardened per-identity re-join cooldown
	// (default 1s): an identity re-joining through the same inviter
	// within the window is re-served its cached position — no fresh
	// placement, no new arc grant — and past joinServeCap repeats is
	// dropped. Honest lost-reply resends are re-answered immediately, so
	// the damper costs honest joiners nothing while capping a sybil
	// cycle at one placement per window per identity.
	JoinRateWindow time.Duration

	// TopicLease is how long a topic registration lives at its rendezvous
	// without a refresh (DESIGN.md §13). Subscribers refresh at half the
	// lease on the maintain tick, so the lease must span several ticks or
	// one late tick unregisters a live subscriber: the default is ten
	// maintain periods (at least 500ms), and Start rejects a lease shorter
	// than four.
	TopicLease time.Duration

	// Obs receives runtime counters, histograms and trace events from
	// every node (nil = no instrumentation).
	Obs *obs.Metrics

	// Bootstrap lists the peers that start as converged ring members
	// seeded from Overlay. Nil means every peer bootstraps (the
	// pre-converged cluster of earlier revisions); non-nil leaves the
	// remaining peers outside the ring until Cluster.Join admits them
	// live via JoinRequest.
	Bootstrap []overlay.PeerID
}

// A topic subscriber refreshes its registration at half-lease, on the
// maintain tick: the default lease spans defaultLeaseTicks periods, and
// one below minLeaseTicks cannot survive a single late tick.
const (
	defaultLeaseTicks = 10
	minLeaseTicks     = 4
)

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.ShardMailbox <= 0 {
		o.ShardMailbox = 8192
	}
	if o.TTL == 0 {
		o.TTL = 32
	}
	if o.RetryMax == 0 && o.RetryBase > 0 {
		o.RetryMax = 10 * o.RetryBase
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 12
	}
	if o.InboxReplicas <= 0 {
		o.InboxReplicas = 2
	}
	if o.InboxLease <= 0 {
		o.InboxLease = 150 * time.Millisecond
	}
	if o.JoinRateWindow <= 0 {
		o.JoinRateWindow = time.Second
	}
	if o.TopicLease <= 0 {
		o.TopicLease = max(500*time.Millisecond, defaultLeaseTicks*o.MaintainEvery)
	}
	if o.K == 0 {
		if kp, ok := o.Overlay.(interface{ K() int }); ok {
			o.K = kp.K()
		} else {
			o.K = 2
			for n := o.Overlay.N(); n > 4; n /= 2 {
				o.K++
			}
		}
	}
}

// Cluster runs one node per peer of an overlay on S sharded event loops.
//
// Threading contract. A node's handlers, timers and application callbacks
// run on its shard's loop, one at a time. Publish never waits for the
// loop: it takes the sequence number, queues the send and returns. Every
// call that returns or changes node state — Subscribe, Unsubscribe, Crash,
// Join, Rejoin, Leave, SetAdversary and all getters — runs on the loop and
// returns when it has been applied, in the order one caller made its calls
// (Publish included). A callback may therefore call Publish, and must not
// call the waiting part of the API: it would wait for the loop it is on.
type Cluster struct {
	Nodes  []*Node
	dir    *directory
	tr     transport.Transport
	shards []*shard
	// ibxDir is the durable-tier journal directory; ibxOwned marks a
	// cluster-created temp directory removed at Shutdown.
	ibxDir   string
	ibxOwned bool
	// stop ends every shard loop; wg tracks them.
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Start builds the cluster and spawns its shard event loops (Shards
// goroutines total, not one per peer). Bootstrap members begin with
// converged routing state copied from opts.Overlay; everyone else starts
// outside the ring and is admitted live through Cluster.Join.
func Start(opts Options) (*Cluster, error) {
	if opts.Graph == nil || opts.Overlay == nil || opts.Transport == nil {
		return nil, fmt.Errorf("node: Options requires Graph, Overlay and Transport")
	}
	bmux, ok := opts.Transport.(transport.BatchInboxMux)
	if !ok {
		return nil, fmt.Errorf("node: transport %T does not implement transport.BatchInboxMux, the runtime's only ingress", opts.Transport)
	}
	if opts.TopicLease > 0 && opts.TopicLease < minLeaseTicks*opts.MaintainEvery {
		return nil, fmt.Errorf("node: TopicLease %v is under %d maintain periods (MaintainEvery %v): subscribers refresh at half-lease on the maintain tick, so one late tick would unregister them",
			opts.TopicLease, minLeaseTicks, opts.MaintainEvery)
	}
	opts.fill()
	n := opts.Overlay.N()
	dir := newDirectory(n)
	for p := 0; p < n; p++ {
		dir.pos[p] = opts.Overlay.Position(overlay.PeerID(p))
	}
	if opts.Bootstrap == nil {
		for p := range dir.member {
			dir.member[p] = true
		}
	} else {
		for _, p := range opts.Bootstrap {
			dir.member[p] = true
		}
	}
	// Per-peer upload capacity for the Algorithm-6 picker and incoming-link
	// eviction: the overlay's modeled bandwidths when it exposes them, else
	// a deterministic synthetic draw.
	bw := make([]float64, n)
	if bp, ok := opts.Overlay.(interface{ Bandwidth(overlay.PeerID) float64 }); ok {
		for p := range bw {
			bw[p] = bp.Bandwidth(overlay.PeerID(p))
		}
	} else {
		rng := rand.New(rand.NewSource(opts.Seed ^ 0x6277))
		for p := range bw {
			bw[p] = 1 + 9*rng.Float64()
		}
	}

	c := &Cluster{dir: dir, tr: opts.Transport}
	for p := 0; p < n; p++ {
		c.Nodes = append(c.Nodes, newNode(overlay.PeerID(p), dir, bw, opts, opts.Seed+int64(p)))
	}
	// Seed the bootstrap members' routing state from the converged
	// overlay: long links (and their inverses) when the overlay exposes
	// them, its full link set otherwise, always pruned to members.
	type longLinker interface {
		LongLinks(overlay.PeerID) []overlay.PeerID
	}
	ll, hasLong := opts.Overlay.(longLinker)
	for p := 0; p < n; p++ {
		pid := overlay.PeerID(p)
		if !dir.member[p] {
			continue
		}
		node := c.Nodes[p]
		node.joined = true
		var out []overlay.PeerID
		if hasLong {
			out = ll.LongLinks(pid)
		} else {
			out = opts.Overlay.Links(pid)
		}
		for _, q := range out {
			if dir.member[q] && q != pid {
				node.longOut = append(node.longOut, q)
			}
		}
	}
	if hasLong {
		for p := 0; p < n; p++ {
			if !dir.member[p] {
				continue
			}
			for _, q := range c.Nodes[p].longOut {
				c.Nodes[q].longIn = append(c.Nodes[q].longIn, overlay.PeerID(p))
			}
		}
	}
	start := time.Now()
	// Seed the bootstrap members' successor/predecessor lists from the
	// directory — its only remaining ring role (bootstrap-only): from here
	// on, ring views evolve through join replies, pong piggybacks and
	// identifier announcements, and repair splices locally.
	for p := 0; p < n; p++ {
		if !dir.member[p] {
			continue
		}
		nd := c.Nodes[p]
		own := dir.pos[p]
		for q := 0; q < n; q++ {
			if q != p && dir.member[q] {
				// Bootstrap entries are trusted admission records: firsthand.
				nd.rview.learn(own, nd.id, overlay.PeerID(q), dir.pos[q], true, start)
			}
		}
		nd.shortSucc, nd.shortPred = dir.ringNeighbors(overlay.PeerID(p))
		close(nd.joinedCh)
	}
	// The sharded runtime (shard.go): pin every node to a shard, bind its
	// transport inbox into the shard's mailbox, arm its periodic wheel
	// entries, then start the S loops.
	c.stop = make(chan struct{})
	c.shards = make([]*shard, opts.Shards)
	for i := range c.shards {
		c.shards[i] = newShard(i, c, &opts)
	}
	for p, nd := range c.Nodes {
		sh := c.shards[shardOf(int32(p), len(c.shards))]
		nd.sh = sh
		// Bulk ingress (DESIGN.md §15): the transport's read loop hands
		// whole envelope slices into the shard, which drains each in one
		// pass.
		if !bmux.BindInboxBatch(int32(p), sh.mailbox) {
			return nil, fmt.Errorf("node: transport %T refused BindInboxBatch for peer %d", opts.Transport, p)
		}
		sh.scheduleNode(nd, start)
	}
	if opts.Inbox {
		dirPath := opts.InboxDir
		if dirPath == "" {
			tmp, err := os.MkdirTemp("", "selectps-inbox-*")
			if err != nil {
				return nil, fmt.Errorf("node: inbox dir: %w", err)
			}
			dirPath = tmp
			c.ibxOwned = true
		}
		c.ibxDir = dirPath
		for i, sh := range c.shards {
			st, err := inbox.Open(filepath.Join(dirPath, fmt.Sprintf("shard-%d.log", i)), opts.InboxSyncEvery, opts.Obs)
			if err != nil {
				for _, prev := range c.shards[:i] {
					prev.ibx.Close()
				}
				if c.ibxOwned {
					os.RemoveAll(dirPath)
				}
				return nil, fmt.Errorf("node: inbox shard %d: %w", i, err)
			}
			sh.ibx = st
		}
	}
	for _, sh := range c.shards {
		c.wg.Add(1)
		go sh.run()
	}
	return c, nil
}

// Join admits peer p into the running ring: the node sends a JoinRequest
// to inviter (or, when inviter is -1, to its first member friend, then
// any member), receives its Algorithm-1 position and seed contacts, and
// announces itself. Join blocks — without polling — until the node is a
// member or ctx ends; lost requests are resent by the node's own repair
// scheduler on its seeded backoff.
func (c *Cluster) Join(ctx context.Context, p, inviter overlay.PeerID) error {
	n := c.Nodes[p]
	var ch chan struct{}
	n.do(func() {
		if !n.joined {
			ch = n.joinedCh
			n.requestJoin(inviter)
		}
	})
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("node: join of %d: %w", p, ctx.Err())
	}
}

// Crash fails peer p abruptly: it stops responding and loses all learned
// overlay state (links, lookahead, availability history), as a killed
// process would — no Leave is sent. The feed state survives, standing in
// for persistent storage: the delivered record on the subscriber side and
// the repair outbox on the publisher side, so a crashed publisher resumes
// re-sending unacked publications once Rejoin brings the peer back.
func (c *Cluster) Crash(p overlay.PeerID) {
	n := c.Nodes[p]
	n.do(func() {
		n.paused.Store(true)
		c.dir.setMember(p, false)
		n.resetVolatile()
	})
}

// Rejoin restarts a crashed peer and walks it through the live join
// protocol again.
func (c *Cluster) Rejoin(ctx context.Context, p, inviter overlay.PeerID) error {
	c.Nodes[p].Resume()
	return c.Join(ctx, p, inviter)
}

// AwaitDelivery polls until every subscriber of (publisher, seq) received
// the publication or ctx ends; it returns the delivered count and whether
// delivery completed.
func (c *Cluster) AwaitDelivery(ctx context.Context, publisher overlay.PeerID, seq uint32, subs []overlay.PeerID) (int, bool) {
	// One reused timer for the whole poll loop — time.After would allocate
	// a timer per iteration that lives until it fires.
	const pollEvery = 2 * time.Millisecond
	timer := time.NewTimer(pollEvery)
	defer timer.Stop()
	id := msgID{int32(publisher), seq}
	for {
		// One command per shard and poll, not one per subscriber.
		delivered := 0
		for _, sh := range c.shards {
			sh.submit(func() {
				for _, s := range subs {
					if n := c.Nodes[s]; n.sh == sh {
						if _, ok := n.received.get(id); ok {
							delivered++
						}
					}
				}
			}, true)
		}
		if delivered == len(subs) {
			return delivered, true
		}
		select {
		case <-ctx.Done():
			return delivered, false
		case <-timer.C:
			timer.Reset(pollEvery)
		}
	}
}

// RingConsistent reports whether p is a ring member whose short-range
// links agree with the directory's current nearest members — the
// restabilization probe the adversarial soak polls after an attack
// window closes (DESIGN.md §14). A member that shares its position with
// another is never consistent: the directory names the twin as both its
// neighbours, at distance zero, and no ring view does. Measurement-only:
// live repair never consults the directory's ring scan.
func (c *Cluster) RingConsistent(p overlay.PeerID) bool {
	if !c.dir.isMember(p) {
		return false
	}
	wantSucc, wantPred := c.dir.ringNeighbors(p)
	gotSucc, gotPred := c.Nodes[p].RingNeighbors()
	return gotSucc == wantSucc && gotPred == wantPred
}

// RingAudit is what AuditRing found wrong with the ring, in the order the
// legitimate state is defined (DESIGN.md §9.3): identifiers are unique,
// and the short-range links form one cycle through every member.
type RingAudit struct {
	Members int
	// SharedPositions counts the members that sit on a ring position some
	// other member holds too. It is zero at every instant, faults or not:
	// no placement rule hands out a position twice.
	SharedPositions int
	// OffCycle counts the members that following successor heads from the
	// lowest-id member does not reach before the walk closes or breaks. It
	// is zero whenever the ring has had time to settle.
	OffCycle int
	// First describes the first violation met, "" when there is none.
	First string
}

// AuditRing checks the ring invariant on the members' current positions
// and short-range heads: member positions are pairwise distinct; every
// member's successor is a member whose predecessor is that member, and
// the other way round; and following successors from a member visits
// every member once. Measurement-only, like RingConsistent: positions
// come from the directory and heads from one command per shard, so on a
// cluster that is still moving the snapshot may be torn — a finding there
// means "not settled yet".
func (c *Cluster) AuditRing() RingAudit {
	members := c.dir.appendRingMembers(nil)
	a := RingAudit{Members: len(members)}
	found := func(format string, args ...any) {
		if a.First == "" {
			a.First = fmt.Sprintf(format, args...)
		}
	}
	byPos := slices.Clone(members)
	slices.SortFunc(byPos, func(x, y selectcore.RingMember) int {
		return cmp.Or(cmp.Compare(x.Pos, y.Pos), cmp.Compare(x.ID, y.ID))
	})
	for i, m := range byPos {
		prev, next := i > 0 && byPos[i-1].Pos == m.Pos, i+1 < len(byPos) && byPos[i+1].Pos == m.Pos
		if prev || next {
			a.SharedPositions++
		}
		if prev {
			found("peer %d shares position %.6f with peer %d", m.ID, float64(m.Pos), byPos[i-1].ID)
		}
	}
	if len(members) < 2 {
		return a
	}

	succ := make([]overlay.PeerID, len(c.Nodes))
	pred := make([]overlay.PeerID, len(c.Nodes))
	for _, sh := range c.shards {
		sh.submit(func() {
			for _, m := range members {
				if n := c.Nodes[m.ID]; n.sh == sh {
					succ[m.ID], pred[m.ID] = n.shortSucc, n.shortPred
				}
			}
		}, true)
	}
	isMember := make([]bool, len(c.Nodes))
	for _, m := range members {
		isMember[m.ID] = true
	}
	// head is p's link in one direction if it leads to a member.
	head := func(links []overlay.PeerID, p overlay.PeerID) (overlay.PeerID, bool) {
		q := links[p]
		return q, q >= 0 && isMember[q]
	}
	for _, m := range members {
		if s, ok := head(succ, m.ID); !ok {
			found("peer %d has successor %d, which is no member", m.ID, s)
		} else if pred[s] != m.ID {
			found("peer %d has successor %d, whose predecessor is %d", m.ID, s, pred[s])
		}
		if q, ok := head(pred, m.ID); !ok {
			found("peer %d has predecessor %d, which is no member", m.ID, q)
		} else if succ[q] != m.ID {
			found("peer %d has predecessor %d, whose successor is %d", m.ID, q, succ[q])
		}
	}
	visited := make([]bool, len(c.Nodes))
	start, on := members[0].ID, 0
	for p, ok := start, true; ok && !visited[p]; p, ok = head(succ, p) {
		visited[p] = true
		on++
	}
	if a.OffCycle = len(members) - on; a.OffCycle > 0 {
		found("following successors from peer %d visits %d of %d members", start, on, len(members))
	}
	return a
}

// CheckRing is AuditRing as an assertion: nil when the ring is in its
// legitimate state, else the first violation.
func (c *Cluster) CheckRing() error {
	if a := c.AuditRing(); a.First != "" {
		return fmt.Errorf("node: ring of %d members: %s", a.Members, a.First)
	}
	return nil
}

// RingHeads snapshots p's current short-range ring heads (successor,
// predecessor; -1 when unset). Measurement-only — the adversarial soak
// samples it each driver tick to score how often an attack cohort holds
// a victim's ring view (DESIGN.md §14).
func (c *Cluster) RingHeads(p overlay.PeerID) (succ, pred overlay.PeerID) {
	return c.Nodes[p].RingNeighbors()
}

// HeadForged reports whether p's ring view holds q at a position that
// contradicts the directory's granted one — an adopted forgery, as
// opposed to a legitimately ring-adjacent peer (SELECT's social
// placement makes a victim's friends genuine ring neighbors, so raw
// head occupancy alone cannot separate stolen seats from earned ones).
// Measurement-only, like RingConsistent.
func (c *Cluster) HeadForged(p, q overlay.PeerID) bool {
	nd := c.Nodes[p]
	var pos ring.ID
	var ok bool
	nd.do(func() { pos, ok = nd.rview.posOf(q) })
	if !ok {
		return false
	}
	dp, member := c.dir.memberPos(q)
	return !member || pos != dp
}

// inCallback reports whether some loop is inside an application callback.
func (c *Cluster) inCallback() bool {
	for _, sh := range c.shards {
		if sh.inCallback.Load() {
			return true
		}
	}
	return false
}

// Shards reports how many event-loop goroutines the cluster runs —
// the S in the runtime's O(S) goroutine budget (the TCP transport adds a
// writer and a reader per shard mailbox, not per peer pair).
func (c *Cluster) Shards() int { return len(c.shards) }

// Shutdown terminates the runtime with a bounded drain: it waits for
// every shard loop to exit until ctx expires,
// then closes the transport either way. Idempotent; returns ctx's error
// when the drain was cut short.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.stopOnce.Do(func() { close(c.stop) })
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.tr.Close()
	for _, sh := range c.shards {
		if sh.ibx != nil {
			sh.ibx.Close()
		}
	}
	if c.ibxOwned && c.ibxDir != "" {
		os.RemoveAll(c.ibxDir)
	}
	return err
}

// InboxDepth is the total number of deposits pending across every
// shard's durable-tier journal — the cluster-wide inbox depth.
func (c *Cluster) InboxDepth() int {
	total := 0
	for _, sh := range c.shards {
		if sh.ibx != nil {
			total += sh.ibx.Depth()
		}
	}
	return total
}
