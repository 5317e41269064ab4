package node

import (
	"slices"
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/selectcore"
	"selectps/internal/wire"
)

// cadenceOpts runs the three periodic timers at one base interval, long
// enough that a pong is home well inside it even under the race
// detector.
func cadenceOpts(base time.Duration, met *obs.Metrics) Options {
	return Options{HeartbeatEvery: base, GossipEvery: base, MaintainEvery: base, Obs: met}
}

func (n *Node) maintainTicks() (k uint32) {
	n.do(func() { k = n.mtick })
	return k
}

func hbLevel(n *Node) (level int) {
	n.do(func() { level = n.hb.Level() })
	return level
}

// awaitCalm waits until every member's heartbeat cadence sits at the cap,
// every ring head is the true neighbour and the ring as a whole is in its
// legitimate state (Cluster.CheckRing) — the converged, quiet state the
// cadence tests start from.
func awaitCalm(t *testing.T, c *Cluster, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		levels := make([]int, selectcore.CadenceMaxLevel+1)
		wrong := 0
		for p, n := range c.Nodes {
			if !c.dir.isMember(overlay.PeerID(p)) {
				continue
			}
			levels[hbLevel(n)]++
			if !c.RingConsistent(overlay.PeerID(p)) {
				wrong++
			}
		}
		below := 0
		for _, k := range levels[:selectcore.CadenceMaxLevel] {
			below += k
		}
		ringErr := c.CheckRing()
		if below == 0 && wrong == 0 && ringErr == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not go calm within %v: heartbeat levels %v, %d inconsistent ring heads, CheckRing: %v", timeout, levels, wrong, ringErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// holders returns the nodes that link to q.
func holders(c *Cluster, q overlay.PeerID) []*Node {
	var out []*Node
	for _, n := range c.Nodes {
		if n.id != q && containsPeer(n.Links(), q) {
			out = append(out, n)
		}
	}
	return out
}

// TestCadenceDetectionBound pins what backing off may cost: with every
// node at the cap, a peer that goes silent is declared dead by every node
// linking to it within (2^CadenceMaxLevel + DeadAfter) base intervals —
// up to 2^CadenceMaxLevel until the next probe, then one interval per
// miss, because the first miss is folded one base interval after its
// probe and returns the node to the base cadence.
func TestCadenceDetectionBound(t *testing.T) {
	const base = 100 * time.Millisecond
	met := obs.New()
	// No maintenance: the bootstrap ring is converged and stays put, so the
	// cluster is calm after the seven sweeps the rule needs.
	_, c := buildCluster(t, 40, 7, Options{HeartbeatEvery: base, GossipEvery: base, Obs: met})
	defer shutdown(t, c)
	awaitCalm(t, c, 30*time.Second)

	victim := overlay.PeerID(3)
	watch := holders(c, victim)
	if len(watch) == 0 {
		t.Fatal("nobody links to the victim")
	}
	det := selectcore.DefaultFailureDetector()
	bound := time.Duration((1<<selectcore.CadenceMaxLevel)+det.DeadAfter) * base
	// Two intervals of slack for timer-wheel ticks and a test host busy
	// with other packages; folding misses a backed-off interval after the
	// probe instead would take 8 + 4·8 of them.
	deadline := bound + 2*base

	c.Nodes[victim].Pause()
	start := time.Now()
	sawBase := make(map[overlay.PeerID]bool)
	for len(watch) > 0 {
		if since := time.Since(start); since > deadline {
			t.Fatalf("%d link holders still hold the silent peer %v after it went quiet (bound %v)", len(watch), since, bound)
		}
		keep := watch[:0]
		for _, n := range watch {
			var missing, linked bool
			var level int
			n.do(func() {
				missing, level = n.miss[victim] > 0, n.hb.Level()
				linked = containsPeer(n.links(), victim)
			})
			if missing {
				// A miss on the books and a backed-off timer never coexist.
				if level != 0 {
					t.Fatalf("node %d folded a miss for %d yet sits at heartbeat level %d", n.id, victim, level)
				}
				sawBase[n.id] = true
			}
			if linked {
				keep = append(keep, n)
			}
		}
		watch = keep
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("every holder evicted the silent peer within %v (bound %v)", time.Since(start), bound)
	if len(sawBase) == 0 {
		t.Fatal("no holder was observed at the base cadence between its first miss and the eviction")
	}
	if met.Get(obs.CCadenceResetMiss) == 0 || met.Get(obs.CLinkDeadEvict) == 0 {
		t.Fatalf("cadence_reset_miss = %d, link_dead_evict = %d: the detector path did not run",
			met.Get(obs.CCadenceResetMiss), met.Get(obs.CLinkDeadEvict))
	}
}

// TestCadenceEventsReturnNeighboursToBase: a crash, a graceful leave and
// an identifier announcement each put the nodes they concern back at the
// base cadence within one base interval.
func TestCadenceEventsReturnNeighboursToBase(t *testing.T) {
	const base = 50 * time.Millisecond
	// One interval of slack on top of the one the contract allows, for
	// timer-wheel ticks and a test host busy with other packages; a timer
	// left backed off would take up to eight.
	const within = 2 * base
	_, c := buildCluster(t, 40, 7, cadenceOpts(base, nil))
	defer shutdown(t, c)
	awaitCalm(t, c, 60*time.Second)

	// capped keeps the nodes still at the cap: an earlier step's repair
	// traffic may already have woken some.
	capped := func(ns []*Node) []*Node {
		var out []*Node
		for _, n := range ns {
			if hbLevel(n) == selectcore.CadenceMaxLevel {
				out = append(out, n)
			}
		}
		if len(out) == 0 {
			t.Fatal("no node left at the cap to observe")
		}
		return out
	}
	atBaseWithin := func(what string, ns []*Node) {
		t.Helper()
		deadline := time.Now().Add(within)
		for _, n := range ns {
			for hbLevel(n) != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%s: node %d still at heartbeat level %d after %v", what, n.id, hbLevel(n), within)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	// A node at the cap that swept a moment ago: left alone, its next
	// sweep is most of a backed-off interval away.
	var target *Node
	var before time.Time
	for _, n := range c.Nodes {
		n.do(func() {
			if n.joined && n.hb.Level() == selectcore.CadenceMaxLevel && time.Since(n.hbSwept) < 3*base {
				target, before = n, n.hbSwept
			}
		})
	}
	if target == nil {
		t.Fatal("no node at the cap that has just swept")
	}
	mover := (target.id + 1) % overlay.PeerID(len(c.Nodes))
	target.do(func() {
		target.handle(&wire.Message{
			Kind: wire.KindIDAnnounce, From: int32(mover), To: int32(target.id), Pos: posBits(c, mover),
		})
	})
	atBaseWithin("id-announce", []*Node{target})
	// And its timer was pulled in: the next sweep is at most one base
	// interval away, not the rest of a backed-off one.
	time.Sleep(within)
	var after time.Time
	target.do(func() { after = target.hbSwept })
	if !after.After(before) {
		t.Fatalf("no heartbeat sweep within %v of the announcement: the timer was not pulled in", within)
	}

	crashed := overlay.PeerID(5)
	watch := capped(holders(c, crashed))
	c.Crash(crashed)
	// The maintain tick that prunes the departed peer is the event.
	atBaseWithin("crash", watch)

	leaver := overlay.PeerID(9)
	watch = capped(holders(c, leaver))
	c.Nodes[leaver].Leave()
	atBaseWithin("leave", watch)
}

// TestQuietClusterStaysQuietAndRight is the closure test (DESIGN.md
// §9.3): once a fault-free cluster has converged, it stays converged —
// and silent. Over fifty base heartbeat rounds no ring head changes,
// every head is the true ring neighbour, positions are distinct and the
// successor heads form one cycle, heartbeat plus gossip traffic is
// under a quarter of what the fixed cadence sent over the same span, and
// link proposals run at no more than one per node per fifty rounds.
func TestQuietClusterStaysQuietAndRight(t *testing.T) {
	const (
		n      = 120
		base   = 50 * time.Millisecond
		rounds = 50
	)
	met := obs.New()
	g, c := buildCluster(t, n, 1, cadenceOpts(base, met))
	defer shutdown(t, c)
	// Converged includes the refusal memory (DESIGN.md §8.2): a target that
	// keeps refusing is asked at maintain ticks 1, 3, ... 127 and sits at
	// the 128-period ceiling from then on.
	for c.Nodes[0].maintainTicks() < 2<<refusalMaxShift+8 {
		time.Sleep(base)
	}
	awaitCalm(t, c, 90*time.Second)

	control := func() int64 {
		return met.Get(obs.CHeartbeatSent) + met.Get(obs.CPongReceived) +
			met.Get(obs.CGossipSent) + met.Get(obs.CGossipReply)
	}
	heads0, props0, control0 := met.Get(obs.CRingHeadChange), met.Get(obs.CLinkProposal), control()
	time.Sleep(rounds * base)
	heads, frames := met.Get(obs.CRingHeadChange)-heads0, control()-control0

	if heads != 0 {
		t.Errorf("ring_head_change = %d over %d quiet rounds, want 0", heads, rounds)
	}
	for p := range c.Nodes {
		if !c.RingConsistent(overlay.PeerID(p)) {
			succ, pred := c.Nodes[p].RingNeighbors()
			t.Errorf("node %d: ring heads (%d, %d) are not its true neighbours", p, succ, pred)
		}
	}
	if err := c.CheckRing(); err != nil {
		t.Errorf("after %d quiet rounds: %v", rounds, err)
	}
	// The fixed cadence pinged every link and exchanged with one friend
	// every round, each answered, less the pings it suppressed on gossip
	// traffic alone: about a tenth (1157 sent of 1270 per round in this
	// very cluster). A quarter of nine tenths of the product, then.
	var fixed int64
	for p, nd := range c.Nodes {
		fixed += 2 * int64(len(nd.Links()))
		if g.Degree(overlay.PeerID(p)) > 0 {
			fixed += 2
		}
	}
	fixed *= rounds
	if limit := fixed * 9 / 40; frames > limit {
		t.Errorf("heartbeat+gossip frames = %d over %d rounds, want at most %d (fixed cadence: %d; %d misses woke nodes up)",
			frames, rounds, limit, fixed, met.Get(obs.CCadenceResetMiss))
	}
	t.Logf("%d rounds: %d control frames (fixed cadence %d, %.1f%%), %d head changes",
		rounds, frames, fixed, 100*float64(frames)/float64(fixed), heads)

	// What is left of the proposal loop is one ask per persistently
	// refusing (proposer, target) pair per 128 maintain ticks, and the
	// pairs were all first refused around the same tick: a fifty-round
	// window sees anything between none and all of them. The rate is taken
	// over a hundred rounds, most of a back-off period.
	time.Sleep(rounds * base)
	if props := met.Get(obs.CLinkProposal) - props0; props > 2*n {
		t.Errorf("link_proposal = %d over %d rounds, want at most one per node per %d (%d)", props, 2*rounds, rounds, 2*n)
	} else {
		t.Logf("%d rounds: %d proposals (fixed cadence: %d)", 2*rounds, props, 2*rounds*n)
	}
}

// carryProbes delivers the pings and pongs the tap recorded, and the
// pongs they draw, until none is left; every other frame is dropped.
// keep, when not nil, says which (from, to) pairs to carry. It returns
// how many pings and pongs went between a and b.
func carryProbes(c *Cluster, tp *tap, a, b overlay.PeerID, keep func(from, to int32) bool) (pings, pongs int) {
	for {
		tp.mu.Lock()
		frames := tp.frames
		tp.frames = nil
		tp.mu.Unlock()
		if len(frames) == 0 {
			return pings, pongs
		}
		for _, f := range frames {
			m := f.m
			if m.Kind != wire.KindPing && m.Kind != wire.KindPong {
				continue
			}
			if keep != nil && !keep(m.From, f.hop) {
				continue
			}
			if pair := [2]overlay.PeerID{overlay.PeerID(m.From), overlay.PeerID(f.hop)}; pair == [2]overlay.PeerID{a, b} || pair == [2]overlay.PeerID{b, a} {
				if m.Kind == wire.KindPing {
					pings++
				} else {
					pongs++
				}
			}
			c.Nodes[f.hop].handle(m)
		}
	}
}

func entryPeers(list []ringEntry) []overlay.PeerID {
	var out []overlay.PeerID
	for _, e := range list {
		out = append(out, e.peer)
	}
	return out
}

// TestOneProbePerLinkPerInterval: two idle linked nodes probe their link
// with one ping/pong pair per heartbeat interval, not one from each end —
// the peer's ping since the last sweep is the sweep's probe — and each
// detector still takes exactly one sample per sweep. The ping carries the
// prober's successor and predecessor lists and the pong the prober's
// peer's, so one pair teaches both ends each other's lists.
func TestOneProbePerLinkPerInterval(t *testing.T) {
	const intervals = 6
	met := obs.New()
	_, c, tp := frozenCluster(t, 40, 5, Options{HeartbeatEvery: time.Hour, Obs: met})
	a := c.Nodes[7]
	b := c.Nodes[a.shortSucc]
	if b.shortPred != a.id {
		t.Fatalf("%d's successor %d has predecessor %d", a.id, b.id, b.shortPred)
	}
	// Each end forgets the far half of the other's lists: a the
	// successors beyond b, b the predecessors beyond a.
	bSuccs, aPreds := entryPeers(b.rview.succ), entryPeers(a.rview.pred)
	for _, q := range bSuccs {
		if q != a.id {
			a.rview.remove(q)
		}
	}
	for _, q := range aPreds {
		if q != b.id {
			b.rview.remove(q)
		}
	}
	tp.take(0)

	samples := func(nd *Node, q overlay.PeerID) int { c := nd.cma[q]; return c.Samples() }
	aS, bS := samples(a, b.id), samples(b, a.id)
	for k := 1; k <= intervals; k++ {
		var pings, pongs int
		for _, nd := range []*Node{a, b} {
			nd.sendHeartbeats()
			// The first interval carries the pair's frames alone, so that
			// what each end learns of the other's lists came from them.
			var keep func(from, to int32) bool
			if k == 1 {
				keep = func(from, to int32) bool {
					return (from == int32(a.id) && to == int32(b.id)) || (from == int32(b.id) && to == int32(a.id))
				}
			}
			pi, po := carryProbes(c, tp, a.id, b.id, keep)
			pings, pongs = pings+pi, pongs+po
		}
		if pings != 1 || pongs != 1 {
			t.Fatalf("interval %d: %d pings and %d pongs between %d and %d, want one pair", k, pings, pongs, a.id, b.id)
		}
		if got, want := samples(a, b.id)-aS, k; got != want {
			t.Fatalf("interval %d: %d holds %d detector samples of %d, want %d", k, a.id, got, b.id, want)
		}
		if got, want := samples(b, a.id)-bS, k; got != want {
			t.Fatalf("interval %d: %d holds %d detector samples of %d, want %d", k, b.id, got, a.id, want)
		}
		if a.miss[b.id] != 0 || b.miss[a.id] != 0 {
			t.Fatalf("interval %d: miss streaks %d and %d on a link that answered", k, a.miss[b.id], b.miss[a.id])
		}
		if k == 1 {
			if got, want := entryPeers(a.rview.succ), bSuccs[:len(a.rview.succ)-1]; !slices.Equal(got[1:], want) {
				t.Errorf("after one pair %d's successors are %v, want %d then %v", a.id, got, b.id, want)
			}
			if got, want := entryPeers(b.rview.pred), aPreds[:len(b.rview.pred)-1]; !slices.Equal(got[1:], want) {
				t.Errorf("after one pair %d's predecessors are %v, want %d then %v", b.id, got, a.id, want)
			}
		}
	}
	if got := met.Get(obs.CHeartbeatProbed); got != intervals {
		t.Errorf("heartbeat_peer_probed = %d, want %d: one end stood in each interval", got, intervals)
	}
	if got := met.Get(obs.CHeartbeatSuppress); got != 0 {
		t.Errorf("heartbeat_suppressed = %d on idle links, want 0", got)
	}
}

// TestPeerProbeStandsInOnce: q pings p and falls silent. p's next sweep
// takes the ping as its probe of q, with one online sample; the sweep
// after that pings q, and the one after folds the miss.
func TestPeerProbeStandsInOnce(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 40, 5, Options{HeartbeatEvery: time.Hour, Obs: met})
	p := c.Nodes[11]
	q := c.Nodes[p.shortPred]
	tp.take(0)
	q.sendHeartbeats()
	carryProbes(c, tp, p.id, q.id, func(from, to int32) bool { return from == int32(q.id) && to == int32(p.id) })

	pingsTo := func(to overlay.PeerID) int {
		n := 0
		for _, f := range tp.take(wire.KindPing) {
			if f.hop == int32(to) {
				n++
			}
		}
		return n
	}
	s0 := p.cma[q.id]
	p.sendHeartbeats()
	if n := pingsTo(q.id); n != 0 {
		t.Fatalf("the sweep after %d's ping sent it %d pings, want the ping to stand in", q.id, n)
	}
	if s1 := p.cma[q.id]; s1.Samples() != s0.Samples()+1 || p.miss[q.id] != 0 {
		t.Fatalf("the stand-in left %d samples (was %d) and a miss streak of %d, want one more sample and none", s1.Samples(), s0.Samples(), p.miss[q.id])
	}
	if got := met.Get(obs.CHeartbeatProbed); got != 1 {
		t.Fatalf("heartbeat_peer_probed = %d, want 1", got)
	}
	p.sendHeartbeats()
	if n := pingsTo(q.id); n != 1 {
		t.Fatalf("the sweep after the stand-in sent %d pings to the silent %d, want 1", n, q.id)
	}
	p.sendHeartbeats()
	if p.miss[q.id] != 1 {
		t.Fatalf("the third sweep left a miss streak of %d for the silent %d, want 1", p.miss[q.id], q.id)
	}
	if got := met.Get(obs.CHeartbeatProbed); got != 1 {
		t.Fatalf("heartbeat_peer_probed = %d after the silence, want still 1", got)
	}
}
