package node

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
	"selectps/internal/wire"
)

// replyBitmap is Algorithm 4's friendship bitmap as the passive end of an
// exchange would compute and send it: bit i set when the sender's i-th
// friend (theirs, the neighborhood the exchange carried) is among the
// passive end's links. No node sends it; both ends derive it from the
// routing table they receive (learnLinks), and it is the reference those
// derivations are held to.
func replyBitmap(theirs []overlay.PeerID, links []overlay.PeerID) []uint64 {
	var bm []uint64
	for i, f := range theirs {
		if i%64 == 0 {
			bm = append(bm, 0)
		}
		if slices.Contains(links, f) {
			bm[i/64] |= 1 << (i % 64)
		}
	}
	return bm
}

// TestExchangeLearnsBitmapBothWays: the passive end of an exchange learns
// the sender's bitmap from the routing table the exchange carries, and a
// changed bitmap lifts a refusal from it without forgetting the streak —
// as the active end does from the reply's table. For random link sets
// the bitmap either end derives is the one the passive end would have
// computed for its reply.
func TestExchangeLearnsBitmapBothWays(t *testing.T) {
	const n = 40
	g, c, tp := frozenCluster(t, n, 5, Options{})
	a := c.Nodes[topDegree(g)]
	friends := g.Neighbors(a.id)
	f := friends[0]
	rt := []overlay.PeerID{friends[1], friends[2], overlay.PeerID(n - 1)}
	delete(a.bitmaps, f)
	a.refused[f] = refusal{until: a.mtick + 64, streak: 5}
	a.handle(&wire.Message{
		Kind: wire.KindExchangeRT, From: int32(f), To: int32(a.id), Seq: 1,
		Neighborhood: g.Neighbors(f), RoutingTable: slices.Clone(rt),
	})
	if got, want := a.bitmaps[f], replyBitmap(friends, rt); !slices.Equal(got, want) {
		t.Fatalf("after an inbound exchange from %d: bitmap %x, want %x", f, got, want)
	}
	if r := a.refused[f]; a.isRefused(f) || r.streak != 5 {
		t.Fatalf("after the sender's bitmap changed: refused=%v streak=%d, want lifted with its streak of 5", a.isRefused(f), r.streak)
	}
	if replies := tp.take(wire.KindExchangeReply); len(replies) != 1 || len(replies[0].m.Bitmap) != 0 {
		t.Fatalf("the exchange was answered by %d replies (bitmap %v), want one with no bitmap", len(replies), replies)
	}

	// The property: random links for the passive end q of an exchange
	// with p. The active end learns from q's reply, the passive end from
	// p's exchange; each must hold what q's (or p's) reply bitmap would say.
	rng := rand.New(rand.NewSource(9))
	pick := func(fr []overlay.PeerID) overlay.PeerID {
		if rng.Intn(2) == 0 {
			return fr[rng.Intn(len(fr))]
		}
		return overlay.PeerID(rng.Intn(n))
	}
	randomLinks := func(nd *Node, fr []overlay.PeerID) {
		nd.shortSucc, nd.shortPred = pick(fr), pick(fr)
		nd.longOut, nd.longIn = nd.longOut[:0], nd.longIn[:0]
		for k := rng.Intn(6); k > 0; k-- {
			nd.longOut = append(nd.longOut, pick(fr))
		}
		for k := rng.Intn(6); k > 0; k-- {
			nd.longIn = append(nd.longIn, pick(fr))
		}
	}
	for trial := 0; trial < 2000; trial++ {
		p := overlay.PeerID(rng.Intn(n))
		pf := g.Neighbors(p)
		if len(pf) == 0 {
			continue
		}
		q := pf[rng.Intn(len(pf))]
		pn, qn := c.Nodes[p], c.Nodes[q]
		randomLinks(qn, pf)
		pn.handleExchangeReply(&wire.Message{
			Kind: wire.KindExchangeReply, From: int32(q), To: int32(p), NMutual: 1, RoutingTable: qn.links(),
		})
		if got, want := pn.bitmaps[q], replyBitmap(pf, qn.links()); !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d learned %x for %d from its reply, the reply bitmap reads %x", trial, p, got, q, want)
		}
		if trial%8 != 0 {
			continue
		}
		randomLinks(pn, g.Neighbors(q))
		qn.handleExchange(&wire.Message{
			Kind: wire.KindExchangeRT, From: int32(p), To: int32(q), Seq: uint32(trial),
			Neighborhood: pf, RoutingTable: pn.links(),
		})
		if got, want := qn.bitmaps[p], replyBitmap(g.Neighbors(q), pn.links()); !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d learned %x for %d from its exchange, the reply bitmap reads %x", trial, q, got, p, want)
		}
		tp.take(wire.KindExchangeReply)
	}
}

// TestGossipBacksOffThroughFriendChurn: what an exchange teaches is no
// cadence event (DESIGN.md §15.2). A node whose friends answer every
// exchange with a changed routing table, and send it changed tables of
// their own, still reaches the gossip cap after one sampler pass and
// stays there: their news changes what the node knows, never what it
// sends.
func TestGossipBacksOffThroughFriendChurn(t *testing.T) {
	g, c, tp := frozenCluster(t, 40, 5, Options{GossipEvery: time.Hour})
	a := c.Nodes[topDegree(g)]
	friends := g.Neighbors(a.id)
	deg := len(friends)
	// Start at a pass boundary from the base cadence with no history.
	for r := a.sampler.Rounds(); a.sampler.Rounds() == r; {
		a.sendExchange()
	}
	a.gs.Cadence = selectcore.Cadence{}
	tp.take(wire.KindExchangeRT)

	// Every table a friend sends in pass k names a different friend of a,
	// so each one changes a's lookahead and bitmap for its sender.
	table := func(pass int) []int32 {
		return []int32{int32(friends[pass%deg]), int32(friends[(pass+1)%deg])}
	}
	for pass := 1; pass <= selectcore.CadenceMaxLevel+1; pass++ {
		for i := 0; i < deg; i++ {
			a.sendExchange()
			ex := tp.take(wire.KindExchangeRT)
			if len(ex) != 1 {
				t.Fatalf("pass %d: %d exchanges sent, want 1", pass, len(ex))
			}
			f := ex[0].m.To
			a.handleExchangeReply(&wire.Message{
				Kind: wire.KindExchangeReply, From: f, To: int32(a.id), Seq: ex[0].m.Seq,
				NMutual: 1, RoutingTable: table(pass),
			})
			h := friends[(i+pass)%deg]
			a.handleExchange(&wire.Message{
				Kind: wire.KindExchangeRT, From: int32(h), To: int32(a.id), Seq: uint32(i),
				Neighborhood: g.Neighbors(h), RoutingTable: table(pass + 1),
			})
		}
		if want := selectcore.CadenceMaxLevel; a.gs.Level() != want {
			t.Fatalf("after %d sampler passes of changed tables: gossip level %d, want %d", pass, a.gs.Level(), want)
		}
		// The news was taken in all the same.
		f := friends[0]
		learned := func(rt []int32) bool {
			return slices.Equal(a.lookahead[f], rt) && slices.Equal(a.bitmaps[f], replyBitmap(friends, rt))
		}
		if !learned(table(pass)) && !learned(table(pass+1)) {
			t.Fatalf("pass %d: %d holds table %v and bitmap %x for %d, neither from this pass", pass, a.id, a.lookahead[f], a.bitmaps[f], f)
		}
	}
}

// TestLinkChangeReachesFriendsInOnePass is the other half of the rule:
// gossip needs no reset on news because the node whose links changed
// resets itself and pushes its new table to every friend in one sampler
// pass at the base interval. After a long link goes on a calm cluster,
// every member friend of both ends holds the new table as lookahead, and
// the bitmap derived from it, within that pass — counted from wherever
// the sampler stood when the link went.
func TestLinkChangeReachesFriendsInOnePass(t *testing.T) {
	const base = 100 * time.Millisecond
	// No maintenance: the bootstrap ring and links stay put, so the one
	// link this test drops is the only change.
	g, c := buildCluster(t, 40, 7, Options{HeartbeatEvery: base, GossipEvery: base})
	defer shutdown(t, c)
	awaitCalm(t, c, 30*time.Second)

	// A node with a long link whose gossip has backed off to the cap: it
	// takes three quiet sampler passes, the last two of them backed off.
	var x *Node
	var y overlay.PeerID
	waitFor(t, 60*time.Second, "a linked node whose gossip sits at the cap", func() bool {
		for _, nd := range c.Nodes {
			nd.do(func() {
				if x == nil && len(nd.longOut) > 0 && nd.gs.Level() == selectcore.CadenceMaxLevel {
					x, y = nd, nd.longOut[0]
				}
			})
		}
		return x != nil
	})
	// The link goes at both ends, as a LinkDrop from either tears it down.
	tables := make(map[overlay.PeerID][]overlay.PeerID)
	start := time.Now()
	for _, e := range [][2]overlay.PeerID{{x.id, y}, {y, x.id}} {
		nd := c.Nodes[e[0]]
		nd.do(func() {
			nd.handle(&wire.Message{Kind: wire.KindLinkDrop, From: int32(e[1]), To: int32(nd.id)})
			tables[nd.id] = nd.links()
		})
	}

	for end, rt := range tables {
		// One pass from wherever the sampler stands reaches every friend
		// within 2·deg−1 exchanges — the friends the interrupted pass
		// visited before the change come round in the next — the first one
		// on the base grid at most one interval after the reset; and two
		// intervals of slack for a test host busy with other packages.
		bound := time.Duration(2*g.Degree(end)+2) * base
		for _, f := range g.Neighbors(end) {
			if !c.dir.isMember(f) {
				continue
			}
			fn := c.Nodes[f]
			want := replyBitmap(g.Neighbors(f), rt)
			for {
				var look []overlay.PeerID
				var bm []uint64
				fn.do(func() { look, bm = slices.Clone(fn.lookahead[end]), slices.Clone(fn.bitmaps[end]) })
				if slices.Equal(look, rt) && slices.Equal(bm, want) {
					break
				}
				if since := time.Since(start); since > bound {
					t.Fatalf("%v after %d's link changed, friend %d holds table %v and bitmap %x for it, want %v and %x (bound %v)",
						since, end, f, look, bm, rt, want, bound)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		t.Logf("every friend of %d (degree %d) learned its new table within %v (bound %v)", end, g.Degree(end), time.Since(start), bound)
	}
}

// TestRedundantLinkDropIsALinkEvent: a maintain round that drops a
// same-bucket link its representative covers changes this node's routing
// table like any other link change, so it resets the cadence too — the
// friends learn the new table from this node's next pass at the base
// interval, since their own news no longer wakes them.
func TestRedundantLinkDropIsALinkEvent(t *testing.T) {
	met := obs.New()
	g, c, _ := frozenCluster(t, 40, 5, Options{GossipEvery: time.Hour, Obs: met})
	a := c.Nodes[topDegree(g)]
	friends := g.Neighbors(a.id)
	u, v := friends[0], friends[1]
	// Each links to the other: one bucket, and either covers the other.
	both := replyBitmap(friends, []overlay.PeerID{u, v})
	a.longOut = []overlay.PeerID{u, v}
	a.bitmaps = map[overlay.PeerID][]uint64{u: both, v: slices.Clone(both)}
	a.gs.Cadence = a.gs.Pass()
	resets := met.Get(obs.CCadenceResetLink)
	a.relink()
	if len(a.longOut) != 1 {
		t.Fatalf("long links %v after the round, want one of %d and %d dropped as covered", a.longOut, u, v)
	}
	if got := met.Get(obs.CCadenceResetLink) - resets; got != 1 || a.gs.Level() != 0 {
		t.Fatalf("the covered link's drop counted %d link resets and left gossip at level %d, want 1 and 0", got, a.gs.Level())
	}
}

// longOnly returns a peer a holds as a long link and not as a ring head,
// so that removing it changes a's routing table.
func longOnly(t *testing.T, a *Node) overlay.PeerID {
	t.Helper()
	for _, q := range append(slices.Clone(a.longOut), a.longIn...) {
		if q != a.shortSucc && q != a.shortPred {
			return q
		}
	}
	t.Fatalf("node %d has no long link that is not a ring head", a.id)
	return -1
}

// capCadence puts both of n's timers at the cap with no event pending.
func capCadence(n *Node) {
	for n.hb.Level() < selectcore.CadenceMaxLevel {
		n.hb.Cadence = n.hb.Round()
	}
	n.gs.Cadence = n.gs.Pass()
}

// TestGossipRestsAfterOneCleanPass: gossip has two speeds (DESIGN.md
// §15.2). A sampler pass no event landed in has told every friend the
// current table, and the timer goes from the base interval straight to
// the cap. A table change drops it back to base, the pass the change
// landed in closes at base — the friends it visited before the change
// heard the old table — and the next clean pass puts it at the cap again.
func TestGossipRestsAfterOneCleanPass(t *testing.T) {
	const base = 100 * time.Millisecond
	g, c, tp := frozenCluster(t, 40, 5, Options{GossipEvery: base})
	a := c.Nodes[topDegree(g)]
	deg := g.Degree(a.id)
	x := longOnly(t, a)
	// Start at a pass boundary from the base cadence with no history.
	for r := a.sampler.Rounds(); a.sampler.Rounds() == r; {
		a.sendExchange()
	}
	a.gs.Cadence = selectcore.Cadence{}
	tp.take(0)

	// pass runs one sampler pass, calling mid (if any) before its middle
	// exchange, and returns the gossip level after each exchange.
	pass := func(mid func()) []int {
		levels := make([]int, deg)
		for i := range levels {
			if i == deg/2 && mid != nil {
				mid()
			}
			a.sendExchange()
			levels[i] = a.gs.Level()
		}
		return levels
	}
	// restsAtLast says whether a pass ran at base and reached the cap with
	// its last exchange.
	restsAtLast := func(levels []int) bool {
		return slices.Max(levels[:deg-1]) == 0 && levels[deg-1] == selectcore.CadenceMaxLevel
	}
	if levels := pass(nil); !restsAtLast(levels) {
		t.Fatalf("first clean pass: gossip levels %v, want base until the last exchange and the cap after it", levels)
	}
	if sent := len(tp.take(wire.KindExchangeRT)); sent != deg {
		t.Fatalf("the pass sent %d exchanges, want one per friend (%d)", sent, deg)
	}
	at := time.Now()
	if next := a.gossipFire(at, at, false); !next.Equal(at.Add(base << selectcore.CadenceMaxLevel)) {
		t.Fatalf("after a clean pass the next exchange is %v away, want %v", next.Sub(at), base<<selectcore.CadenceMaxLevel)
	}

	// A long link goes mid-pass: base at once, and the pass closes at base.
	levels := pass(func() {
		a.handle(&wire.Message{Kind: wire.KindLinkDrop, From: int32(x), To: int32(a.id)})
	})
	if slices.Min(levels[:deg/2]) != selectcore.CadenceMaxLevel || slices.Max(levels[deg/2:]) != 0 {
		t.Fatalf("a pass with a link change before exchange %d: gossip levels %v, want the cap before it and base from it on", deg/2+1, levels)
	}
	if levels := pass(nil); !restsAtLast(levels) {
		t.Fatalf("the clean pass after the change: gossip levels %v, want base until the last exchange and the cap after it", levels)
	}
}

// TestGossipWakesOnlyOnTableChange: every path that changes a node's own
// routing table — the one thing its exchanges carry — pulls gossip in
// along with the heartbeat. An event that leaves the table as it was
// drops the heartbeat to the base interval and leaves gossip at the cap.
func TestGossipWakesOnlyOnTableChange(t *testing.T) {
	setup := func(t *testing.T) (*Cluster, *Node, *obs.Metrics) {
		met := obs.New()
		g, c, _ := frozenCluster(t, 40, 5, Options{HeartbeatEvery: time.Hour, GossipEvery: time.Hour, Obs: met})
		return c, c.Nodes[topDegree(g)], met
	}
	// Each case prepares its node and returns the mutation.
	mutators := []struct {
		name string
		prep func(t *testing.T, c *Cluster, a *Node) func()
	}{
		{"incoming link accepted", func(t *testing.T, c *Cluster, a *Node) func() {
			a.longIn = a.longIn[:0]
			s := strangers(c, a, 1)[0]
			return func() { a.handle(&wire.Message{Kind: wire.KindLinkProposal, From: int32(s), To: int32(a.id)}) }
		}},
		{"outgoing link accepted", func(t *testing.T, c *Cluster, a *Node) func() {
			a.longOut = a.longOut[:0]
			s := strangers(c, a, 1)[0]
			a.pendingOut[s] = true
			return func() { a.handle(&wire.Message{Kind: wire.KindLinkAccept, From: int32(s), To: int32(a.id)}) }
		}},
		{"link dropped by its peer", func(t *testing.T, c *Cluster, a *Node) func() {
			x := longOnly(t, a)
			return func() { a.handle(&wire.Message{Kind: wire.KindLinkDrop, From: int32(x), To: int32(a.id)}) }
		}},
		{"departed link pruned", func(t *testing.T, c *Cluster, a *Node) func() {
			x := longOnly(t, a)
			return func() { c.dir.setMember(x, false); a.pruneGone() }
		}},
		{"linked peer left", func(t *testing.T, c *Cluster, a *Node) func() {
			x := longOnly(t, a)
			return func() { a.handle(&wire.Message{Kind: wire.KindLeave, From: int32(x), To: int32(a.id)}) }
		}},
		{"dead link evicted", func(t *testing.T, c *Cluster, a *Node) func() {
			x := longOnly(t, a)
			return func() { a.evictDead(x, time.Now()) }
		}},
		{"ring head left", func(t *testing.T, c *Cluster, a *Node) func() {
			s := a.shortSucc
			return func() { a.handle(&wire.Message{Kind: wire.KindLeave, From: int32(s), To: int32(a.id)}) }
		}},
		{"nearer successor announced", func(t *testing.T, c *Cluster, a *Node) func() {
			s := strangers(c, a, 1)[0]
			own := c.dir.position(a.id)
			mid := ring.ID(math.Mod(float64(own)+ring.Clockwise(own, c.dir.position(a.shortSucc))/2, 1))
			return func() {
				a.handle(&wire.Message{Kind: wire.KindIDAnnounce, From: int32(s), To: int32(a.id), Pos: math.Float64bits(float64(mid))})
			}
		}},
	}
	for _, tc := range mutators {
		t.Run(tc.name, func(t *testing.T) {
			c, a, met := setup(t)
			mutate := tc.prep(t, c, a)
			before := a.links()
			capCadence(a)
			resets := met.Get(obs.CCadenceResetLink) + met.Get(obs.CCadenceResetRing)
			mutate()
			if after := a.links(); slices.Equal(before, after) {
				t.Fatalf("the table did not change: %v", after)
			}
			if got := met.Get(obs.CCadenceResetLink) + met.Get(obs.CCadenceResetRing) - resets; got == 0 {
				t.Errorf("no link or ring reset counted")
			}
			if a.gs.Level() != 0 || a.hb.Level() != 0 {
				t.Errorf("after the table changed: gossip level %d, heartbeat level %d, want both 0", a.gs.Level(), a.hb.Level())
			}
		})
	}

	events := []struct {
		name string
		prep func(t *testing.T, c *Cluster, a *Node) func()
	}{
		{"membership", func(t *testing.T, c *Cluster, a *Node) func() {
			return func() { a.cadenceEvent(selectcore.CadenceMembership) }
		}},
		{"miss", func(t *testing.T, c *Cluster, a *Node) func() {
			return func() { a.cadenceEvent(selectcore.CadenceMiss) }
		}},
		{"retry", func(t *testing.T, c *Cluster, a *Node) func() {
			return func() { a.cadenceEvent(selectcore.CadenceRetry) }
		}},
		{"suspect", func(t *testing.T, c *Cluster, a *Node) func() {
			return func() { a.cadenceEvent(selectcore.CadenceDetector) }
		}},
		{"far peer announced", func(t *testing.T, c *Cluster, a *Node) func() {
			// The stranger farthest round the ring from a, at its own
			// position: the IDAnnounce is handled and no head moves.
			own, far, best := c.dir.position(a.id), overlay.PeerID(-1), -1.0
			for _, s := range strangers(c, a, len(c.Nodes)) {
				if d := ring.Distance(own, c.dir.position(s)); d > best {
					far, best = s, d
				}
			}
			return func() {
				a.handle(&wire.Message{Kind: wire.KindIDAnnounce, From: int32(far), To: int32(a.id), Pos: posBits(c, far)})
			}
		}},
		{"unlinked peer pruned from the ring view", func(t *testing.T, c *Cluster, a *Node) func() {
			links := a.links()
			var x overlay.PeerID = -1
			for _, e := range append(slices.Clone(a.rview.succ), a.rview.pred...) {
				if !slices.Contains(links, e.peer) {
					x = e.peer
					break
				}
			}
			if x < 0 {
				t.Fatalf("every ring view entry of %d is a link", a.id)
			}
			return func() { c.dir.setMember(x, false); a.pruneGone() }
		}},
		{"missed probe folded", func(t *testing.T, c *Cluster, a *Node) func() {
			x := longOnly(t, a)
			return func() {
				a.pendingPings[1<<31] = x
				a.sendHeartbeats()
			}
		}},
	}
	for _, tc := range events {
		t.Run(tc.name, func(t *testing.T) {
			c, a, met := setup(t)
			mutate := tc.prep(t, c, a)
			before := a.links()
			capCadence(a)
			mutate()
			if after := a.links(); !slices.Equal(before, after) {
				t.Fatalf("the table changed from %v to %v", before, after)
			}
			if got := met.Get(obs.CCadenceResetLink) + met.Get(obs.CCadenceResetRing); got != 0 {
				t.Errorf("%d link or ring resets counted for an event that left the table alone", got)
			}
			if a.gs.Level() != selectcore.CadenceMaxLevel || a.hb.Level() != 0 {
				t.Errorf("gossip level %d, heartbeat level %d, want %d and 0", a.gs.Level(), a.hb.Level(), selectcore.CadenceMaxLevel)
			}
		})
	}
}
