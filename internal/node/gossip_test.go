package node

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
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
// their own, still climbs one gossip level per sampler pass to the cap:
// their news changes what the node knows, never what it sends.
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
		if want := min(pass, selectcore.CadenceMaxLevel); a.gs.Level() != want {
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
	for a.gs.Level() < selectcore.CadenceMaxLevel {
		a.gs.Cadence = a.gs.Round(selectcore.GossipCalmRounds)
	}
	resets := met.Get(obs.CCadenceResetLink)
	a.relink()
	if len(a.longOut) != 1 {
		t.Fatalf("long links %v after the round, want one of %d and %d dropped as covered", a.longOut, u, v)
	}
	if got := met.Get(obs.CCadenceResetLink) - resets; got != 1 || a.gs.Level() != 0 {
		t.Fatalf("the covered link's drop counted %d link resets and left gossip at level %d, want 1 and 0", got, a.gs.Level())
	}
}
