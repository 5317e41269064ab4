package node

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// TestLinkProposalRefusalBackoff pins the refusal memory (DESIGN.md
// §8.2): a target whose incoming cap is full is proposed to on the
// doubling schedule — maintain ticks 1, 3, 7, ... with gaps 2, 4, ...,
// 128, 128 — instead of every tick; a change of the target's links — a
// routing table that changes the bitmap derived from it — lifts the wait
// at once, and its accept clears the memory.
func TestLinkProposalRefusalBackoff(t *testing.T) {
	met := obs.New()
	opts := quietOpts()
	opts.Obs = met
	g, c := buildCluster(t, 30, 3, opts)
	defer shutdown(t, c)

	a := c.Nodes[topDegree(g)]
	u := g.Neighbors(a.id)[0]
	target := c.Nodes[u]
	// The proposer has the worst bandwidth in the cluster, so a full
	// target never evicts anyone for it; the target's incoming side is
	// full of other peers.
	a.bw[a.id] = 0
	target.do(func() {
		target.longIn = target.longIn[:0]
		for p := 0; len(target.longIn) < target.cfg.K; p++ {
			if q := overlay.PeerID(p); q != a.id && q != u {
				target.longIn = append(target.longIn, q)
			}
		}
	})
	// The proposer knows one candidate: u. linksTo is a routing table of u
	// that names the proposer's friends at indexes is.
	friends := g.Neighbors(a.id)
	linksTo := func(is ...int) []int32 {
		var rt []int32
		for _, i := range is {
			rt = append(rt, int32(friends[i]))
		}
		return rt
	}
	a.do(func() {
		a.longOut = nil
		a.pendingOut = make(map[overlay.PeerID]bool)
		a.bitmaps = map[overlay.PeerID][]uint64{u: {0}}
	})

	// tick runs one maintain tick, waits for the answer to whatever it
	// proposed, and reports whether it proposed.
	tick := func() bool {
		before := met.Get(obs.CLinkProposal)
		a.do(a.maintainTick)
		waitFor(t, 5*time.Second, "the proposal's answer", func() (answered bool) {
			a.do(func() { answered = !a.pendingOut[u] })
			return answered
		})
		return met.Get(obs.CLinkProposal) > before
	}
	var asked []int
	for i := 1; i <= 400; i++ {
		if tick() {
			asked = append(asked, i)
		}
	}
	want := []int{1, 3, 7, 15, 31, 63, 127, 255, 383}
	if len(asked) != len(want) {
		t.Fatalf("proposed at maintain ticks %v, want %v", asked, want)
	}
	for i := range want {
		if asked[i] != want[i] {
			t.Fatalf("proposed at maintain ticks %v, want %v", asked, want)
		}
	}
	if got := met.Get(obs.CLinkProposalRefused); got != int64(len(want)) {
		t.Fatalf("link_proposal_refused = %d, want %d", got, len(want))
	}

	// The target's links changed (the table it replied with names a friend
	// it did not): ask again right away. Still full, it refuses, and the
	// back-off resumes at the ceiling instead of climbing from two periods
	// again.
	a.do(func() {
		a.handle(&wire.Message{
			Kind: wire.KindExchangeReply, From: int32(u), To: int32(a.id), RoutingTable: linksTo(1),
		})
	})
	if !tick() {
		t.Fatal("no proposal on the first tick after the target's bitmap changed")
	}
	for i := 0; i < 8; i++ {
		if tick() {
			t.Fatalf("proposed again %d ticks after a refusal at the ceiling", i+1)
		}
	}

	// Another change, and this time there is room: the proposal is
	// accepted, and the accept wipes the memory.
	target.do(func() { target.longIn = target.longIn[:0] })
	a.do(func() {
		a.handle(&wire.Message{
			Kind: wire.KindExchangeReply, From: int32(u), To: int32(a.id), RoutingTable: linksTo(1, 2),
		})
	})
	if !tick() {
		t.Fatal("no proposal on the first tick after the target's bitmap changed again")
	}
	var refused, linked bool
	a.do(func() {
		_, refused = a.refused[u]
		linked = a.inLongOut(u)
	})
	if !linked || refused {
		t.Fatalf("after the accept: linked=%v, refusal remembered=%v; want linked and forgotten", linked, refused)
	}
}

// offlineTap counts the publication frames that name the offline peer
// and the ack entries bound for it, whatever hop they were handed to.
type offlineTap struct {
	*transport.Switchboard
	mu      sync.Mutex
	offline int32
	frames  int
}

func (o *offlineTap) Send(to int32, m *wire.Message) error {
	o.mu.Lock()
	if m.Kind == wire.KindPublish && (m.To == o.offline || slices.Contains(m.RoutingTable, o.offline)) {
		o.frames++
	}
	for _, e := range m.Acks {
		if e.Dest == o.offline {
			o.frames++
		}
	}
	o.mu.Unlock()
	return o.Switchboard.Send(to, m)
}

// TestOfflineSkipNeverRoutesToNonMember: a copy whose target the
// directory lists outside the ring is not sent at all — not by the
// publisher, not by a relay, and neither is an ack to a crashed
// publisher — instead of greedy- and random-walking until its TTL is
// spent. Each refusal is counted under its own counter, dead_end keeps
// meaning "no live link", and the subscriber still gets the publication:
// the repair tick deposits it and the rejoin replays it.
func TestOfflineSkipNeverRoutesToNonMember(t *testing.T) {
	const n, seed = 40, 11
	g, ov := buildOverlay(t, n, seed)
	met := obs.New()
	tap := &offlineTap{Switchboard: transport.NewSwitchboard(n, 1024), offline: -1}
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: tap, Seed: seed, Obs: met,
		HeartbeatEvery: 20 * time.Millisecond,
		MaintainEvery:  20 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		Inbox:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)

	pub := topDegree(g)
	sub := g.Neighbors(pub)[0]
	var relay overlay.PeerID
	for relay == pub || relay == sub {
		relay++
	}
	c.Crash(sub)
	tap.mu.Lock()
	tap.offline = int32(sub)
	tap.mu.Unlock()

	// Published: the fan-out skips the offline subscriber.
	seq := publishSize(c.Nodes[pub], 256)
	c.Nodes[pub].do(func() {}) // the fan-out has run
	if got := met.Get(obs.CPublishOfflineSkip); got < 1 {
		t.Fatalf("publish_offline_skip = %d after publishing to a crashed subscriber", got)
	}
	// Relayed: a copy already under way is dropped where it stands.
	skips := met.Get(obs.CPublishOfflineSkip)
	c.Nodes[relay].do(func() {
		c.Nodes[relay].handle(&wire.Message{
			Kind: wire.KindPublish, From: int32(pub), To: int32(sub), Publisher: int32(pub), Seq: 9999, TTL: 8,
		})
	})
	if got := met.Get(obs.CPublishOfflineSkip); got != skips+1 {
		t.Fatalf("publish_offline_skip = %d after relaying toward a crashed subscriber, want %d", got, skips+1)
	}
	// An ack on its way to a crashed publisher likewise.
	c.Nodes[relay].do(func() {
		c.Nodes[relay].handle(&wire.Message{
			Kind: wire.KindAckBatch, From: int32(pub), To: int32(relay),
			Acks: []wire.AckEntry{{Kind: wire.KindAck, From: int32(pub), Dest: int32(sub), Pub: int32(sub), Seq: 1, TTL: 8}},
		})
	})
	if got := met.Get(obs.CAckOfflineDrop); got != 1 {
		t.Fatalf("ack_offline_drop = %d, want 1", got)
	}

	// The durable tier takes over on the first repair tick.
	waitFor(t, 5*time.Second, "the deposit for the offline subscriber", func() bool {
		return met.Get(obs.CInboxDeposit) > 0
	})
	tap.mu.Lock()
	sent := tap.frames
	tap.offline = -1
	tap.mu.Unlock()
	if sent != 0 {
		t.Fatalf("%d publication/ack frames were sent toward the offline peer, want 0", sent)
	}
	if de, ttl := met.Get(obs.CPublishDeadEnd), met.Get(obs.CPublishTTLDrop); de != 0 || ttl != 0 {
		t.Fatalf("publish_dead_end = %d, publish_ttl_drop = %d: a refusal to route offline was miscounted or a copy walked", de, ttl)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Rejoin(ctx, sub, -1); err != nil {
		t.Fatal(err)
	}
	if _, ok := await(c, pub, seq, []overlay.PeerID{sub}, 10*time.Second); !ok {
		t.Fatal("the rejoined subscriber never got the publication it was offline for")
	}
	if got := met.Get(obs.CInboxReplay); got == 0 {
		t.Fatal("inbox_replay = 0: the copy did not arrive by replay")
	}
}
