package node

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/pubsub"
	"selectps/internal/socialgraph"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// Tests of the threading contract (DESIGN.md §11): the exported API
// enters a node through its shard loop, so under -race any access off
// the loop is a reported race.

// readEverything calls every getter of node p and of the cluster.
func readEverything(c *Cluster, p, q overlay.PeerID, seq uint32) {
	n := c.Nodes[p]
	n.Received(q, seq)
	n.Acked(seq)
	n.Exchanges()
	n.LinkAvailability(q)
	n.Lookahead(q)
	n.ID()
	n.Joined()
	n.Links()
	n.RingNeighbors()
	n.RingList()
	n.Position()
	n.LinkCoverage()
	n.DeadLetters()
	n.PendingRepairs()
	n.TopicRendezvous("#hammer")
	n.TopicSubscribers("#hammer")
	n.PendingTopicPublishes()
	n.InboxReplicas()
	n.Adversary()
	c.RingConsistent(p)
	c.RingHeads(p)
	c.HeadForged(p, q)
	c.InboxDepth()
	c.Shards()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	c.AwaitDelivery(ctx, q, seq, []overlay.PeerID{p})
	cancel()
}

// TestAPIConcurrentWithTraffic: while publishers post, eight goroutines
// call every exported entry point — crash and rejoin, leave and join,
// subscribe, publish and unsubscribe on a topic, adversary switches, pause
// and resume, every getter. Nothing races, nothing hangs, no handler sees
// a publication twice, and every peer that stayed up sees every one once.
func TestAPIConcurrentWithTraffic(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "switchboard"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) { hammerAPI(t, tcp) })
	}
}

func hammerAPI(t *testing.T, tcp bool) {
	const n, seed, posts = 60, 19, 40
	g, ov := buildOverlay(t, n, seed)
	var tr transport.Transport = transport.NewSwitchboard(n, 4096)
	if tcp {
		tt, err := transport.NewTCP(n, 4096)
		if err != nil {
			t.Fatal(err)
		}
		tr = tt
	}
	met := obs.New()
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: tr, Seed: seed, Obs: met,
		HeartbeatEvery: 20 * time.Millisecond, GossipEvery: 20 * time.Millisecond, MaintainEvery: 20 * time.Millisecond,
		RetryBase: 10 * time.Millisecond, RetryBudget: 200, Inbox: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)

	// Two publishers; the peers the hammer takes down or turns are neither
	// them nor, for the liar, anyone's relay of choice.
	pubs := []overlay.PeerID{topDegree(g), -1}
	for p := overlay.PeerID(0); p < n; p++ {
		if p != pubs[0] && g.Degree(p) >= 4 {
			pubs[1] = p
			break
		}
	}
	var spare []overlay.PeerID
	for p := overlay.PeerID(n - 1); len(spare) < 4; p-- {
		if p != pubs[0] && p != pubs[1] {
			spare = append(spare, p)
		}
	}
	crasher, leaver, topical, liar := spare[0], spare[1], spare[2], spare[3]
	unsteady := map[overlay.PeerID]bool{crasher: true, leaver: true}

	type key struct {
		sub, pub overlay.PeerID
		seq      uint32
	}
	var mu sync.Mutex
	got := make(map[key]int)
	for p, nd := range c.Nodes {
		p := overlay.PeerID(p)
		nd.OnDeliver(func(d Delivery) {
			mu.Lock()
			got[key{p, d.Publisher, d.Seq}]++
			mu.Unlock()
		})
	}

	stop := make(chan struct{})
	var hammer sync.WaitGroup
	loop := func(body func(i int)) {
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					body(i)
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	loop(func(int) {
		c.Crash(crasher)
		time.Sleep(5 * time.Millisecond)
		if err := c.Rejoin(ctx, crasher, -1); err != nil {
			t.Errorf("rejoin: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	})
	loop(func(int) {
		c.Nodes[leaver].Leave()
		time.Sleep(5 * time.Millisecond)
		if err := c.Join(ctx, leaver, -1); err != nil {
			t.Errorf("join: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	})
	loop(func(i int) {
		h := c.Nodes[topical].Topic("#hammer")
		sub, err := h.Subscribe(ctx)
		if err != nil {
			t.Errorf("subscribe: %v", err)
			return
		}
		sub.OnDeliver(func(Delivery) {})
		if _, err := h.Publish([]byte("x"), WithPriority(inbox.Low)); err != nil {
			t.Errorf("topic publish: %v", err)
		}
		if err := sub.Unsubscribe(ctx); err != nil {
			t.Errorf("unsubscribe: %v", err)
		}
	})
	loop(func(i int) {
		// A liar only inflates the mutual counts it reports: delivery holds.
		c.Nodes[liar].SetAdversary(AdvLiar, pubs[0], []overlay.PeerID{liar})
		c.Nodes[liar].Adversary()
		c.Nodes[liar].SetAdversary(AdvNone, -1, nil)
		c.Nodes[topical].Pause()
		c.Nodes[topical].Resume()
		time.Sleep(time.Millisecond)
	})
	for k := 0; k < 4; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		loop(func(i int) {
			readEverything(c, overlay.PeerID(rng.Intn(n)), pubs[i%2], uint32(1+rng.Intn(posts)))
		})
	}

	type post struct {
		pub overlay.PeerID
		seq uint32
	}
	var sent []post
	for i := 0; i < posts; i++ {
		p := pubs[i%2]
		seq, err := c.Nodes[p].Topic(UserTopic(p)).Publish([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, post{p, seq})
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	hammer.Wait()

	for _, ps := range sent {
		var steady []overlay.PeerID
		for _, s := range g.Neighbors(ps.pub) {
			if !unsteady[s] {
				steady = append(steady, s)
			}
		}
		if k, ok := await(c, ps.pub, ps.seq, steady, 30*time.Second); !ok {
			t.Fatalf("publication %v reached %d of %d peers that stayed up", ps, k, len(steady))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for k, times := range got {
		if times != 1 {
			t.Errorf("%v delivered %d times", k, times)
		}
	}
	for _, ps := range sent {
		for _, s := range g.Neighbors(ps.pub) {
			if !unsteady[s] && got[key{s, ps.pub, ps.seq}] != 1 {
				t.Errorf("subscriber %d: publication %v delivered %d times", s, ps, got[key{s, ps.pub, ps.seq}])
			}
		}
	}
}

// TestPublishOnCrashedNode: commands are API calls, not network input. A
// publication made on a crashed peer is registered with its repair engine
// and goes out when the peer is back; Publish followed by Crash registers
// the publication first; and a getter called after Publish sees it.
func TestPublishOnCrashedNode(t *testing.T) {
	g, c := buildCluster(t, 60, 12, Options{
		HeartbeatEvery: 20 * time.Millisecond, MaintainEvery: 20 * time.Millisecond,
		RetryBase: 10 * time.Millisecond, RetryBudget: 200,
	})
	defer shutdown(t, c)
	pub := topDegree(g)
	nd := c.Nodes[pub]
	subs := g.Neighbors(pub)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	c.Crash(pub)
	dark := publishSize(nd, 64)
	if k := nd.PendingRepairs(); k != 1 {
		t.Fatalf("%d publications in the repair engine after Publish on a crashed peer, want 1", k)
	}
	if err := c.Rejoin(ctx, pub, -1); err != nil {
		t.Fatal(err)
	}
	if k, ok := await(c, pub, dark, subs, 20*time.Second); !ok {
		t.Fatalf("the publication made while crashed reached %d of %d after the rejoin", k, len(subs))
	}

	// Publish then Crash: the first send leaves before the peer goes down,
	// so subscribers hear of the publication while it is still down. Had
	// the crash overtaken it there would have been no link to send on.
	last := publishSize(nd, 64)
	c.Crash(pub)
	waitFor(t, 10*time.Second, "the first send of a publication made just before the crash", func() bool {
		k, _ := await(c, pub, last, subs, time.Millisecond)
		return 2*k >= len(subs)
	})
	if err := c.Rejoin(ctx, pub, -1); err != nil {
		t.Fatal(err)
	}
	if k, ok := await(c, pub, last, subs, 20*time.Second); !ok {
		t.Fatalf("the publication made just before the crash reached %d of %d", k, len(subs))
	}
	waitFor(t, 10*time.Second, "every ack home", func() bool { return nd.Acked(last) == len(subs) })
}

// TestHandlerPublishesReply: a callback may publish. Two friends answer
// each other's publications from their OnDeliver handlers ten thousand
// times, the first answer being a burst of twice cmdBacklog from one
// callback — past the level at which an outside caller is made to wait.
// A loop goroutine made to wait there waits for itself.
func TestHandlerPublishesReply(t *testing.T) {
	for _, shards := range []int{1, 2} {
		// A sparse graph — a ring with a few chords — so that a publication
		// is three frames, not thirty, and the burst fits the mailboxes.
		const n, seed, total = 24, 8, 10_000
		gb := socialgraph.NewBuilder(n)
		for p := 0; p < n; p++ {
			gb.AddEdge(overlay.PeerID(p), overlay.PeerID((p+1)%n))
			if p%4 == 0 {
				gb.AddEdge(overlay.PeerID(p), overlay.PeerID((p+n/2)%n))
			}
		}
		g := gb.Build()
		ov, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		// Room for the whole burst: nothing is lost to a full mailbox, so the
		// count below is exact without the repair engine.
		const room = 1 << 15
		c, err := Start(Options{
			Graph: g, Overlay: ov, Transport: transport.NewSwitchboard(n, room), Seed: seed,
			Shards: shards, ShardMailbox: room,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two friends with a link each way and few other friends to serve.
		var a, b overlay.PeerID = -1, -1
		for p := overlay.PeerID(0); p < n; p++ {
			for _, q := range g.Neighbors(p) {
				if slices.Contains(c.Nodes[p].Links(), q) && slices.Contains(c.Nodes[q].Links(), p) &&
					(a < 0 || g.Degree(p)+g.Degree(q) < g.Degree(a)+g.Degree(b)) {
					a, b = p, q
				}
			}
		}
		if a < 0 {
			t.Fatal("no two friends are linked")
		}
		var published, heard atomic.Int64
		reply := func(self, from overlay.PeerID, burst int) DeliverFunc {
			first := true
			return func(d Delivery) {
				if d.Publisher != from {
					return
				}
				heard.Add(1)
				k := 1
				if first {
					first, k = false, burst
				}
				for ; k > 0 && published.Add(1) <= total; k-- {
					if _, err := c.Nodes[self].Topic(UserTopic(self)).Publish(nil, WithSize(8)); err != nil {
						t.Error(err)
					}
				}
			}
		}
		c.Nodes[a].OnDeliver(reply(a, b, 2*cmdBacklog))
		c.Nodes[b].OnDeliver(reply(b, a, 1))
		publishSize(c.Nodes[b], 8)
		// The opening publication and every answer is heard by the other side.
		waitFor(t, 60*time.Second, "ten thousand answers", func() bool { return heard.Load() == total+1 })
		shutdown(t, c)
	}
}

// TestShutdownRace: a call that races Shutdown either runs on the loop
// before it exits or on the caller's goroutine after, never beside it and
// never not at all; calls made after Shutdown run inline.
func TestShutdownRace(t *testing.T) {
	const n, seed, rounds = 16, 3, 200
	g, ov := buildOverlay(t, n, seed)
	pub := topDegree(g)
	for r := 0; r < rounds; r++ {
		c, err := Start(Options{
			Graph: g, Overlay: ov, Transport: transport.NewSwitchboard(n, 256), Seed: seed,
			Shards: 2, RetryBase: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var callers sync.WaitGroup
		var last [4]uint32
		for k := range last {
			callers.Add(1)
			go func() {
				defer callers.Done()
				nd := c.Nodes[(int(pub)+k)%n]
				for i := 0; i < 50; i++ {
					last[k] = publishSize(nd, 16)
					nd.Links()
					c.RingConsistent(nd.id)
				}
			}()
		}
		time.Sleep(time.Duration(r%5) * 100 * time.Microsecond)
		shutdown(t, c)
		callers.Wait()
		// Whichever side of the shutdown a Publish fell on, it ran.
		for k, seq := range last {
			nd := c.Nodes[(int(pub)+k)%n]
			if _, ok := nd.Received(nd.id, seq); !ok {
				t.Fatalf("round %d: publication %d of node %d was never registered", r, seq, nd.id)
			}
		}
	}
}

// subAcks returns the KindTopicSubAck entries of the ack frames among
// frames: the acceptances of registrations and registry transfers.
func subAcks(frames []sent) []wire.AckEntry {
	var out []wire.AckEntry
	for _, f := range frames {
		for _, e := range f.m.Acks {
			if f.m.Kind == wire.KindAckBatch && e.Kind == wire.KindTopicSubAck {
				out = append(out, e)
			}
		}
	}
	return out
}

// TestUnsubscribeOutlivesFramesInFlight drives the receiver of a TopicUnsub
// by hand: what was sent for the pair before the subscriber left and lands
// after — an older registration, a hand-off entry, a deposit — is dropped
// and counted, the deposit is still acked so its sender settles, and only a
// registration the subscriber made later lifts the memory. A registration
// and a registry transfer are acked with KindTopicSubAck entries on the
// ack-batch path; a registration the memory drops is not acked.
func TestUnsubscribeOutlivesFramesInFlight(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 40, 5, Options{Obs: met, RetryBase: 10 * time.Millisecond, Inbox: true})
	const topic = "#gone"
	rv, sub, other, pub := c.Nodes[1], overlay.PeerID(7), overlay.PeerID(9), overlay.PeerID(11)
	frame := func(kind wire.Kind, from overlay.PeerID, seq uint32) *wire.Message {
		return &wire.Message{Kind: kind, From: int32(from), To: int32(rv.id), Seq: seq, Topic: []byte(topic)}
	}
	late := func() int64 { return met.Get(obs.CTopicUnsubLate) }

	rv.handle(frame(wire.KindTopicSub, sub, 10))
	rv.handle(frame(wire.KindTopicSub, other, 3))
	rv.handle(frame(wire.KindTopicUnsub, sub, 12))
	if k := rv.TopicSubscribers(topic); k != 1 {
		t.Fatalf("%d registrations after the unsubscribe, want the other subscriber's", k)
	}
	if acks := subAcks(tp.take(wire.KindAckBatch)); len(acks) != 2 || acks[0].Dest != int32(sub) || acks[0].Seq != 10 || acks[1].Dest != int32(other) || acks[1].Seq != 3 {
		t.Fatalf("registration acks %+v, want one to each subscriber echoing its seq", acks)
	}

	// A refresh that left before the unsubscribe.
	rv.handle(frame(wire.KindTopicSub, sub, 11))
	if acks := subAcks(tp.take(wire.KindAckBatch)); len(acks) != 0 || rv.TopicSubscribers(topic) != 1 || late() != 1 {
		t.Fatalf("an older registration: %d acks, %d registrations, topic_unsub_late = %d", len(acks), rv.TopicSubscribers(topic), late())
	}
	// A hand-off from a peer that had not heard.
	ho := frame(wire.KindTopicHandoff, 20, 1)
	ho.RoutingTable = []int32{int32(sub), int32(other), 15}
	rv.handle(ho)
	if rv.TopicSubscribers(topic) != 2 || late() != 2 {
		t.Fatalf("a hand-off naming the departed subscriber: %d registrations, topic_unsub_late = %d", rv.TopicSubscribers(topic), late())
	}
	if acks := subAcks(tp.take(wire.KindAckBatch)); len(acks) != 1 || acks[0].From != int32(rv.id) || acks[0].Dest != 20 || acks[0].Seq != 1 {
		t.Fatalf("the transfer's acks %+v, want one to its sender 20 echoing seq 1", acks)
	}
	// A deposit under way when the purge passed.
	dep := frame(wire.KindInboxDeposit, pub, 5)
	dep.Publisher, dep.Target, dep.Payload = int32(pub), int32(sub), []byte("x")
	rv.handle(dep)
	if acks := tp.take(wire.KindAckBatch); c.InboxDepth() != 0 || late() != 3 || len(acks) != 1 || acks[0].m.Acks[0].Kind != wire.KindInboxDepositAck {
		t.Fatalf("a late deposit: journal depth %d, topic_unsub_late = %d, acks %+v", c.InboxDepth(), late(), acks)
	}
	// The same deposit for a subscriber that stayed is journaled.
	dep.Target = int32(other)
	rv.handle(dep)
	if c.InboxDepth() != 1 {
		t.Fatalf("journal depth %d after a deposit for a live subscription", c.InboxDepth())
	}

	// A replay under way to the subscriber when the purge passed: the
	// subscriber knows it left, acks the copy away and delivers nothing.
	heard := 0
	rv.OnDeliver(func(Delivery) { heard++ })
	replay := replayFrame(other, rv.id, wire.ReplayRecord{Publisher: int32(pub), Seq: 6, Topic: []byte(topic)})
	rv.handle(replay.Clone())
	acks := replayAcks(tp.take(wire.KindAckBatch))
	if heard != 0 || late() != 4 || len(acks) != 1 || acks[0].Dest != int32(other) || acks[0].Seq != 6 {
		t.Fatalf("a replay of a topic the node left: %d deliveries, topic_unsub_late = %d, acks %+v", heard, late(), acks)
	}
	rv.subTopics[topic] = &topicSub{sub: &Subscription{n: rv, topic: topic}}
	rv.handle(replay.Clone())
	if heard != 1 || late() != 4 {
		t.Fatalf("a replay of a subscribed topic: %d deliveries, topic_unsub_late = %d", heard, late())
	}
	delete(rv.subTopics, topic)

	// Subscribed again, later: the memory is lifted, not waited out.
	rv.handle(frame(wire.KindTopicSub, sub, 13))
	if acks := subAcks(tp.take(wire.KindAckBatch)); len(acks) != 1 || rv.TopicSubscribers(topic) != 3 || late() != 4 {
		t.Fatalf("a newer registration: %d acks, %d registrations, topic_unsub_late = %d", len(acks), rv.TopicSubscribers(topic), late())
	}
	if len(rv.unsubbed) != 0 {
		t.Fatalf("%d unsubscribes still remembered", len(rv.unsubbed))
	}

	// The memory lapses by itself, and the table is bounded.
	rv.handle(frame(wire.KindTopicUnsub, sub, 14))
	rv.unsubbed[unsubKey{topic, sub}] = unsubscribed{seq: 14, until: time.Now().Add(-time.Millisecond)}
	rv.handle(frame(wire.KindTopicSub, sub, 11))
	if rv.TopicSubscribers(topic) != 3 {
		t.Fatal("a lapsed unsubscribe still refuses registrations")
	}
	for i := 0; i < unsubbedMax+10; i++ {
		m := frame(wire.KindTopicUnsub, sub, 20)
		m.Topic = []byte("#" + strconv.Itoa(i))
		rv.handle(m)
	}
	if len(rv.unsubbed) != unsubbedMax {
		t.Fatalf("%d unsubscribes remembered, bound %d", len(rv.unsubbed), unsubbedMax)
	}
}
