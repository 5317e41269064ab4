package node

import (
	"slices"
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/wire"
)

// TestAckBatchedDeliveryResolves is ack conservation end to end: every
// subscriber ack must reach the publisher's repair engine through the
// batched path — each publication resolves, none retries forever or
// dead-letters.
func TestAckBatchedDeliveryResolves(t *testing.T) {
	met := obs.New()
	g, c := buildCluster(t, 150, 5, Options{
		RetryBase: 20 * time.Millisecond, Obs: met,
	})
	defer shutdown(t, c)
	pub := topDegree(g)
	subs := g.Neighbors(pub)
	seq := publishSize(c.Nodes[pub], 1000)
	if n, ok := await(c, pub, seq, subs, 10*time.Second); !ok {
		t.Fatalf("only %d/%d subscribers delivered", n, len(subs))
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Nodes[pub].PendingRepairs() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d publications never resolved under ack batching",
				c.Nodes[pub].PendingRepairs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dl := len(c.Nodes[pub].DeadLetters()); dl != 0 {
		t.Fatalf("%d dead letters under ack batching", dl)
	}
	batches, coalesced := met.Get(obs.CAckBatchSent), met.Get(obs.CAckCoalesced)
	if batches == 0 || coalesced == 0 {
		t.Fatalf("coalescing path never ran: batches=%d coalesced=%d", batches, coalesced)
	}
	if batches > coalesced {
		t.Fatalf("more batch frames (%d) than buffered acks (%d)", batches, coalesced)
	}
	if acks := met.Get(obs.CAckReceived); acks < int64(len(subs)) {
		t.Fatalf("publisher consumed %d acks, want >= %d", acks, len(subs))
	}
}

// TestShardCountEquivalentDeliverySetsBatched: coalescing must not make
// the delivery set depend on how many event loops drain it.
func TestShardCountEquivalentDeliverySetsBatched(t *testing.T) {
	deliveries := func(shards int) map[overlay.PeerID]bool {
		g, c := buildCluster(t, 150, 5, Options{Shards: shards})
		defer shutdown(t, c)
		pub := topDegree(g)
		subs := g.Neighbors(pub)
		seq := publishSize(c.Nodes[pub], 1000)
		if n, ok := await(c, pub, seq, subs, 10*time.Second); !ok {
			t.Fatalf("shards=%d: only %d/%d subscribers delivered", shards, n, len(subs))
		}
		got := make(map[overlay.PeerID]bool)
		for _, s := range subs {
			if _, ok := c.Nodes[s].Received(pub, seq); ok {
				got[s] = true
			}
		}
		return got
	}
	one := deliveries(1)
	eight := deliveries(8)
	if len(one) != len(eight) {
		t.Fatalf("delivery sets differ: S=1 got %d, S=8 got %d", len(one), len(eight))
	}
	for s := range one {
		if !eight[s] {
			t.Fatalf("subscriber %d delivered at S=1 but not at S=8", s)
		}
	}
}

// TestAckBatchRelayAndTTLDrop hands the relay ack batches directly: an
// expired routed entry is dropped and counted, a live one relays hop by
// hop to its destination.
func TestAckBatchRelayAndTTLDrop(t *testing.T) {
	met := obs.New()
	_, c := buildCluster(t, 50, 7, Options{Obs: met})
	defer shutdown(t, c)
	relay := c.Nodes[1]
	relay.do(func() {
		relay.handle(&wire.Message{
			Kind: wire.KindAckBatch, From: 2, To: 1,
			Acks: []wire.AckEntry{{Kind: wire.KindAck, From: 2, Dest: 0, Pub: 0, Seq: 9, TTL: 0}},
		})
	})
	if got := met.Get(obs.CAckTTLDrop); got != 1 {
		t.Fatalf("expired relay entry: ack_ttl_drop = %d, want 1", got)
	}
	relay.do(func() {
		relay.handle(&wire.Message{
			Kind: wire.KindAckBatch, From: 2, To: 1,
			Acks: []wire.AckEntry{{Kind: wire.KindAck, From: 2, Dest: 0, Pub: 0, Seq: 9, TTL: 8}},
		})
	})
	dst := c.Nodes[0]
	deadline := time.Now().Add(5 * time.Second)
	for {
		var consumed bool
		dst.do(func() { consumed = ackedBy(&dst.acked, msgID{0, 9}, 2) })
		if consumed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relayed batch entry never reached its destination")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHeartbeatPiggybackSuppressesBusyLink pins the suppression cycle:
// a link with traffic inside the interval skips its ping (one synthetic
// online observation instead) for at most hbSuppressMax consecutive
// rounds, then gets a real ping — pongs carry the ring anti-entropy
// lists that data frames do not.
func TestHeartbeatPiggybackSuppressesBusyLink(t *testing.T) {
	met := obs.New()
	_, c := buildCluster(t, 30, 3, Options{HeartbeatEvery: time.Hour, Obs: met})
	defer shutdown(t, c)
	nd := c.Nodes[0]
	// Silence every other node so no pong mutates pendingPings between a
	// manual sweep and its assertion.
	for _, other := range c.Nodes[1:] {
		other.paused.Store(true)
	}
	links := nd.Links()
	if len(links) == 0 {
		t.Fatal("bootstrap node has no links")
	}
	q := links[0]
	for round := 1; round <= hbSuppressMax+1; round++ {
		pinged, miss := false, 0
		nd.do(func() {
			nd.lastHeard[q] = time.Now()
			nd.sendHeartbeats()
			for _, tgt := range nd.pendingPings {
				if tgt == q {
					pinged = true
				}
			}
			miss = nd.miss[q]
		})
		if round <= hbSuppressMax {
			if pinged {
				t.Fatalf("round %d: busy link %d pinged despite fresh traffic", round, q)
			}
			if miss != 0 {
				t.Fatalf("round %d: suppressed link accumulated %d misses", round, miss)
			}
		} else if !pinged {
			t.Fatalf("round %d: anti-entropy floor should have pinged %d", round, q)
		}
	}
	if got := met.Get(obs.CHeartbeatSuppress); got != hbSuppressMax {
		t.Fatalf("heartbeat_suppressed = %d, want %d", got, hbSuppressMax)
	}
}

// TestHeartbeatIdleDetectionLatencyUnchanged is the acceptance pin for
// failure-detection latency under piggybacking: on a link with NO
// piggybacked traffic nothing is suppressed and every sweep after the
// first folds one miss — a dead peer is suspected after exactly as many
// sweeps as if liveness were never piggybacked.
func TestHeartbeatIdleDetectionLatencyUnchanged(t *testing.T) {
	const rounds = 3
	met := obs.New()
	_, c := buildCluster(t, 30, 3, Options{HeartbeatEvery: time.Hour, Obs: met})
	defer shutdown(t, c)
	nd := c.Nodes[0]
	for _, other := range c.Nodes[1:] {
		other.paused.Store(true) // dead: consumes pings, never pongs
	}
	q := nd.Links()[0]
	miss := 0
	nd.do(func() {
		for i := 0; i < rounds; i++ {
			nd.sendHeartbeats()
		}
		miss = nd.miss[q]
	})
	if got := met.Get(obs.CHeartbeatSuppress); got != 0 {
		t.Fatalf("idle link suppressed %d times", got)
	}
	if got := miss; got != rounds-1 {
		t.Fatalf("miss streak = %d after %d sweeps, want %d", got, rounds, rounds-1)
	}
}

// TestNextPeriodicPreservesPhase pins the stall-skipping deadline math:
// however late the shard ran, the next fire stays on the entry's
// original splitmix64 phase (at + k*every for integral k).
func TestNextPeriodicPreservesPhase(t *testing.T) {
	base := time.Unix(1000, 0)
	every := 50 * time.Millisecond
	cases := []struct {
		late time.Duration
		want time.Duration // next deadline, relative to base
	}{
		{0, every},                     // on time
		{10 * time.Millisecond, every}, // a little behind, next period still future
		{every, 2 * every},             // exactly one period late
		{365 * time.Millisecond, 400 * time.Millisecond}, // 7.3 periods of stall -> period 8
	}
	for _, tc := range cases {
		got := nextPeriodic(base, base.Add(tc.late), every)
		if want := base.Add(tc.want); !got.Equal(want) {
			t.Errorf("nextPeriodic(+%v) = base+%v, want base+%v", tc.late, got.Sub(base), tc.want)
		}
		if phase := got.Sub(base) % every; phase != 0 {
			t.Errorf("nextPeriodic(+%v) drifted off phase by %v", tc.late, phase)
		}
	}
}

// holdCluster is a frozen cluster whose created acks wait 15 ms, with a
// relay, a publisher that is one of its links, and two peers that are
// not.
func holdCluster(t *testing.T, opts Options) (*Cluster, *tap, *Node, overlay.PeerID, []overlay.PeerID) {
	t.Helper()
	opts.RetryBase = 40 * time.Millisecond
	_, c, tp := frozenCluster(t, 60, 9, opts)
	relay := c.Nodes[5]
	if hold := relay.ackHold(); hold != 15*time.Millisecond {
		t.Fatalf("ackHold = %v, want 3/8 of RetryBase", hold)
	}
	pub := relay.links()[0]
	return c, tp, relay, pub, strangers(c, relay, 2, pub)
}

// leafPublish hands relay a copy of pub's publication seq that names it
// and nobody else, as pub's own first send.
func leafPublish(relay *Node, pub overlay.PeerID, seq uint32) {
	m := &wire.Message{
		Kind: wire.KindPublish, From: int32(pub), Publisher: int32(pub), Seq: seq, TTL: 8,
		To: int32(relay.id),
	}
	m.SetHopFrom(int32(pub))
	relay.handle(m)
}

// TestAckHold pins the deadlines of the ack buffer: an ack this node
// creates stays until ackHold and leaves at it, one relay window sooner
// per hop its copy came; an entry it relays leaves within ackFlushEvery
// and takes nothing of another hop's bucket along; the one wheel entry
// sits at the earliest deadline; and a node paused between buffering and
// flush drops what it held.
func TestAckHold(t *testing.T) {
	met := obs.New()
	c, tp, relay, pub, far := holdCluster(t, Options{Obs: met})
	hold := relay.ackHold()

	t0 := time.Now()
	leafPublish(relay, pub, 1)
	if relay.ackFlushAt.Before(t0.Add(hold)) {
		t.Errorf("the wheel entry is armed %v after the ack was made, want at least %v", relay.ackFlushAt.Sub(t0), hold)
	}
	relay.flushAcks(t0.Add(hold - time.Millisecond))
	if acks := tp.take(wire.KindAckBatch); len(acks) != 0 {
		t.Fatalf("%d ack frames left before the hold", len(acks))
	}
	armed := relay.ackFlushAt
	if armed.IsZero() {
		t.Fatal("a flush that sent nothing left the wheel entry unarmed")
	}

	// An entry relayed to another hop: its bucket leaves after
	// ackFlushEvery, the held one stays, and the wheel entry is pulled in
	// and then re-armed at the held bucket's deadline.
	to := c.Nodes[far[0]].links()[0]
	if to == pub || to == relay.id {
		t.Fatalf("the relayed entry's hop %d is the held bucket's or the relay itself", to)
	}
	relay.handle(&wire.Message{Kind: wire.KindAckBatch, From: int32(far[0]), To: int32(relay.id), Acks: []wire.AckEntry{
		{Kind: wire.KindTopicPubAck, From: int32(far[0]), Dest: int32(to), Pub: int32(to), Seq: 4},
	}})
	if !relay.ackFlushAt.Before(armed) {
		t.Errorf("a relayed entry did not pull the wheel entry in: %v, was %v", relay.ackFlushAt, armed)
	}
	relay.flushAcks(time.Now().Add(ackFlushEvery))
	acks := tp.take(wire.KindAckBatch)
	if len(acks) != 1 || acks[0].hop != int32(to) || len(acks[0].m.Acks) != 1 {
		t.Fatalf("after ackFlushEvery: %+v, want the relayed entry alone to %d", acks, to)
	}
	if !relay.ackFlushAt.Equal(armed) {
		t.Errorf("the wheel entry re-armed at %v, want the held bucket's %v", relay.ackFlushAt, armed)
	}
	relay.flushAcks(time.Now().Add(hold))
	acks = tp.take(wire.KindAckBatch)
	if len(acks) != 1 || acks[0].hop != int32(pub) || len(acks[0].m.Acks) != 1 || acks[0].m.Acks[0].Seq != 1 {
		t.Fatalf("at the hold: %+v, want the held ack to %d", acks, pub)
	}
	if !relay.ackFlushAt.IsZero() || len(relay.ackBuckets) != 0 {
		t.Errorf("an empty buffer keeps %d buckets and a wheel entry at %v", len(relay.ackBuckets), relay.ackFlushAt)
	}

	// A copy that came two relays from its publisher: its ack leaves two
	// relay windows sooner, so that it reaches the relays above before
	// their own acks leave.
	t0 = time.Now()
	deep := &wire.Message{
		Kind: wire.KindPublish, From: int32(far[1]), Publisher: int32(far[1]), Seq: 3, TTL: 8,
		To: int32(relay.id), HopCount: 2,
	}
	deep.SetHopFrom(int32(pub))
	relay.handle(deep)
	if at := relay.ackFlushAt.Sub(t0); at < hold-2*ackFlushEvery || at >= hold-ackFlushEvery {
		t.Errorf("the ack of a copy two relays deep is due %v after it was made, want %v", at, hold-2*ackFlushEvery)
	}
	relay.flushAcks(time.Now().Add(hold))
	tp.all()

	// Paused between buffering and flush: the acks die with the pause.
	leafPublish(relay, pub, 2)
	relay.Pause()
	relay.flushAcks(time.Now().Add(hold))
	relay.Resume()
	relay.flushAcks(time.Now().Add(hold))
	if acks := tp.take(wire.KindAckBatch); len(acks) != 0 {
		t.Fatalf("a paused node sent %d ack frames", len(acks))
	}
	if got := met.Get(obs.CAckLeafFlush); got != 0 {
		t.Errorf("ack_leaf_flush = %d, want 0", got)
	}
}

// TestAckPiggyback: a held entry rides the next frame to its hop — a
// relayed publish, a ping — and its bucket empties. The receiver takes
// the entries off before the frame's own handler and relays them as if
// from the frame's hop: for a publish frame that is its HopFrom, not its
// From, so the split horizon holds. A claim frame's Acks slot is the
// have-digest: it carries no entries, and what it carries is never taken
// for acks.
func TestAckPiggyback(t *testing.T) {
	met := obs.New()
	c, tp, relay, pub, far := holdCluster(t, Options{Obs: met})

	// A publish from another link names pub further on: the relay's frame
	// to pub carries the ack it holds for pub's seq 1.
	leafPublish(relay, pub, 1)
	other := relay.links()[1]
	m := &wire.Message{
		Kind: wire.KindPublish, From: int32(other), Publisher: int32(other), Seq: 9, TTL: 8,
		To: int32(relay.id), RoutingTable: []int32{int32(pub)},
	}
	m.SetHopFrom(int32(other))
	relay.handle(m)
	frames := tp.take(wire.KindPublish)
	if len(frames) != 1 || frames[0].hop != int32(pub) {
		t.Fatalf("forwarded %+v, want one publish frame to %d", frames, pub)
	}
	if a := frames[0].m.Acks; len(a) != 1 || a[0].Seq != 1 || a[0].Dest != int32(pub) || a[0].From != int32(relay.id) {
		t.Fatalf("the publish frame to %d carries %+v, want the held ack of seq 1", pub, a)
	}
	if b := relay.heldBucket(pub); b != nil {
		t.Errorf("the bucket still holds %d entries after its frame left", len(b.acks))
	}

	// The next pings carry what is held: the ack of pub's seq 2 to pub,
	// the ack of the publication other sent to other, nothing elsewhere.
	leafPublish(relay, pub, 2)
	relay.sendHeartbeats()
	rode := make(map[int32][]wire.AckEntry)
	for _, f := range tp.take(wire.KindPing) {
		rode[f.hop] = append(rode[f.hop], f.m.Acks...)
	}
	want := map[int32]uint32{int32(pub): 2, int32(other): 9}
	for hop := range want {
		if _, ok := rode[hop]; !ok {
			t.Errorf("no ping went to %d", hop)
		}
	}
	for hop, a := range rode {
		if seq, ok := want[hop]; ok != (len(a) == 1) || (ok && (a[0].Seq != seq || a[0].Dest != hop)) {
			t.Errorf("the ping to %d carried %+v", hop, a)
		}
	}
	relay.flushAcks(time.Now().Add(relay.ackHold()))
	if acks := tp.take(wire.KindAckBatch); len(acks) != 0 {
		t.Errorf("ack frames at the hold: %+v, want none: every entry rode a frame", acks)
	}
	if p, b := met.Get(obs.CAckPiggyback), met.Get(obs.CAckBatchSent); p != 3 || b != 3 {
		t.Errorf("ack_piggyback = %d, ack_batch_sent = %d; want 3 and 3", p, b)
	}

	// The receiving side: x gets a publish frame from its link y whose
	// publisher is someone else, carrying an entry for dest, and x's stale
	// copy of y's routing table says y links to dest. The entry is relayed
	// as if y had handed it over: never back to y, and the stale claim is
	// dropped.
	x := c.Nodes[far[0]]
	y := x.links()[0]
	var dest, publisher overlay.PeerID = -1, -1
	for _, p := range strangers(c, x, len(c.Nodes), y) {
		switch {
		case dest < 0 && !slices.Contains(c.Nodes[y].links(), p):
			dest = p
		case publisher < 0:
			publisher = p
		}
	}
	x.lookahead[y] = []overlay.PeerID{dest}
	carrier := &wire.Message{
		Kind: wire.KindPublish, From: int32(publisher), Publisher: int32(publisher), Seq: 3, TTL: 8,
		To: int32(far[1]), Acks: []wire.AckEntry{
			{Kind: wire.KindAck, From: int32(y), Dest: int32(dest), Pub: int32(dest), Seq: 5, TTL: 16},
		},
	}
	carrier.SetHopFrom(int32(y))
	x.handle(carrier)
	x.flushAcks(time.Now().Add(ackFlushEvery))
	var relayed []sent // on an ack frame, or on the publish frame x forwarded
	tp.mu.Lock()
	for _, f := range tp.frames {
		if slices.ContainsFunc(f.m.Acks, func(e wire.AckEntry) bool { return e.Seq == 5 }) {
			relayed = append(relayed, f)
		}
	}
	tp.frames = nil
	tp.mu.Unlock()
	for _, f := range relayed {
		if f.hop == int32(y) {
			t.Errorf("the entry went back to %d, the hop that handed it over", y)
		}
	}
	if got := x.Lookahead(y); len(got) != 0 {
		t.Errorf("%d still believes %d links to %d: %v", x.id, y, dest, got)
	}
	if len(relayed)+int(met.Get(obs.CAckBounceDrop)+met.Get(obs.CPublishDeadEnd)) == 0 {
		t.Error("the carried entry was neither relayed nor dropped: the receiver never read it")
	}

	// A claim to pub takes nothing along, and a claim's digest is no ack.
	leafPublish(relay, pub, 6)
	relay.send(int32(pub), claimFrame(relay.id, pub, 1))
	if f := tp.take(wire.KindInboxClaim); len(f) != 1 || len(f[0].m.Acks) != 0 {
		t.Errorf("the claim frame carries %+v", f)
	}
	if relay.heldBucket(pub) == nil {
		t.Error("a claim frame emptied the bucket")
	}
	received := met.Get(obs.CAckReceived)
	c.Nodes[pub].handle(claimFrame(relay.id, pub, 2, wire.AckEntry{
		Kind: wire.KindAck, From: int32(relay.id), Dest: int32(pub), Pub: int32(pub), Seq: 6, TTL: 8,
	}))
	if got := met.Get(obs.CAckReceived) - received; got != 0 || ackedBy(&c.Nodes[pub].acked, msgID{int32(pub), 6}, int32(relay.id)) {
		t.Errorf("a claim's digest was consumed as %d acks", got)
	}
}

// TestAckAtOnce: the entries something waits on do not wait — a set
// row's acceptance (Subscribe returns on it), a deposit ack and a replay
// ack leave in the handler that made them, and an acceptance takes the
// entries held for its hop along.
func TestAckAtOnce(t *testing.T) {
	met := obs.New()
	c, tp, _, _, _ := holdCluster(t, Options{Obs: met, Inbox: true, TopicLease: 30 * time.Second})
	const topic = "#now"
	member := c.Nodes[c.Nodes[0].TopicRendezvous(topic)[0]]
	var sub overlay.PeerID
	for p := overlay.PeerID(0); ; p++ {
		if p != member.id && slices.Contains(member.links(), p) {
			sub = p
			break
		}
	}
	// A held ack for sub, then sub's registration: the acceptance leaves
	// at once, and the held ack with it.
	leafPublish(member, sub, 1)
	member.handle(&wire.Message{Kind: wire.KindTopicSub, From: int32(sub), To: int32(member.id), Seq: 7, Topic: []byte(topic)})
	acks := tp.take(wire.KindAckBatch)
	if len(acks) != 1 || acks[0].hop != int32(sub) || len(acks[0].m.Acks) != 2 || acks[0].m.Acks[1].Kind != wire.KindTopicSubAck {
		t.Fatalf("after a registration: %+v, want one frame to %d with the held ack and the acceptance", acks, sub)
	}
	// A hand-off's acceptance.
	member.handle(&wire.Message{Kind: wire.KindTopicPub, From: int32(sub), To: int32(member.id), Seq: 8,
		Publisher: int32(sub), Target: -1, Topic: []byte(topic), TTL: 8})
	if acks := tp.take(wire.KindAckBatch); len(acks) != 1 || acks[0].m.Acks[0].Kind != wire.KindTopicPubAck {
		t.Errorf("after a hand-off: %+v, want its acceptance at once", acks)
	}
	// A deposit naming two subscribers: one frame of two deposit acks.
	rep, target := c.Nodes[1], c.Nodes[7]
	rep.handle(&wire.Message{Kind: wire.KindInboxDeposit, From: int32(sub), To: int32(rep.id), Seq: 9,
		Publisher: int32(sub), Target: int32(target.id), RoutingTable: []int32{int32(member.id)}, PayloadSize: 1, Payload: []byte{1}})
	if acks := tp.take(wire.KindAckBatch); len(acks) != 1 || len(acks[0].m.Acks) != 2 || acks[0].m.Acks[0].Kind != wire.KindInboxDepositAck {
		t.Errorf("after a deposit: %+v, want one frame of two deposit acks at once", acks)
	}
	// A replay batch of two records: one frame of two replay acks.
	target.handle(replayFrame(rep.id, target.id,
		wire.ReplayRecord{Publisher: int32(sub), Seq: 10, PayloadSize: 1, Payload: []byte{1}},
		wire.ReplayRecord{Publisher: int32(sub), Seq: 11, PayloadSize: 1, Payload: []byte{2}}))
	if acks := tp.take(wire.KindAckBatch); len(acks) != 1 || len(replayAcks(acks)) != 2 {
		t.Errorf("after a replay batch: %+v, want one frame of two replay acks at once", acks)
	}
	if got := met.Get(obs.CAckLeafFlush); got != 6 {
		t.Errorf("ack_leaf_flush = %d, want 6: two acceptances, two deposit acks, two replay acks", got)
	}
}
