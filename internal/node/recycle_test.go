package node

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/overlay"
	"selectps/internal/wire"
)

// ackedBy reports whether the history records from's ack of id.
func ackedBy(h *ackHistory, id msgID, from int32) bool {
	return slices.Contains(h.of(id), from)
}

// TestAckHistoryCountsDistinctAckers pins the ack history the repair
// engine and Acked read: an acker counts once however often it acks, a
// record grows past the room its row asked for, the records are evicted
// oldest first and exactly past pubHistory, and a record that takes an
// evicted one's storage starts empty.
func TestAckHistoryCountsDistinctAckers(t *testing.T) {
	n := &Node{id: 7}
	id := func(seq int) msgID { return msgID{7, uint32(seq)} }
	for _, from := range []int32{9, 3, 9, 5, 3, 12, 1} {
		n.acked.add(id(1), from, 2)
	}
	if got, want := n.acked.of(id(1)), []int32{1, 3, 5, 9, 12}; !slices.Equal(got, want) {
		t.Fatalf("ackers of publication 1: %v, want %v (distinct, sorted)", got, want)
	}
	if k := n.Acked(1); k != 5 {
		t.Fatalf("Acked(1) = %d after 7 acks from 5 peers, want 5", k)
	}
	for seq := 2; seq <= pubHistory; seq++ {
		n.acked.add(id(seq), int32(seq%50), 1)
	}
	if k := n.Acked(1); k != 5 {
		t.Fatalf("Acked(1) = %d with the history exactly full, want 5", k)
	}
	n.acked.add(id(pubHistory+1), 4, 1)
	if k := n.Acked(1); k != 0 {
		t.Errorf("Acked(1) = %d one record past pubHistory, want it evicted", k)
	}
	if k := n.Acked(2); k != 1 {
		t.Errorf("Acked(2) = %d, want the second oldest kept", k)
	}
	if got := n.acked.of(id(pubHistory + 1)); !slices.Equal(got, []int32{4}) {
		t.Errorf("the record in publication 1's storage holds %v, want only its own acker", got)
	}
	// An ack for an evicted publication opens a record of its own, which
	// evicts the next oldest.
	n.acked.add(id(1), 3, 1)
	if n.Acked(1) != 1 || n.Acked(2) != 0 || n.Acked(3) != 1 {
		t.Errorf("after a late ack: Acked 1, 2, 3 = %d, %d, %d, want 1, 0, 1", n.Acked(1), n.Acked(2), n.Acked(3))
	}
}

// TestRecvWindowHoldsExactlyDedupWindow pins the at-least-once contract
// of the dedup window: a copy of any of the last dedupWindow deliveries is
// a duplicate, and a copy of one just past it delivers again.
func TestRecvWindowHoldsExactlyDedupWindow(t *testing.T) {
	n := &Node{id: 7}
	id := func(seq int) msgID { return msgID{3, uint32(seq)} }
	for seq := 0; seq < dedupWindow; seq++ {
		if !n.received.add(id(seq), uint8(seq%5)) {
			t.Fatalf("delivery %d read as a duplicate", seq)
		}
	}
	if n.received.add(id(0), 1) {
		t.Fatal("the oldest of dedupWindow deliveries delivered again")
	}
	if hops, ok := n.Received(3, 4); !ok || hops != 4 {
		t.Fatalf("Received(3, 4) = %d, %v, want 4 hops", hops, ok)
	}
	if !n.received.add(id(dedupWindow), 2) {
		t.Fatal("a new delivery into the full window read as a duplicate")
	}
	if n.received.add(id(1), 1) {
		t.Error("delivery 1, still inside the window, delivered again")
	}
	if !n.received.add(id(0), 1) {
		t.Error("delivery 0, one past the window, is still a duplicate")
	}
	if _, ok := n.Received(3, 1); ok {
		t.Error("delivery 1 is still held after two deliveries past a full window")
	}
}

// TestPublishAllocPins holds a publication's own state to the budget the
// control plane keeps (TestFanOutAllocPins, TestMaintainAllocPins): a
// feed publish from the call to its first send, its acks and its retire;
// a topic publish opening its set row, accepted; a replica row opened by
// a hand-off and settled by its subscribers' acks; an ack folded into a
// full history; a first-time delivery into a full dedup window; and a
// subscriber handed to the durable tier by a direct-retry round, its
// deposits and the ack that settles them — none allocates once the
// storage of rows, history and window has grown (DESIGN.md §15.1).
func TestPublishAllocPins(t *testing.T) {
	const n, seed = 120, 2
	g, c, tr := discardCluster(t, n, seed, Options{RetryBase: 20 * time.Millisecond, Inbox: true, TopicLease: time.Hour})
	pub := topDegree(g)
	nd := c.Nodes[pub]
	subs := g.Neighbors(pub)
	payload := make([]byte, 256)

	feed := UserTopic(pub)
	acks := &wire.Message{Kind: wire.KindAckBatch, From: int32(subs[0]), To: int32(pub), Acks: make([]wire.AckEntry, len(subs))}
	pinAllocs(t, tr, "a feed publish, its acks and its retire", true, func() {
		seq, err := nd.Topic(feed).Publish(payload)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range subs {
			acks.Acks[i] = wire.AckEntry{Kind: wire.KindAck, From: int32(s), Dest: int32(pub), Pub: int32(pub), Seq: seq, TTL: 8}
		}
		nd.handle(acks)
		if nd.pubs.rows[seq] != nil {
			t.Fatalf("feed publication %d still in repair after every subscriber acked", seq)
		}
	})

	now := time.Now()
	var topic string
	for i := 0; topic == "" || slices.Contains(nd.topicRendezvous(topic, now), pub); i++ {
		topic = fmt.Sprintf("#alloc-%d", i)
	}
	set := slices.Clone(nd.topicRendezvous(topic, now))
	accept := &wire.Message{Kind: wire.KindAckBatch, From: int32(set[0]), To: int32(pub), Acks: make([]wire.AckEntry, len(set))}
	pinAllocs(t, tr, "a topic publish opening its set row, accepted", true, func() {
		seq, err := nd.Topic(topic).Publish(payload)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range set {
			accept.Acks[i] = wire.AckEntry{Kind: wire.KindTopicPubAck, From: int32(m), Dest: int32(pub), Pub: int32(pub), Seq: seq}
		}
		nd.handle(accept)
		if nd.pubs.rows[seq] != nil {
			t.Fatalf("hand-off %d still open after the whole set accepted", seq)
		}
	})

	// The rendezvous side: set[0] holds a registry of a few subscribers
	// and accepts the hand-offs of pub.
	rv := c.Nodes[set[0]]
	var regSubs []overlay.PeerID
	for p := overlay.PeerID(0); len(regSubs) < 6; p++ {
		if p != pub && !slices.Contains(set, p) {
			regSubs = append(regSubs, p)
			rv.registerTopicSub(topic, p, now)
		}
	}
	handoff := &wire.Message{Kind: wire.KindTopicPub, From: int32(pub), To: int32(rv.id), Publisher: int32(pub),
		Target: -1, TTL: 8, PayloadSize: uint32(len(payload)), Payload: payload, Topic: []byte(topic)}
	subAcks := &wire.Message{Kind: wire.KindAckBatch, From: int32(regSubs[0]), To: int32(rv.id), Acks: make([]wire.AckEntry, len(regSubs))}
	pinAllocs(t, tr, "a replica row from acceptTopicPub, settled by its subscribers", true, func() {
		handoff.Seq++
		rv.handle(handoff)
		rseq, ok := rv.tpOrigin[msgID{int32(pub), handoff.Seq}]
		if !ok {
			t.Fatalf("hand-off %d opened no replica row", handoff.Seq)
		}
		for i, s := range regSubs {
			subAcks.Acks[i] = wire.AckEntry{Kind: wire.KindAck, From: int32(s), Dest: int32(rv.id), Pub: int32(pub), Seq: handoff.Seq, TTL: 8}
		}
		rv.handle(subAcks)
		if rv.pubs.rows[rseq] != nil {
			t.Fatalf("replica row %d still open after every subscriber acked", rseq)
		}
	})

	// Acks for another publisher's publications: each opens a record of
	// its own in a history that is full, evicting the oldest.
	other := subs[1]
	e := wire.AckEntry{Kind: wire.KindAck, From: int32(subs[2]), Dest: int32(pub), Pub: int32(other), TTL: 8}
	for i := 0; i < pubHistory; i++ {
		e.Seq++
		nd.consumeAck(e, false)
	}
	pinAllocs(t, tr, "an ack folded into a full history", false, func() {
		e.Seq++
		nd.consumeAck(e, false)
	})
	if len(nd.acked.recs) != pubHistory || nd.acked.of(msgID{int32(other), e.Seq - pubHistory}) != nil {
		t.Errorf("the history holds %d records and still the one %d acks back", len(nd.acked.recs), pubHistory)
	}

	// Copies of other's publications: each a first-time delivery into a
	// full window. The acks they cost leave in full buckets.
	copyOf := &wire.Message{Kind: wire.KindPublish, From: int32(other), To: int32(pub), Publisher: int32(other),
		TTL: 8, HopCount: 1, PayloadSize: uint32(len(payload)), Payload: payload}
	for i := 0; i < dedupWindow; i++ {
		copyOf.Seq++
		nd.received.add(msgID{int32(other), copyOf.Seq}, 1)
	}
	pinAllocs(t, tr, "a first-time delivery into a full dedup window", true, func() {
		copyOf.Seq++
		if _, dup := nd.received.get(msgID{int32(other), copyOf.Seq}); dup {
			t.Fatal("the copy is a duplicate")
		}
		nd.handlePublish(copyOf)
	})
	if len(nd.received.order) != dedupWindow {
		t.Errorf("the window holds %d deliveries, want %d", len(nd.received.order), dedupWindow)
	}

	// A subscriber that left the ring: the direct-retry round hands it to
	// the durable tier, the deposit round sends its copies, and one
	// replica's ack settles the row.
	away := subs[3]
	c.dir.setMember(away, false)
	pinAllocs(t, tr, "a deposit hand-off in retryDirect", true, func() {
		now := time.Now()
		seq := nd.nextSeq()
		st := nd.registerPublish(seq, []overlay.PeerID{away}, payload, uint32(len(payload)), inbox.Medium, now)
		st.nextAt = now.Add(-time.Millisecond)
		nd.repairTick()
		if ds := st.depOf(away); ds == nil {
			t.Fatalf("publication %d did not hand %d to the durable tier", seq, away)
		}
		nd.consumeDepositAck(int32(pub), seq, int32(away))
		if nd.pubs.rows[seq] != nil {
			t.Fatalf("publication %d still in repair after its deposit was acked", seq)
		}
	})
}
