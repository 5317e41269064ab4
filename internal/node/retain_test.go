package node

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"selectps/internal/overlay"
	"selectps/internal/wire"
)

// A handler's inbound Message is recycled when the handler returns
// (shard.deliver), so anything a handler keeps must be a copy. These
// tests hand a handler a frame, scribble over the frame afterwards — what
// the next decode into the recycled Message does — and check that what
// the node kept did not change with it.

// scribble overwrites every byte of b.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xAB
	}
}

// TestExchangeLearningIsCopied: the routing table an exchange or its
// reply carries stays in n.lookahead, and the bitmap derived from it in
// n.bitmaps — the input of the routing pass and of the Algorithm-5 pass —
// on either end of the exchange; and the bitmap is not the node storage
// it was derived in, which the next friend's table overwrites.
func TestExchangeLearningIsCopied(t *testing.T) {
	g, c, _ := frozenCluster(t, 30, 5, Options{})
	a := c.Nodes[topDegree(g)]
	friends := g.Neighbors(a.id)
	for _, kind := range []wire.Kind{wire.KindExchangeRT, wire.KindExchangeReply} {
		f := friends[0]
		delete(a.bitmaps, f)
		delete(a.lookahead, f)
		m := &wire.Message{
			Kind: kind, From: int32(f), To: int32(a.id), NMutual: 1,
			Neighborhood: g.Neighbors(f), RoutingTable: []int32{int32(friends[1]), int32(friends[2])},
		}
		wantRT := slices.Clone(m.RoutingTable)
		wantBM := replyBitmap(friends, wantRT)
		a.handle(m)
		for i := range m.RoutingTable {
			m.RoutingTable[i] = int32(friends[3])
		}
		a.handle(&wire.Message{
			Kind: kind, From: int32(friends[1]), To: int32(a.id), NMutual: 1,
			Neighborhood: g.Neighbors(friends[1]), RoutingTable: []int32{int32(friends[3])},
		})
		if got := a.lookahead[f]; !slices.Equal(got, wantRT) {
			t.Fatalf("%v: the table kept for %d reads %v after its frame was overwritten, want %v", kind, f, got, wantRT)
		}
		if got := a.bitmaps[f]; !slices.Equal(got, wantBM) {
			t.Fatalf("%v: the bitmap kept for %d reads %x after its frame was overwritten, want %x", kind, f, got, wantBM)
		}
	}
}

// TestTopicHandoffPayloadIsCopied: a standby that accepts a publisher's
// hand-off keeps the payload in its replica row, which re-sends and
// deposits it long after the frame is gone.
func TestTopicHandoffPayloadIsCopied(t *testing.T) {
	_, c, _ := frozenCluster(t, 30, 5, Options{RetryBase: 10 * time.Millisecond, TopicLease: 30 * time.Second})
	const topic = "#kept"
	set := c.Nodes[0].TopicRendezvous(topic)
	if len(set) < 2 {
		t.Fatalf("rendezvous %v, want a primary and a standby", set)
	}
	standby := c.Nodes[set[1]]
	var outside []overlay.PeerID
	for p := overlay.PeerID(0); len(outside) < 3; p++ {
		if !slices.Contains(set, p) {
			outside = append(outside, p)
		}
	}
	// Subscribers the row waits for, so that it outlives the handler.
	pub := outside[0]
	for _, s := range outside[1:] {
		standby.registerTopicSub(topic, s, time.Now())
	}
	body := []byte("hand-off body")
	m := &wire.Message{
		Kind: wire.KindTopicPub, From: int32(pub), To: int32(standby.id), Seq: 7,
		Publisher: int32(pub), Target: -1, TTL: 8, Topic: []byte(topic),
		PayloadSize: uint32(len(body)), Payload: slices.Clone(body),
	}
	standby.handle(m)
	scribble(m.Payload)
	rseq, ok := standby.tpOrigin[msgID{int32(pub), 7}]
	if !ok || standby.pubs.rows[rseq] == nil {
		t.Fatal("the standby holds no replica row for the hand-off")
	}
	if got := standby.pubs.rows[rseq].payload; !bytes.Equal(got, body) {
		t.Fatalf("the replica row's payload reads %q after its frame was overwritten, want %q", got, body)
	}
}
