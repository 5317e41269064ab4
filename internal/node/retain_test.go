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

// TestExchangeReplyBitmapIsCopied: the friendship bitmap an exchange
// reply carries stays in n.bitmaps, the input of the Algorithm-5 pass.
func TestExchangeReplyBitmapIsCopied(t *testing.T) {
	g, c, _ := frozenCluster(t, 30, 5, Options{})
	a := c.Nodes[topDegree(g)]
	f := g.Neighbors(a.id)[0]
	delete(a.bitmaps, f)
	m := &wire.Message{
		Kind: wire.KindExchangeReply, From: int32(f), To: int32(a.id), NMutual: 1,
		Bitmap: []uint64{0x5A5A, 0x0F0F},
	}
	want := slices.Clone(m.Bitmap)
	a.handle(m)
	for i := range m.Bitmap {
		m.Bitmap[i] = ^uint64(0)
	}
	if got := a.bitmaps[f]; !slices.Equal(got, want) {
		t.Fatalf("the bitmap kept for %d reads %x after its frame was overwritten, want %x", f, got, want)
	}
}

// TestTopicHandoffPayloadIsCopied: a standby that accepts a publisher's
// hand-off keeps the payload in its replica row, which re-sends and
// deposits it long after the frame is gone.
func TestTopicHandoffPayloadIsCopied(t *testing.T) {
	_, c, _ := frozenCluster(t, 30, 5, Options{RetryBase: 10 * time.Millisecond, TopicLease: 30 * time.Second})
	const topic = "#kept"
	set := c.Nodes[0].topicRendezvous(topic, time.Now())
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
	if !ok || standby.pubs[rseq] == nil {
		t.Fatal("the standby holds no replica row for the hand-off")
	}
	if got := standby.pubs[rseq].payload; !bytes.Equal(got, body) {
		t.Fatalf("the replica row's payload reads %q after its frame was overwritten, want %q", got, body)
	}
}
