package transport

import (
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/wire"
)

// drainBatches pulls envelope batches until want messages arrived (or the
// deadline passes), recycling each slice like the shard loop does.
func drainBatches(t *testing.T, ch chan *[]Envelope, want int) []*wire.Message {
	t.Helper()
	var got []*wire.Message
	deadline := time.After(5 * time.Second)
	for len(got) < want {
		select {
		case nb := <-ch:
			for _, env := range *nb {
				got = append(got, env.Msg)
			}
			PutEnvelopeBatch(nb)
		case <-deadline:
			t.Fatalf("timed out with %d/%d messages", len(got), want)
		}
	}
	return got
}

// TestSwitchboardBatchIngressConservation pins the switchboard's bulk
// binding: every Send lands in the batch channel as a one-envelope batch
// (synchronous delivery keeps determinism) or in a drop counter — never
// silently gone.
func TestSwitchboardBatchIngressConservation(t *testing.T) {
	s := NewSwitchboard(2, 8)
	defer s.Close()
	s.Obs = obs.New()
	ch := make(chan *[]Envelope, 4)
	if !s.BindInboxBatch(1, ch) {
		t.Fatal("BindInboxBatch refused")
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := s.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, To: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Synchronous delivery into a 4-deep channel: exactly 4 batches of
	// one arrived, the rest dropped-and-counted at the full mailbox.
	msgs := drainBatches(t, ch, 4)
	for i, m := range msgs {
		if m.Seq != uint32(i) {
			t.Fatalf("batch %d carries seq %d, want %d", i, m.Seq, i)
		}
	}
	if got := s.Obs.Get(obs.CIngressBatch); got != 4 {
		t.Fatalf("ingress_batch = %d, want 4", got)
	}
	if got := s.Obs.Get(obs.CDropFullMailbox); got != total-4 {
		t.Fatalf("drop_full_mailbox = %d, want %d", got, total-4)
	}
}

// TestTCPBulkIngressConservation floods one conn and asserts exactly-once
// arrival through the bulk read path: every seq 0..total-1 appears once,
// in order, and the batch counter matches the number of slices received.
func TestTCPBulkIngressConservation(t *testing.T) {
	tr, err := NewTCP(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Obs = obs.New()
	ch := make(chan *[]Envelope, 4096)
	if !tr.BindInboxBatch(1, ch) {
		t.Fatal("BindInboxBatch refused")
	}
	const total = 2000
	for i := 0; i < total; i++ {
		if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, To: 1, Seq: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The sender's coalescing queue may shed under the flood (counted):
	// conservation means arrivals + accounted drops == total, with every
	// arriving seq fresh and in order (gaps where drops happened).
	drops := func() int64 {
		return tr.Obs.Get(obs.CTCPQueueDrop) + tr.Obs.Get(obs.CTCPWriteDrop) +
			tr.Obs.Get(obs.CDropFullMailbox)
	}
	var (
		got     int64
		batches int64
		lastSeq = -1
	)
	deadline := time.After(10 * time.Second)
	for got+drops() < total {
		select {
		case nb := <-ch:
			batches++
			for _, env := range *nb {
				if int(env.Msg.Seq) <= lastSeq {
					t.Fatalf("seq %d after %d: duplicated or reordered frames", env.Msg.Seq, lastSeq)
				}
				lastSeq = int(env.Msg.Seq)
				got++
			}
			PutEnvelopeBatch(nb)
		case <-deadline:
			t.Fatalf("timed out with %d arrived + %d dropped of %d frames", got, drops(), total)
		}
	}
	if got+drops() != total {
		t.Fatalf("conservation broke: %d arrived + %d dropped != %d sent", got, drops(), total)
	}
	// The read loop counts a batch once it is delivered, which the drain
	// above can observe first: wait for the counter, then pin equality.
	waitCounter(t, tr.Obs, obs.CIngressBatch, batches)
	if cnt := tr.Obs.Get(obs.CIngressBatch); cnt != batches {
		t.Fatalf("ingress_batch = %d, received %d batches", cnt, batches)
	}
	if got == 0 {
		t.Fatal("nothing arrived")
	}
}

// TestTCPBulkMalformedMidBatchDeliversPrefix: when a corrupt frame shows
// up behind valid buffered frames, the clean prefix must still be
// delivered before the sender conn is evicted.
func TestTCPBulkMalformedMidBatchDeliversPrefix(t *testing.T) {
	tr, err := NewTCP(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Obs = obs.New()
	ch := make(chan *[]Envelope, 64)
	if !tr.BindInboxBatch(1, ch) {
		t.Fatal("BindInboxBatch refused")
	}
	if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, To: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	drainBatches(t, ch, 1)
	// One write: a valid frame followed by a valid-length garbage body,
	// so the bulk loop meets the corruption mid-accumulation.
	raw := socketFrame(1, wire.Marshal(&wire.Message{Kind: wire.KindPing, From: 0, To: 1, Seq: 2}))
	raw = append(raw, socketFrame(1, []byte{3, 0, 0, 0, 0xFF, 0xFF, 0xFF})...)
	if _, err := senderConn(tr, 1).Write(raw); err != nil {
		t.Fatal(err)
	}
	if got := drainBatches(t, ch, 1); got[0].Seq != 2 {
		t.Fatalf("clean prefix frame lost: got seq %d", got[0].Seq)
	}
	waitCounter(t, tr.Obs, obs.CTCPMalformedFrame, 1)
	// The poisoned conn was evicted; the next send redials and delivers.
	if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, To: 1, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	if got := drainBatches(t, ch, 1); got[0].Seq != 3 {
		t.Fatalf("post-evict frame: got seq %d", got[0].Seq)
	}
}
