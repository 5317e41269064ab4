//go:build !race

// Allocation counts mean nothing under -race: sync.Pool drops a quarter of
// what it is handed back.

package transport

import (
	"testing"

	"selectps/internal/wire"
)

// TestSwitchboardSendRecycledZeroAlloc: in steady state a switchboard
// send to a batch-bound receiver that recycles what it drains — the node
// runtime's shard — allocates nothing. The copy Send makes goes through a
// pooled frame into a pooled Message, and the batch is pooled too.
func TestSwitchboardSendRecycledZeroAlloc(t *testing.T) {
	s := NewSwitchboard(2, 4)
	defer s.Close()
	ch := make(chan *[]Envelope, 1)
	s.BindInboxBatch(1, ch)
	m := &wire.Message{
		Kind: wire.KindPublish, From: 0, To: 1, Seq: 1, Publisher: 0, TTL: 8,
		RoutingTable: []int32{1, 1}, Payload: make([]byte, 256), PayloadSize: 256,
	}
	sendAndDrain := func() {
		if err := s.Send(1, m); err != nil {
			t.Fatal(err)
		}
		nb := <-ch
		for _, e := range *nb {
			wire.PutMessage(e.Msg)
		}
		PutEnvelopeBatch(nb)
	}
	sendAndDrain()
	if a := testing.AllocsPerRun(200, sendAndDrain); a != 0 {
		t.Errorf("a switchboard send to a recycling receiver: %.1f allocs, want 0", a)
	}
}
