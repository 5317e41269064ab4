//go:build race

package wire

import "testing"

// TestPutMessagePoisonsKeptViews keeps views of a decoded Message on
// purpose, recycles the Message, and checks that the views now read the
// pattern: under -race a handler that holds on to its inbound Message
// sees garbage instead of data that happens to survive.
func TestPutMessagePoisonsKeptViews(t *testing.T) {
	m := GetMessage()
	src := &Message{
		Kind: KindExchangeReply, From: 1, To: 2, Payload: []byte("kept"),
		Bitmap: []uint64{0b1011}, RoutingTable: []int32{3, 4},
		Acks: []AckEntry{{Kind: KindAck, From: 5, Dest: 6, Pub: 7, Seq: 8}},
	}
	if err := UnmarshalInto(m, Marshal(src)[4:]); err != nil {
		t.Fatal(err)
	}
	payload, bitmap, rt, acks := m.Payload, m.Bitmap, m.RoutingTable, m.Acks
	PutMessage(m)
	for _, b := range payload {
		if b != poisonByte {
			t.Fatalf("kept payload reads %q after PutMessage, want the pattern", payload)
		}
	}
	if bitmap[0] != 0xEEEEEEEEEEEEEEEE || rt[0] != -0x11111112 || rt[1] != -0x11111112 {
		t.Fatalf("kept bitmap %x and routing table %v after PutMessage, want the pattern", bitmap, rt)
	}
	if acks[0].Kind != poisonByte || acks[0].Pub != -0x11111112 {
		t.Fatalf("kept ack entry %+v after PutMessage, want the pattern", acks[0])
	}
}
