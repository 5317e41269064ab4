package wire

import (
	"bytes"
	"slices"
	"testing"
)

// fanOutFrame is a KindPublish frame naming dests subscribers: the first
// in To, the rest in RoutingTable.
func fanOutFrame(dests int) *Message {
	m := &Message{
		Kind: KindPublish, From: 9, Seq: 41,
		Publisher: 9, TTL: 32, PayloadSize: 64, HopCount: 1,
		Payload: bytes.Repeat([]byte("x"), 64),
	}
	if dests > 0 {
		m.To = 100
	}
	for d := 1; d < dests; d++ {
		m.RoutingTable = append(m.RoutingTable, int32(100+d))
	}
	return m
}

// TestFanOutFrameRoundTrip: a publish frame carries its destination set
// through the codec, and with one destination it is byte for byte the
// frame the per-subscriber fan-out sent — same 84-byte fixed layout,
// empty list.
func TestFanOutFrameRoundTrip(t *testing.T) {
	for _, dests := range []int{0, 1, 2, 24, MaxPublishDests, MaxPublishDests + 1} {
		src := fanOutFrame(dests)
		frame := Marshal(src)[4:]
		if want := 84 - 4 + 64 + 4*len(src.RoutingTable); len(frame) != want {
			t.Fatalf("%d destinations: frame body is %d bytes, want %d", dests, len(frame), want)
		}
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("%d destinations: %v", dests, err)
		}
		if got.To != src.To || !slices.Equal(got.RoutingTable, src.RoutingTable) || !bytes.Equal(got.Payload, src.Payload) {
			t.Fatalf("%d destinations: decoded To %d list %v", dests, got.To, got.RoutingTable)
		}
		if out := Marshal(got)[4:]; !bytes.Equal(out, frame) {
			t.Fatalf("%d destinations: non-canonical roundtrip", dests)
		}
	}
	one := fanOutFrame(1)
	if one.RoutingTable != nil {
		t.Fatal("a frame with one destination has a list")
	}
	patched := Marshal(fanOutFrame(1))
	PatchTo(patched, 7)
	one.To = 7
	if !bytes.Equal(patched, Marshal(one)) {
		t.Fatal("a one-destination frame is not the frame PatchTo makes")
	}
}

// TestFanOutFrameDirtyReuse interleaves long and short destination lists
// through one reused Message: capacity reuse must never leak a stale
// destination into a shorter list.
func TestFanOutFrameDirtyReuse(t *testing.T) {
	var m Message
	for _, dests := range []int{MaxPublishDests, 1, 24, 0, 2, MaxPublishDests + 1, 1} {
		frame := Marshal(fanOutFrame(dests))[4:]
		if err := UnmarshalInto(&m, frame); err != nil {
			t.Fatal(err)
		}
		if want := max(dests-1, 0); len(m.RoutingTable) != want {
			t.Fatalf("%d destinations: reused message lists %d", dests, len(m.RoutingTable))
		}
		if got := Marshal(&m)[4:]; !bytes.Equal(got, frame) {
			t.Fatalf("%d destinations: dirty-reuse roundtrip diverged", dests)
		}
	}
}

// TestFanOutFrameCloneIndependent: relays rewrite To and the list of the
// frame they were handed, so a clone (faultnet duplication) must own its
// list.
func TestFanOutFrameCloneIndependent(t *testing.T) {
	src := fanOutFrame(5)
	c := src.Clone()
	c.RoutingTable[0], c.To = -1, -1
	c.RoutingTable = append(c.RoutingTable[:1], 77)
	if want := fanOutFrame(5); src.To != want.To || !slices.Equal(src.RoutingTable, want.RoutingTable) {
		t.Fatalf("editing the clone changed the original: To %d list %v", src.To, src.RoutingTable)
	}
}

// TestFanOutFrameZeroAlloc pins both directions of the codec for a
// multi-destination frame: marshal into a warm buffer, decode into a warm
// Message.
func TestFanOutFrameZeroAlloc(t *testing.T) {
	for _, dests := range []int{1, 24, MaxPublishDests} {
		src := fanOutFrame(dests)
		buf := make([]byte, 0, 4096)
		if allocs := testing.AllocsPerRun(200, func() {
			buf = MarshalAppend(buf[:0], src)
		}); allocs != 0 {
			t.Errorf("MarshalAppend with %d destinations = %.1f allocs/op, want 0", dests, allocs)
		}
		var m Message
		if err := UnmarshalInto(&m, buf[4:]); err != nil { // warm-up grows the slices
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := UnmarshalInto(&m, buf[4:]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("UnmarshalInto with %d destinations = %.1f allocs/op, want 0", dests, allocs)
		}
	}
}

// TestFanOutFrameHopSlot: the inbound hop of a publish frame rides in a
// slot the fixed layout already has, so stamping it changes no length; it
// survives the codec and a clone, an unstamped frame reads "not stated",
// and the bias leaves no slot value that reads as a peer by accident.
func TestFanOutFrameHopSlot(t *testing.T) {
	for _, dests := range []int{1, 24} {
		plain := fanOutFrame(dests)
		if plain.HopFrom() != -1 {
			t.Fatalf("an unstamped frame names hop %d", plain.HopFrom())
		}
		for _, hop := range []int32{0, 7, 1<<31 - 2} {
			src := fanOutFrame(dests)
			src.SetHopFrom(hop)
			frame := Marshal(src)
			if len(frame) != len(Marshal(plain)) {
				t.Fatalf("hop %d: the stamp changed the frame from %d to %d bytes", hop, len(Marshal(plain)), len(frame))
			}
			got, err := Unmarshal(frame[4:])
			if err != nil {
				t.Fatal(err)
			}
			if got.HopFrom() != hop || got.From != src.From || got.To != src.To || !slices.Equal(got.RoutingTable, src.RoutingTable) {
				t.Fatalf("hop %d: decoded hop %d from %d to %d list %v", hop, got.HopFrom(), got.From, got.To, got.RoutingTable)
			}
			if c := got.Clone(); c.HopFrom() != hop {
				t.Fatalf("hop %d: the clone names hop %d", hop, c.HopFrom())
			}
			if !bytes.Equal(Marshal(got), frame) {
				t.Fatalf("hop %d: non-canonical roundtrip", hop)
			}
		}
	}
	// Every slot value but 0 reads as one id or as something below -1.
	for _, raw := range []int32{-1, -1 << 31} {
		m := Message{Kind: KindPublish, Target: raw}
		if hop := m.HopFrom(); hop == -1 {
			t.Errorf("slot value %d reads as not stated", raw)
		}
	}
}
