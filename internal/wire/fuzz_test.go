package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeeds are valid messages of every kind, marshaled to seed the
// corpus; the fuzzer mutates from there into truncations, corrupted
// length prefixes and oversized claims.
func fuzzSeeds() []*Message {
	return []*Message{
		{Kind: KindPing, From: 1, To: 2, Seq: 3},
		{Kind: KindPong, From: 2, To: 1, Seq: 3},
		{
			Kind: KindExchangeRT, From: 4, To: 5, Seq: 6,
			Neighborhood: []int32{1, 2, 3, 9},
			RoutingTable: []int32{7, 8},
		},
		{
			Kind: KindExchangeReply, From: 5, To: 4, Seq: 6,
			NMutual: 2, Bitmap: []uint64{0xDEADBEEF, 1},
			RoutingTable: []int32{11},
		},
		{
			Kind: KindPublish, From: 9, To: 10, Seq: 11,
			Publisher: 9, TTL: 32, PayloadSize: 1_200_000, HopCount: 2,
		},
		{
			Kind: KindPublish, From: 9, To: 10, Seq: 12,
			Publisher: 9, TTL: 32, PayloadSize: 4, HopCount: 1,
			Payload: []byte("body"),
		},
		{Kind: KindAck, From: 10, To: 9, Seq: 11, Publisher: 9, TTL: 31},
		{Kind: KindJoinRequest, From: 12, To: 13, Seq: 1},
		{
			Kind: KindJoinReply, From: 13, To: 12, Seq: 1,
			Pos: 0x3FD5555555555555, RoutingTable: []int32{2, 5, 9},
			Succs: []int32{13, 2}, SuccPos: []uint64{0x3FD8000000000000, 0x3FE0000000000000},
			Preds: []int32{5}, PredPos: []uint64{0x3FC0000000000000},
		},
		{
			Kind: KindPong, From: 2, To: 1, Seq: 4,
			Succs: []int32{2, 7}, SuccPos: []uint64{1, 2},
			Preds: []int32{9, 11}, PredPos: []uint64{3, 4},
		},
		{Kind: KindIDAnnounce, From: 12, To: 5, Seq: 2, Pos: 0x3FC999999999999A},
		{Kind: KindLinkProposal, From: 12, To: 9, Seq: 3},
		{Kind: KindLinkAccept, From: 9, To: 12, Seq: 3},
		{Kind: KindLinkDrop, From: 9, To: 2, Seq: 4},
		{Kind: KindLeave, From: 12, To: 9, Seq: 5},
		{
			Kind: KindInboxDeposit, From: 9, To: 2, Seq: 11,
			Publisher: 9, Target: 10, Priority: 1, PayloadSize: 1_200_000,
		},
		{
			Kind: KindInboxDeposit, From: 9, To: 2, Seq: 12,
			Publisher: 9, Target: 10, Priority: 0, PayloadSize: 4,
			Payload: []byte("body"),
		},
		{Kind: KindInboxDepositAck, From: 2, To: 9, Seq: 11, Publisher: 9, Target: 10},
		{
			Kind: KindInboxDeposit, From: 9, To: 2, Seq: 13,
			Publisher: 9, Target: 10, RoutingTable: []int32{11, 12}, PayloadSize: 64,
		},
		{Kind: KindInboxClaim, From: 10, To: 2, Seq: 7, Target: 10},
		{
			Kind: KindInboxClaim, From: 10, To: 3, Seq: 7, Target: 10,
			Acks: []AckEntry{{Kind: KindInboxReplayAck, From: 10, Dest: 2, Pub: 9, Seq: 11, Target: 10}},
		},
		{Kind: KindInboxLease, From: 2, To: 10, Seq: 7, Target: 10, NMutual: 3},
		{
			Kind: KindInboxReplay, From: 2, To: 10, Seq: 11,
			Publisher: 9, Target: 10, Priority: 2, HopCount: 1,
			NMutual: 2, Payload: replayContainer(replaySeeds()[:2]),
		},
		{
			Kind: KindAckBatch, From: 10, To: 2,
			Acks: []AckEntry{
				{Kind: KindInboxReplayAck, From: 10, Dest: 2, Pub: 9, Seq: 11, Target: 10},
				{Kind: KindInboxReplayAck, From: 10, Dest: 2, Pub: 9, Seq: 12, Target: 10},
			},
		},
		{Kind: KindTopicSub, From: 10, To: 2, Seq: 21, Topic: []byte("#go")},
		{Kind: KindTopicSubAck, From: 2, To: 10, Seq: 21, Topic: []byte("#go")},
		{Kind: KindTopicUnsub, From: 10, To: 2, Seq: 22, Topic: []byte("#go")},
		{
			Kind: KindTopicPub, From: 9, To: 2, Seq: 23,
			Publisher: 9, Target: -1, Priority: 1, PayloadSize: 1_200_000,
			Topic: []byte("#flashcrowd"),
		},
		{
			Kind: KindTopicPub, From: 2, To: 10, Seq: 23,
			Publisher: 9, Target: 2, PayloadSize: 4, Payload: []byte("body"),
			RoutingTable: []int32{11, 12, 13}, Topic: []byte("#flashcrowd"),
		},
		{Kind: KindTopicPubAck, From: 2, To: 9, Seq: 23, Publisher: 9, Topic: []byte("#flashcrowd")},
		{
			Kind: KindTopicHandoff, From: 2, To: 3, Seq: 24,
			RoutingTable: []int32{10, 11}, Topic: []byte("#go"),
		},
		{
			Kind: KindAckBatch, From: 10, To: 9, Seq: 25,
			Acks: []AckEntry{
				{Kind: KindAck, From: 10, Dest: 9, Pub: 9, Seq: 11, TTL: 30},
				{Kind: KindInboxDepositAck, From: 2, Dest: 9, Pub: 9, Seq: 12, Target: 10},
				{Kind: KindTopicPubAck, From: 2, Dest: 9, Pub: 9, Seq: 23},
			},
		},
		{Kind: KindAckBatch, From: 10, To: 9, Seq: 26}, // empty batch (flush race)
		// Attacker-shaped frames (DESIGN.md §14): well-formed wire encoding
		// carrying protocol-level lies. The transport must decode them
		// untroubled — rejecting the *claims* is the node layer's job
		// (clampMutual, position cross-checks) — so these seed the corpus
		// at the exact shapes the adversarial arms emit.
		{
			// Liar reply: mutual count far beyond any neighborhood, with a
			// saturated friendship bitmap over a tiny claimed neighborhood.
			Kind: KindExchangeReply, From: 66, To: 4, Seq: 6,
			NMutual: 1 << 30, Bitmap: []uint64{^uint64(0), ^uint64(0), ^uint64(0)},
			RoutingTable: []int32{11},
		},
		{
			// Negative liar reply: a mutual count with the sign bit set.
			Kind: KindExchangeReply, From: 66, To: 4, Seq: 7,
			NMutual: -1, Bitmap: []uint64{1},
		},
		{
			// Eclipse pong: the cohort bracketing a victim with ε-close
			// flank positions, duplicated entries and a succ/pred overlap.
			Kind: KindPong, From: 66, To: 1, Seq: 8,
			Succs:   []int32{66, 67, 68, 67},
			SuccPos: []uint64{0x3FE0000000000001, 0x3FE0000000000002, 0x3FDFFFFFFFFFFFFF, 0x3FE0000000000002},
			Preds:   []int32{68, 69},
			PredPos: []uint64{0x3FDFFFFFFFFFFFFF, 0x7FF8000000000000}, // NaN position claim
		},
		{
			// Out-of-range peer IDs and non-finite positions in a join reply.
			Kind: KindJoinReply, From: 66, To: 12, Seq: 9,
			Pos:   0x7FF0000000000000, // +Inf identifier
			Succs: []int32{-5, 1 << 30}, SuccPos: []uint64{0, ^uint64(0)},
		},
		// Publish frames by destination count (DESIGN.md §10.3): none, one,
		// the most a frame may name, and one more — which decodes, and which
		// the node layer counts and drops. (Appended, so that the earlier
		// seeds keep their corpus numbers.)
		fanOutFrame(0),
		fanOutFrame(1),
		fanOutFrame(MaxPublishDests),
		fanOutFrame(MaxPublishDests + 1),
		{
			// A destination list of lies: out-of-range ids, the same peer
			// twice, the frame's own To.
			Kind: KindPublish, From: 66, To: 10, Seq: 12, Publisher: 9, TTL: 32,
			RoutingTable: []int32{-5, 1 << 30, 11, 11, 10},
		},
	}
}

// FuzzUnmarshal asserts Unmarshal never panics and never allocates more
// than the input can justify, and that accepted frames roundtrip
// byte-identically (the encoding is canonical).
func FuzzUnmarshal(f *testing.F) {
	for _, m := range fuzzSeeds() {
		frame := Marshal(m)[4:] // strip the length prefix, as readLoop does
		f.Add(frame)
		// Truncated variant.
		if len(frame) > 3 {
			f.Add(frame[:len(frame)-3])
		}
		// Corrupted slice-length claim: overwrite the neighborhood length
		// field with an enormous value.
		if len(frame) >= 17 {
			bad := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(bad[13:], 1<<30)
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	// dirty is a reused Message carrying stale slices from whatever frame
	// the fuzzer decoded last — the UnmarshalInto contract says those must
	// never leak into the next decode.
	dirty := &Message{}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			if m != nil {
				t.Fatal("error return carried a non-nil message")
			}
			// The reused-struct path must agree on rejection.
			if UnmarshalInto(dirty, b) == nil {
				t.Fatal("UnmarshalInto accepted a frame Unmarshal rejected")
			}
			return
		}
		// Decoded slices can only hold what the frame physically carried:
		// a tiny frame must never produce a huge message (over-allocation
		// guard — the length claims are validated against len(b) before
		// any make).
		claimed := 4*len(m.Neighborhood) + 4*len(m.RoutingTable) + 8*len(m.Bitmap) + len(m.Payload) +
			4*len(m.Succs) + 8*len(m.SuccPos) + 4*len(m.Preds) + 8*len(m.PredPos) + len(m.Topic) +
			ackEntrySize*len(m.Acks)
		if claimed > len(b) {
			t.Fatalf("decoded %d bytes of slices from a %d-byte frame", claimed, len(b))
		}
		out := Marshal(m)[4:]
		if !bytes.Equal(out, b) {
			t.Fatalf("roundtrip mismatch:\n in: %x\nout: %x", b, out)
		}
		// Decode the same frame into the dirty reused Message (stale
		// slices from the previous iteration still attached): canonical
		// roundtrip must hold for it too, byte for byte.
		if err := UnmarshalInto(dirty, b); err != nil {
			t.Fatalf("UnmarshalInto rejected a frame Unmarshal accepted: %v", err)
		}
		if reused := MarshalAppend(nil, dirty)[4:]; !bytes.Equal(reused, b) {
			t.Fatalf("dirty-reuse roundtrip mismatch:\n in: %x\nout: %x", b, reused)
		}
	})
}

// TestUnmarshalOversizedClaimCheap pins the over-allocation fix: a
// 17-byte frame claiming a million-entry neighborhood must fail fast
// without allocating the claimed 4 MB.
func TestUnmarshalOversizedClaimCheap(t *testing.T) {
	frame := make([]byte, 17)
	frame[0] = byte(KindExchangeRT)
	binary.LittleEndian.PutUint32(frame[13:], maxSliceLen) // within the claim bound, way past the frame
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(frame); err == nil {
			t.Fatal("oversized claim accepted")
		}
	})
	// Error path cost: the message struct and the error — not a 4 MB slice.
	if allocs > 8 {
		t.Fatalf("oversized claim cost %.0f allocations", allocs)
	}
}
