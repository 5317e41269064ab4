//go:build race

package wire

// Race builds — what CI's -race jobs run — poison every Message handed to
// PutMessage: each slice is filled to its capacity with poisonByte, so a
// handler that kept a view of its inbound Message past its return reads
// the pattern in the next test that looks at it.
func init() { poison = fill }

// poisonByte is the pattern a recycled Message's slices read.
const poisonByte = 0xEE

func fill(m *Message) {
	// poisonByte in every byte, at each width.
	const u32, u64 = uint32(0xEEEEEEEE), uint64(0xEEEEEEEEEEEEEEEE)
	const w32 = int32(-0x11111112)
	for _, s := range [][]byte{m.Payload, m.Topic} {
		s = s[:cap(s)]
		for i := range s {
			s[i] = poisonByte
		}
	}
	for _, s := range [][]int32{m.Neighborhood, m.RoutingTable, m.Succs, m.Preds} {
		s = s[:cap(s)]
		for i := range s {
			s[i] = w32
		}
	}
	for _, s := range [][]uint64{m.Bitmap, m.SuccPos, m.PredPos} {
		s = s[:cap(s)]
		for i := range s {
			s[i] = u64
		}
	}
	acks := m.Acks[:cap(m.Acks)]
	for i := range acks {
		acks[i] = AckEntry{Kind: poisonByte, From: w32, Dest: w32, Pub: w32, Seq: u32, Target: w32, TTL: poisonByte}
	}
}
