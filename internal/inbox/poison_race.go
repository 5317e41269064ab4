//go:build race

package inbox

// Race builds — what CI's -race jobs run — poison every slot the store
// frees: its payload and topic buffers are filled to capacity with
// poisonByte, so a record NextN returned and a caller kept past its ack
// reads the pattern instead of bytes that happen to survive.
func init() { poison = fill }

// poisonByte is the pattern a freed slot's buffers read.
const poisonByte = 0xEE

func fill(sl *slot) {
	for _, b := range [][]byte{sl.payload, sl.top} {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
}
