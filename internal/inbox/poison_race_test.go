//go:build race

package inbox

import (
	"path/filepath"
	"testing"
)

// TestAckPoisonsFreedSlot keeps a record NextN returned past its ack on
// purpose and checks that its bytes now read the pattern: under -race a
// replica that holds on to an acked record's payload sees garbage
// instead of bytes that survive until the slot's next deposit.
func TestAckPoisonsFreedSlot(t *testing.T) {
	s := openT(t, filepath.Join(t.TempDir(), "shard.log"), 0)
	r := dep(2, 10, 9, 1, Medium, "kept")
	r.Topic = []byte("#kept")
	if _, err := s.Deposit(r); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Next(2, 10)
	if !ok {
		t.Fatal("no pending record")
	}
	if _, err := s.Ack(2, 10, 9, 1); err != nil {
		t.Fatal(err)
	}
	for _, view := range [][]byte{got.Payload, got.Topic} {
		for _, b := range view {
			if b != poisonByte {
				t.Fatalf("an acked record reads %q/%q, want the pattern", got.Payload, got.Topic)
			}
		}
	}
}
