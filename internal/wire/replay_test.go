package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// replaySeeds are records of every shape a journal holds: size-only, with
// a body, of a topic, empty.
func replaySeeds() []ReplayRecord {
	return []ReplayRecord{
		{Publisher: 9, Seq: 11, Priority: 2, PayloadSize: 1_200_000},
		{Publisher: 9, Seq: 12, Priority: 0, PayloadSize: 4, Payload: []byte("body")},
		{Publisher: 3, Seq: 1 << 31, Priority: 1, PayloadSize: 2, Payload: []byte("hi"), Topic: []byte("#go")},
		{},
	}
}

func replayContainer(recs []ReplayRecord) []byte {
	var b []byte
	for i := range recs {
		b = AppendReplayRecord(b, &recs[i])
	}
	return b
}

func TestReplayContainerRoundTrip(t *testing.T) {
	want := replaySeeds()
	b := replayContainer(want)
	if err := CheckReplayContainer(b, len(want)); err != nil {
		t.Fatal(err)
	}
	size := 0
	for i := range want {
		size += want[i].Size()
	}
	if size != len(b) {
		t.Errorf("the records' sizes add up to %d, their container holds %d bytes", size, len(b))
	}
	rest := b
	for i, w := range want {
		var got ReplayRecord
		var err error
		if got, rest, err = NextReplayRecord(rest); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("record %d: got %+v, want %+v", i, got, w)
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left after the last record", len(rest))
	}
	// The count is part of the container: one more or one fewer than the
	// bytes hold, a byte too many, a byte too few — all refused.
	for _, bad := range []struct {
		what  string
		b     []byte
		count int
	}{
		{"a count larger than the body", b, len(want) + 1},
		{"a count smaller than the body", b, len(want) - 1},
		{"no records", nil, 0},
		{"a negative count", b, -1},
		{"a trailing byte", append(bytes.Clone(b), 0), len(want)},
		{"a truncated body", b[:len(b)-1], len(want)},
		{"a truncated header", b[:replayRecordFix-1], 1},
	} {
		if CheckReplayContainer(bad.b, bad.count) == nil {
			t.Errorf("%s was accepted", bad.what)
		}
	}
	// Lengths that overflow a 32-bit sum must not wrap into range.
	over := replayContainer(want[1:2])
	binary.LittleEndian.PutUint32(over[13:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(over[17:], 5)
	if _, _, err := NextReplayRecord(over); err == nil {
		t.Error("payload and topic lengths that sum past 2^32 were accepted")
	}
}

// FuzzReplayContainer feeds the record decoder truncations, counts that
// disagree with the body and overflowing lengths: it never panics, what
// it accepts re-encodes to the same bytes, and it allocates nothing — a
// record's slices alias the frame, so no length claim can cost memory.
func FuzzReplayContainer(f *testing.F) {
	seeds := replaySeeds()
	for k := 1; k <= len(seeds); k++ {
		b := replayContainer(seeds[:k])
		f.Add(b, k)
		f.Add(b, k+1)
		f.Add(b[:len(b)-1], k)
		bad := bytes.Clone(b)
		binary.LittleEndian.PutUint32(bad[13:], 1<<31)
		f.Add(bad, k)
	}
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, b []byte, count int) {
		var err error
		if allocs := testing.AllocsPerRun(1, func() { err = CheckReplayContainer(b, count) }); err == nil && allocs > 0 {
			t.Fatalf("checking a well-formed container allocated %.0f times", allocs)
		}
		if err != nil {
			return
		}
		var out []byte
		rest := b
		for i := 0; i < count; i++ {
			var r ReplayRecord
			if r, rest, err = NextReplayRecord(rest); err != nil {
				t.Fatalf("record %d of a checked container: %v", i, err)
			}
			if len(r.Payload)+len(r.Topic) > len(b) {
				t.Fatalf("record %d holds %d bytes of a %d-byte container", i, len(r.Payload)+len(r.Topic), len(b))
			}
			out = AppendReplayRecord(out, &r)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("roundtrip mismatch:\n in: %x\nout: %x", b, out)
		}
	})
}
