package wire

import (
	"encoding/binary"
	"fmt"
)

// A KindInboxReplay frame carries a batch of journaled publications in
// its Payload slot: NMutual records, back to back, each
//
//	publisher (4) seq (4) priority (1) payloadSize (4)
//	payloadLen (4) topicLen (4) payload topic
//
// little endian like the frame around them. The frame layout does not
// change for it — a replay frame is a Message whose body is this
// container — and the frame's own Publisher, Seq and Priority repeat the
// first record's, so a reader of the fixed header still sees a
// publication.

// ReplayRecord is one publication inside a replay frame: what
// KindInboxReplay carried in the fixed header when a frame held one.
type ReplayRecord struct {
	Publisher   int32
	Seq         uint32
	Priority    uint8
	PayloadSize uint32
	Payload     []byte
	Topic       []byte
}

const replayRecordFix = 4 + 4 + 1 + 4 + 4 + 4

// Size is the number of bytes r takes in a replay container.
func (r *ReplayRecord) Size() int { return replayRecordFix + len(r.Payload) + len(r.Topic) }

// AppendReplayRecord appends r's encoding to a replay container.
func AppendReplayRecord(dst []byte, r *ReplayRecord) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Publisher))
	dst = binary.LittleEndian.AppendUint32(dst, r.Seq)
	dst = append(dst, r.Priority)
	dst = binary.LittleEndian.AppendUint32(dst, r.PayloadSize)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Payload)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Topic)))
	dst = append(dst, r.Payload...)
	return append(dst, r.Topic...)
}

// NextReplayRecord decodes the record at the head of container b and
// returns what follows it. The record's Payload and Topic alias b, so
// nothing is allocated whatever the lengths claim; a length that runs
// past the end of b is an error.
func NextReplayRecord(b []byte) (r ReplayRecord, rest []byte, err error) {
	if len(b) < replayRecordFix {
		return r, nil, fmt.Errorf("wire: truncated replay record (%d bytes)", len(b))
	}
	r.Publisher = int32(binary.LittleEndian.Uint32(b[0:]))
	r.Seq = binary.LittleEndian.Uint32(b[4:])
	r.Priority = b[8]
	r.PayloadSize = binary.LittleEndian.Uint32(b[9:])
	pl := uint64(binary.LittleEndian.Uint32(b[13:]))
	tl := uint64(binary.LittleEndian.Uint32(b[17:]))
	b = b[replayRecordFix:]
	if pl+tl > uint64(len(b)) {
		return r, nil, fmt.Errorf("wire: replay record claims %d+%d bytes of %d", pl, tl, len(b))
	}
	if pl > 0 {
		r.Payload = b[:pl:pl]
	}
	if tl > 0 {
		r.Topic = b[pl : pl+tl : pl+tl]
	}
	return r, b[pl+tl:], nil
}

// CheckReplayContainer reports whether b is exactly count well-formed
// records. A receiver checks the whole container before it acts on any
// record of it, so a malformed frame is dropped whole.
func CheckReplayContainer(b []byte, count int) error {
	if count < 1 {
		return fmt.Errorf("wire: replay frame of %d records", count)
	}
	for i := 0; i < count; i++ {
		var err error
		if _, b, err = NextReplayRecord(b); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("wire: %d bytes after %d replay records", len(b), count)
	}
	return nil
}
