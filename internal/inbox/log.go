// Package inbox is the durable store-and-forward tier of the SELECT
// runtime (DESIGN.md §12): replicated per-subscriber inboxes that hold
// publications the repair engine would otherwise dead-letter for an
// offline subscriber, persisted in a CRC-framed append log and replayed
// highest-priority-first when the subscriber rejoins.
//
// The package is deliberately protocol-free — it knows nothing about
// wire messages, leases, or the ring. It provides exactly two things:
// the Log (a crash-tolerant record journal, one per event-loop shard)
// and the Store (the in-memory pending index rebuilt from the log at
// open). Replica selection lives in selectcore, the lease state machine
// in internal/node.
package inbox

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Priority classes, replayed in ascending order (the SNIPPETS.md
// notification-benchmark convention: HIGH drains before MEDIUM before
// LOW).
const (
	High uint8 = iota
	Medium
	Low
	numPriorities
)

// Record is one deposited publication: the copy replica Replica holds
// for subscriber Target, identified by (Publisher, Seq) — the same id
// the DedupWindow uses, which is what makes replay duplicates harmless.
type Record struct {
	Replica     int32
	Target      int32
	Publisher   int32
	Seq         uint32
	Priority    uint8
	PayloadSize uint32
	Payload     []byte
	// Topic names the topic the publication was addressed to; empty for
	// friend-feed deposits. Carried so replay can restore the delivery's
	// topic metadata and so an unsubscribe can purge exactly the records
	// of the topic it departs (Store.PurgeTopic).
	Topic []byte
}

// Log record types.
const (
	recDeposit byte = 1
	recAck     byte = 2
)

// Frame layout on disk: [len u32][crc u32][body], little endian, where
// crc is the IEEE CRC-32 of body and len = len(body). The body is
// type(1) replica(4) target(4) publisher(4) seq(4) priority(1)
// payloadSize(4) payloadLen(4) topicLen(4) payload topic. Acks carry
// the same body with an empty payload. A reader stops at the first
// frame whose length runs past EOF (torn tail write) or whose CRC
// mismatches (bit flip) — everything before it is intact by
// construction.
const (
	recHeader  = 4 + 4
	recBodyFix = 1 + 4 + 4 + 4 + 4 + 1 + 4 + 4 + 4
	// maxRecordLen bounds what a reader will buffer for one frame; a
	// corrupted length field must never cost more memory than this.
	maxRecordLen = 16 << 20
)

// Log is the file-backed journal. One Log is shared by every replica
// hosted on the same event-loop shard (records carry the replica id),
// mirroring the per-shard mailbox layout of the PR-6 runtime. Appends
// are serialized by an internal mutex-free contract: the owning shard
// goroutine is the only writer, so the Log itself stays lock-free; the
// Store above it holds the lock.
type Log struct {
	f    *os.File
	path string
	// tmp is where a compaction writes the journal it renames over path.
	tmp     string
	scratch []byte
	// syncEvery is the fsync policy: 0 leaves flushing to the OS page
	// cache (fastest, loses the tail on power failure), 1 fsyncs every
	// append (strongest), N>1 fsyncs every N appends (bounded loss).
	syncEvery int
	unsynced  int
}

// OpenLog opens (creating if needed) the journal at path for appending.
func OpenLog(path string, syncEvery int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, path: path, tmp: path + ".compact", syncEvery: syncEvery}, nil
}

// frameRecord appends one framed record to b.
func frameRecord(b []byte, typ byte, r *Record) []byte {
	body := recBodyFix + len(r.Payload) + len(r.Topic)
	start := len(b)
	b = slices.Grow(b, recHeader+body)[:start+recHeader+body]
	f := b[start:]
	binary.LittleEndian.PutUint32(f[0:], uint32(body))
	off := recHeader
	f[off] = typ
	off++
	binary.LittleEndian.PutUint32(f[off:], uint32(r.Replica))
	off += 4
	binary.LittleEndian.PutUint32(f[off:], uint32(r.Target))
	off += 4
	binary.LittleEndian.PutUint32(f[off:], uint32(r.Publisher))
	off += 4
	binary.LittleEndian.PutUint32(f[off:], r.Seq)
	off += 4
	f[off] = r.Priority
	off++
	binary.LittleEndian.PutUint32(f[off:], r.PayloadSize)
	off += 4
	binary.LittleEndian.PutUint32(f[off:], uint32(len(r.Payload)))
	off += 4
	binary.LittleEndian.PutUint32(f[off:], uint32(len(r.Topic)))
	off += 4
	off += copy(f[off:], r.Payload)
	copy(f[off:], r.Topic)
	binary.LittleEndian.PutUint32(f[4:], crc32.ChecksumIEEE(f[recHeader:]))
	return b
}

// appendRecord frames and writes one record.
func (l *Log) appendRecord(typ byte, r *Record) error {
	l.scratch = frameRecord(l.scratch[:0], typ, r)
	return l.flush(1)
}

// appendAcks frames one ack record per key and writes them all with a
// single write(2): an ack batch costs the journal one system call, not
// one per record.
func (l *Log) appendAcks(keys []recKey) error {
	l.scratch = l.scratch[:0]
	for _, k := range keys {
		l.scratch = frameRecord(l.scratch, recAck, &Record{Replica: k.replica, Target: k.target, Publisher: k.publisher, Seq: k.seq})
	}
	return l.flush(len(keys))
}

// flush writes the records framed in scratch and applies the fsync
// policy to them.
func (l *Log) flush(records int) error {
	if _, err := l.f.Write(l.scratch); err != nil {
		return err
	}
	if l.syncEvery > 0 {
		l.unsynced += records
		if l.unsynced >= l.syncEvery {
			l.unsynced = 0
			return l.f.Sync()
		}
	}
	return nil
}

// Sync forces the journal to stable storage regardless of policy.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the journal file.
func (l *Log) Close() error { return l.f.Close() }

// entry is one decoded journal record.
type entry struct {
	typ byte
	rec Record
}

// readJournal streams every intact record from r. It returns the number
// of corrupt frames that terminated the scan (0 or 1: the journal is a
// single writer stream, so nothing after the first bad frame can be
// trusted) — a torn or bit-flipped tail is skipped with a count, never
// a panic or an error.
func readJournal(r io.Reader) (entries []entry, corrupt int, err error) {
	var hdr [recHeader]byte
	for {
		if _, e := io.ReadFull(r, hdr[:1]); e == io.EOF {
			return entries, 0, nil
		} else if e != nil {
			return entries, 1, nil
		}
		if _, e := io.ReadFull(r, hdr[1:]); e != nil {
			return entries, 1, nil // torn header
		}
		bodyLen := binary.LittleEndian.Uint32(hdr[0:])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if bodyLen < recBodyFix || bodyLen > maxRecordLen {
			return entries, 1, nil // corrupted length field
		}
		body := make([]byte, bodyLen)
		if _, e := io.ReadFull(r, body); e != nil {
			return entries, 1, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			return entries, 1, nil // bit flip
		}
		var ent entry
		ent.typ = body[0]
		off := 1
		ent.rec.Replica = int32(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		ent.rec.Target = int32(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		ent.rec.Publisher = int32(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		ent.rec.Seq = binary.LittleEndian.Uint32(body[off:])
		off += 4
		ent.rec.Priority = body[off]
		off++
		ent.rec.PayloadSize = binary.LittleEndian.Uint32(body[off:])
		off += 4
		plen := binary.LittleEndian.Uint32(body[off:])
		off += 4
		tlen := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if int(plen)+int(tlen) != int(bodyLen)-recBodyFix {
			return entries, 1, nil // inner/outer length disagreement
		}
		if plen > 0 {
			ent.rec.Payload = body[off : off+int(plen)]
			off += int(plen)
		}
		if tlen > 0 {
			ent.rec.Topic = body[off : off+int(tlen)]
		}
		entries = append(entries, ent)
	}
}

// rewriteChunk is how many framed bytes a compaction buffers before it
// writes them out.
const rewriteChunk = 64 << 10

// rewrite atomically replaces the journal with exactly recs (the
// compaction step): write to a temp file, fsync, rename over the old
// journal, reopen for appending. The records are framed in the log's
// scratch and written a chunk at a time.
func (l *Log) rewrite(recs []*Record) error {
	f, err := os.OpenFile(l.tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(l.tmp)
		return err
	}
	l.scratch = l.scratch[:0]
	for i, r := range recs {
		l.scratch = frameRecord(l.scratch, recDeposit, r)
		if len(l.scratch) < rewriteChunk && i < len(recs)-1 {
			continue
		}
		if _, err := f.Write(l.scratch); err != nil {
			return fail(err)
		}
		l.scratch = l.scratch[:0]
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(l.tmp)
		return err
	}
	if err := os.Rename(l.tmp, l.path); err != nil {
		os.Remove(l.tmp)
		return err
	}
	old := l.f
	nf, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return errors.Join(fmt.Errorf("inbox: reopen after compact: %w", err), old.Close())
	}
	l.f = nf
	l.unsynced = 0
	return old.Close()
}
