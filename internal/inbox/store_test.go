package inbox

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// TestStoreAllocPins holds the store to its allocation budget: once its
// slab, its queues and its scratch have grown, a deposit takes a freed
// slot and copies into that slot's buffers, NextN appends into the
// caller's slice, and AckMany frees the slots again — a replica that
// takes deposits and drains them allocates nothing. A compaction costs
// what opening, renaming and closing the journal files costs, and the
// same however many records it rewrites.
func TestStoreAllocPins(t *testing.T) {
	s := openT(t, filepath.Join(t.TempDir(), "shard.log"), 0)
	body, topic := make([]byte, 300), []byte("#alloc")
	seq := uint32(0)
	ids := make([]ID, 0, 8)
	out := make([]Record, 0, 8)
	cycle := func() {
		ids = ids[:0]
		for i := 0; i < 8; i++ {
			seq++
			r := Record{Replica: 1, Target: int32(seq % 3), Publisher: 7, Seq: seq, Priority: uint8(seq % 3),
				PayloadSize: uint32(len(body)), Payload: body, Topic: topic}
			if _, err := s.Deposit(r); err != nil {
				t.Fatal(err)
			}
		}
		for target := int32(0); target < 3; target++ {
			out = s.NextN(out[:0], 1, target, 8, 1<<20)
			ids = ids[:0]
			for _, r := range out {
				ids = append(ids, ID{r.Publisher, r.Seq})
			}
			if _, err := s.AckMany(1, target, ids); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	// Stay under compactEvery acks: the compaction is pinned below.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(compactEvery/8-2, cycle); a != 0 {
		t.Errorf("8 deposits, their NextN batches and AckMany: %.1f allocs, want 0", a)
	}
	if s.Depth() != 0 {
		t.Fatalf("%d records left pending", s.Depth())
	}

	compactAllocs := func(pending int) float64 {
		c := openT(t, filepath.Join(t.TempDir(), "shard.log"), 0)
		for i := 0; i < pending; i++ {
			if _, err := c.Deposit(Record{Replica: 1, Target: int32(i % 5), Publisher: 7, Seq: uint32(i), Payload: body}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := c.Compact(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := compactAllocs(8), compactAllocs(512); few != many {
		t.Errorf("a compaction of 8 records costs %.1f allocs and one of 512 %.1f: want the same", few, many)
	}
}

// TestStoreNextNBytesHoldUntilAcked is a model check of the NextN
// contract over random sequences of Deposit, NextN, AckMany, PurgeTopic
// and Compact: every record NextN returned reads the bytes it was
// deposited with until the call that acks it, however many slots were
// freed and refilled meanwhile; every batch is the model's queue in drain
// order; and the store holds what the model holds.
func TestStoreNextNBytesHoldUntilAcked(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkNextNModel(t, seed) })
	}
}

func checkNextNModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := openT(t, filepath.Join(t.TempDir(), "shard.log"), 0)
	const replica, targets = 4, 3
	topics := [][]byte{nil, []byte("#a"), []byte("#bb")}
	// want is the model: each target's pending records in drain order.
	type rec struct {
		seq     uint32
		pri     uint8
		payload []byte
		topic   []byte
	}
	want := make([][]rec, targets)
	// held are the records NextN handed out, with the bytes they must
	// keep until acked.
	type view struct {
		target int32
		r      Record
		rec    rec
	}
	var held []view
	drop := func(target int32, gone func(rec) bool) {
		want[target] = slices.DeleteFunc(want[target], gone)
		held = slices.DeleteFunc(held, func(v view) bool { return v.target == target && gone(v.rec) })
	}
	seq := uint32(0)
	for step := 0; step < 600; step++ {
		target := int32(rng.Intn(targets))
		switch op := rng.Intn(10); {
		case op < 4:
			seq++
			r := rec{seq: seq, pri: uint8(rng.Intn(3)), topic: topics[rng.Intn(len(topics))]}
			// Mostly small bodies; now and then one that outgrows its slot's
			// buffer or the arena's chunk, or that gets a buffer of its own.
			size := rng.Intn(40)
			if rng.Intn(8) == 0 {
				size = []int{3000, 9000, slotKeepBytes + 1}[rng.Intn(3)]
			}
			r.payload = make([]byte, size)
			rng.Read(r.payload)
			buf := slices.Clone(r.payload)
			if fresh, err := s.Deposit(Record{Replica: replica, Target: target, Publisher: 9, Seq: seq,
				Priority: r.pri, PayloadSize: uint32(len(buf)), Payload: buf, Topic: r.topic}); err != nil || !fresh {
				t.Fatalf("step %d: deposit = %v, %v", step, fresh, err)
			}
			for i := range buf {
				buf[i] = 0 // the caller's buffer is its own again
			}
			// Drain order: High before Medium before Low, FIFO within.
			i := len(want[target])
			for i > 0 && want[target][i-1].pri > r.pri {
				i--
			}
			want[target] = slices.Insert(want[target], i, r)
		case op < 6:
			max := 1 + rng.Intn(6)
			got := s.NextN(nil, replica, target, max, 1<<20)
			exp := want[target][:min(max, len(want[target]))]
			if len(got) != len(exp) {
				t.Fatalf("step %d: NextN returned %d records, the model %d", step, len(got), len(exp))
			}
			for i, r := range got {
				if r.Seq != exp[i].seq {
					t.Fatalf("step %d: NextN[%d] is seq %d, the model's is %d", step, i, r.Seq, exp[i].seq)
				}
				held = append(held, view{target, r, exp[i]})
			}
		case op < 8:
			var ids []ID
			for _, r := range want[target] {
				if rng.Intn(2) == 0 {
					ids = append(ids, ID{9, r.seq})
				}
			}
			ids = append(ids, ID{9, seq + 100}) // never deposited
			cleared, err := s.AckMany(replica, target, ids)
			if err != nil || cleared != len(ids)-1 {
				t.Fatalf("step %d: AckMany = %d, %v; want %d", step, cleared, err, len(ids)-1)
			}
			drop(target, func(r rec) bool { return slices.Contains(ids, ID{9, r.seq}) })
		case op < 9:
			topic := topics[1+rng.Intn(2)]
			if _, err := s.PurgeTopic(replica, target, topic); err != nil {
				t.Fatal(err)
			}
			drop(target, func(r rec) bool { return bytes.Equal(r.topic, topic) })
		default:
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range held {
			if !bytes.Equal(v.r.Payload, v.rec.payload) || !bytes.Equal(v.r.Topic, v.rec.topic) {
				t.Fatalf("step %d: record %d of target %d reads %x/%q before its ack, deposited as %x/%q",
					step, v.rec.seq, v.target, v.r.Payload, v.r.Topic, v.rec.payload, v.rec.topic)
			}
		}
		for tg := int32(0); tg < targets; tg++ {
			if got := s.PendingFor(replica, tg); got != len(want[tg]) {
				t.Fatalf("step %d: target %d holds %d records, the model %d", step, tg, got, len(want[tg]))
			}
		}
	}
}
