package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/ring"
	"selectps/internal/sched"
	"selectps/internal/selectcore"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// Micro rows call one layer's exported functions in a tight loop, on
// inputs shaped like the workloads' own messages (a 256-byte
// publication, a full 64-entry ack batch, rings of the workloads' sizes
// and of the 4000-peer scale the roadmap aims at).

// nsPerOp times fn in batches for about dur and returns the median
// batch's ns per call: a batch that a GC or a preemption lands in does
// not decide the row. Batches are sized to ~50 µs so that the clock reads
// cost nothing against fast calls and slow calls still yield several
// batches.
func nsPerOp(dur time.Duration, fn func()) float64 {
	t0 := time.Now()
	fn()
	batch := int(50 * time.Microsecond / (time.Since(t0) + 1))
	if batch < 1 {
		batch = 1
	} else if batch > 256 {
		batch = 256
	}
	var per []float64
	for start := time.Now(); time.Since(start) < dur || len(per) < 3; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

func publishMsg(payload int) *wire.Message {
	body := make([]byte, payload)
	rand.New(rand.NewSource(1)).Read(body)
	return &wire.Message{
		Kind: wire.KindPublish, From: 3, To: 9, Seq: 77, Publisher: 3, TTL: 32,
		PayloadSize: uint32(payload), Payload: body,
	}
}

func ackBatchMsg() *wire.Message {
	m := &wire.Message{Kind: wire.KindAckBatch, From: 9, To: 3, Seq: 1}
	for i := 0; i < 64; i++ {
		m.Acks = append(m.Acks, wire.AckEntry{Kind: wire.KindAck, From: 9, Dest: 3, Pub: 3, Seq: uint32(i), TTL: 32})
	}
	return m
}

func ringOf(n int) []selectcore.RingMember {
	rng := rand.New(rand.NewSource(int64(n)))
	ms := make([]selectcore.RingMember, n)
	for i := range ms {
		ms[i] = selectcore.RingMember{ID: int32(i), Pos: ring.ID(rng.Float64())}
	}
	return ms
}

// microRows fills in every micro row. dir is scratch space for the
// journal rows and is removed before returning.
func microRows(res *result, dur time.Duration, dir string) {
	wireRows(res, dur)
	transportRows(res, dur)
	schedRows(res, dur)
	selectcoreRows(res, dur)
	if err := inboxRows(res, dur, dir); err != nil {
		res.notef("inbox micro rows failed: %v", err)
		res.correct = false
	}
	os.RemoveAll(dir)
	met := obs.New()
	res.set("obs.inc_ns", nsPerOp(dur, func() { met.Inc(obs.CTransportSend) }))
}

func wireRows(res *result, dur time.Duration) {
	sink := 0 // results flow here so that the calls are not optimised away
	defer runtime.KeepAlive(&sink)
	pub, pub4k, batch := publishMsg(payloadSize), publishMsg(4096), ackBatchMsg()
	buf := make([]byte, 0, 8192)
	res.set("wire.marshal_publish_ns", nsPerOp(dur, func() { buf = wire.MarshalAppend(buf[:0], pub) }))
	res.set("wire.frame_bytes_publish", float64(len(buf)))
	body := append([]byte(nil), buf[4:]...)
	// Decoding into a fresh Message is what the TCP read loop does: the
	// receiver owns the Message.
	res.set("wire.unmarshal_publish_ns", nsPerOp(dur, func() {
		m, _ := wire.Unmarshal(body)
		sink += int(m.Seq)
	}))
	res.set("wire.marshal_publish_4k_ns", nsPerOp(dur, func() { buf = wire.MarshalAppend(buf[:0], pub4k) }))
	res.set("wire.marshal_ackbatch64_ns", nsPerOp(dur, func() { buf = wire.MarshalAppend(buf[:0], batch) }))
	batchBody := append([]byte(nil), buf[4:]...)
	res.set("wire.unmarshal_ackbatch64_ns", nsPerOp(dur, func() {
		m, _ := wire.Unmarshal(batchBody)
		sink += len(m.Acks)
	}))
	frame := wire.Marshal(pub)
	to := int32(0)
	res.set("wire.patch_fanout_ns", nsPerOp(dur, func() {
		to++
		wire.PatchTo(frame, to)
	}))
	// One publish copy end to end through the codec, as TCP does it:
	// pooled marshal on the way out, fresh Message on the way in.
	const rounds = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		fb := wire.GetFrame()
		*fb = wire.MarshalAppend((*fb)[:0], pub)
		m, _ := wire.Unmarshal((*fb)[4:])
		sink += int(m.Seq)
		wire.PutFrame(fb)
	}
	runtime.ReadMemStats(&m1)
	res.set("wire.allocs_per_roundtrip", float64(m1.Mallocs-m0.Mallocs)/rounds)
}

func transportRows(res *result, dur time.Duration) {
	oneway, pipe := 0.0, 0.0
	if t, err := transport.NewTCP(2, mailbox); err == nil {
		in := t.Inbox(1)
		msg := publishMsg(payloadSize)
		msg.From, msg.To = 0, 1
		send := func() { _ = t.Send(1, msg) }
		send() // dial
		<-in
		var lat []float64
		for start := time.Now(); time.Since(start) < dur || len(lat) < 16; {
			t0 := time.Now()
			send()
			<-in
			lat = append(lat, float64(time.Since(t0))/1e3)
		}
		oneway = quantile(lat, 0.50)
		// Saturated pair: a window of frames in flight, so the writer
		// always has a batch to coalesce and nothing is dropped.
		const window = 256
		sent, got := 0, 0
		start := time.Now()
		for time.Since(start) < 4*dur {
			for sent-got < window {
				send()
				sent++
			}
			<-in
			got++
		}
		pipe = float64(got) / time.Since(start).Seconds()
		t.Close()
	} else {
		res.notef("tcp micro rows skipped: %v", err)
	}
	res.set("transport.tcp_oneway_p50_us", oneway)
	res.set("transport.tcp_pipe_frames_per_s", pipe)
}

func schedRows(res *result, dur time.Duration) {
	const pending = 10000
	base := time.Now()
	w := sched.NewWheel(time.Millisecond, 512, base)
	rng := rand.New(rand.NewSource(5))
	at := func() time.Time { return base.Add(time.Duration(rng.Intn(400)+1) * time.Millisecond) }
	for id := uint64(0); id < pending; id++ {
		w.Schedule(id, at())
	}
	id := uint64(0)
	res.set("sched.schedule_ns", nsPerOp(dur, func() {
		w.Schedule(id%pending, at()) // upsert: how repair and ack-flush deadlines move
		id++
	}))
	var cancel []float64
	for start := time.Now(); time.Since(start) < dur || len(cancel) < 3; {
		t0 := time.Now()
		for id := uint64(0); id < pending; id++ {
			w.Cancel(id)
		}
		cancel = append(cancel, float64(time.Since(t0))/pending)
		for id := uint64(0); id < pending; id++ {
			w.Schedule(id, at())
		}
	}
	res.set("sched.cancel_ns", median(cancel))
	var advance []float64
	now := base
	for start := time.Now(); time.Since(start) < dur || len(advance) < 3; {
		now = now.Add(401 * time.Millisecond)
		t0 := time.Now()
		fired := w.Advance(now)
		if len(fired) == 0 {
			break
		}
		advance = append(advance, float64(time.Since(t0))/float64(len(fired)))
		for _, f := range fired {
			w.Schedule(f.ID, now.Add(time.Duration(rng.Intn(400)+1)*time.Millisecond))
		}
	}
	res.set("sched.advance_ns_per_fired", median(advance))
}

func selectcoreRows(res *result, dur time.Duration) {
	sink := 0 // results flow here so that the calls are not optimised away
	defer runtime.KeepAlive(&sink)
	for _, n := range []int{200, 4000} {
		members := ringOf(n)
		pos := selectcore.TopicPos("#topic-0")
		res.set(fmt.Sprintf("selectcore.rendezvous_ns_n%d", n), nsPerOp(dur, func() {
			sink += len(selectcore.Rendezvous(pos, members, nil, 2))
		}))
	}
	subs := make([]int32, 256)
	for i := range subs {
		subs[i] = int32((i * 7919) % 1000)
	}
	res.set("selectcore.tree_branches_ns_s256", nsPerOp(dur, func() {
		sink += len(selectcore.TreeBranches(subs, 4))
	}))
	for _, n := range []int{60, 4000} {
		members := ringOf(n)
		res.set(fmt.Sprintf("selectcore.inbox_replicas_ns_n%d", n), nsPerOp(dur, func() {
			sink += len(selectcore.InboxReplicas(7, members[7].Pos, members, nil, 2))
		}))
	}
	bo := selectcore.Backoff{Base: retryBase, Max: 10 * retryBase, Budget: 12}
	k := 0
	res.set("selectcore.backoff_delay_ns", nsPerOp(dur, func() {
		sink += int(bo.Delay(0x5eed, k%12))
		k++
	}))
}

func inboxRows(res *result, dur time.Duration, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := publishMsg(payloadSize).Payload
	rec := func(seq uint32) inbox.Record {
		return inbox.Record{Replica: 1, Target: int32(seq % 16), Publisher: 3, Seq: seq, Priority: inbox.Medium,
			PayloadSize: payloadSize, Payload: body}
	}
	// Deposit, then Next+Ack, as a replica does for an offline subscriber.
	path := filepath.Join(dir, "cycle.log")
	st, err := inbox.Open(path, 0, nil)
	if err != nil {
		return err
	}
	seq := uint32(0)
	res.set("inbox.deposit_ns", nsPerOp(dur, func() {
		seq++
		_, _ = st.Deposit(rec(seq))
	}))
	drained := uint32(0)
	res.set("inbox.next_ack_ns", nsPerOp(dur, func() {
		r, ok := st.Next(1, int32(drained%16))
		if ok {
			_, _ = st.Ack(r.Replica, r.Target, r.Publisher, r.Seq)
		} else {
			seq++ // ran dry: refill one so the row times a real Next+Ack
			_, _ = st.Deposit(rec(seq))
		}
		drained++
	}))
	if err := st.Close(); err != nil {
		return err
	}
	// A 10k-record journal: size, recovery, compaction.
	const records = 10000
	path = filepath.Join(dir, "10k.log")
	if st, err = inbox.Open(path, 0, nil); err != nil {
		return err
	}
	for i := uint32(1); i <= records; i++ {
		if _, err := st.Deposit(rec(i)); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.set("inbox.bytes_per_record", float64(fi.Size())/records)
	t0 := time.Now()
	if st, err = inbox.Open(path, 0, nil); err != nil {
		return err
	}
	res.set("inbox.recover_ms_10k", ms(time.Since(t0)))
	t0 = time.Now()
	if err := st.Compact(); err != nil {
		return err
	}
	res.set("inbox.compact_ms_10k", ms(time.Since(t0)))
	return st.Close()
}
