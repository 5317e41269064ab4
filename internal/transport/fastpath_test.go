package transport

import (
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/wire"
)

// senderConn returns the dial-side connection of the lane that carries
// frames to peer `to`, or nil when the lane has none right now.
func senderConn(tr *TCP, to int32) net.Conn {
	l := tr.lane(to)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return l.conn
}

// socketFrame is what a lane's writer puts on the socket for one wire
// frame: the next-hop prefix, then the frame with its length prefix.
func socketFrame(hop int32, frame []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(hop)), frame...)
}

// corruptStreamEvicts writes raw straight onto the established sender
// connection to peer 1 and asserts the corrupt-stream contract: the reader
// counts it under want and fails the sender-side conn, so the next Send
// redials a clean stream and delivers.
func corruptStreamEvicts(t *testing.T, raw []byte, want obs.Counter) {
	t.Helper()
	tr, err := NewTCP(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Obs = obs.New()
	if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, tr.Inbox(1)) // delivered, so the lane's conn is registered
	if _, err := senderConn(tr, 1).Write(raw); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, tr.Obs, want, 1)
	if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, tr.Inbox(1)); got.Seq != 2 {
		t.Fatalf("got %+v", got)
	}
	waitCounter(t, tr.Obs, obs.CTCPRedial, 1)
	if got := tr.Obs.Get(obs.CTCPDial); got != 1 {
		t.Fatalf("fresh dials = %d, want 1", got)
	}
}

// TestTCPOversizeFrameEvictsSender: an impossible length claim is refused
// before anything is allocated for it, counted, and kills the stream.
func TestTCPOversizeFrameEvictsSender(t *testing.T) {
	for name, size := range map[string]uint32{"huge": 1 << 30, "zero": 0} {
		t.Run(name, func(t *testing.T) {
			corruptStreamEvicts(t, socketFrame(1, binary.LittleEndian.AppendUint32(nil, size)), obs.CTCPOversizeFrame)
		})
	}
}

// TestTCPMalformedBodyEvictsSender: a frame whose body fails to decode, or
// whose next-hop prefix names no peer of this transport, is counted as
// malformed and kills the stream the same way.
func TestTCPMalformedBodyEvictsSender(t *testing.T) {
	ping := wire.Marshal(&wire.Message{Kind: wire.KindPing, From: 0, To: 1, Seq: 9})
	for name, raw := range map[string][]byte{
		// Valid hop and length prefix, garbage body: truncated fixed header.
		"body":             socketFrame(1, []byte{3, 0, 0, 0, 0xFF, 0xFF, 0xFF}),
		"hop negative":     socketFrame(-1, ping),
		"hop unknown":      socketFrame(2, ping), // first id past the peer table
		"hop out of range": socketFrame(math.MaxInt32, ping),
	} {
		t.Run(name, func(t *testing.T) { corruptStreamEvicts(t, raw, obs.CTCPMalformedFrame) })
	}
}

func waitCounter(t *testing.T, m *obs.Metrics, c obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if m.Get(c) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%v = %d, want >= %d", c, m.Get(c), want)
}

// TestTCPConcurrentSendNoInterleavedFrames hammers one peer from many
// goroutines while the lane's connection is repeatedly killed out from
// under the writer (evict/redial churn) and the transport finally closes.
// The lane queue must keep frames intact: every frame that reaches the
// receiver decodes, and its payload matches what its Seq promised — no
// interleaved bytes, ever. Run under -race.
func TestTCPConcurrentSendNoInterleavedFrames(t *testing.T) {
	const senders, perSender = 8, 200
	tr, err := NewTCP(2, senders*perSender+64)
	if err != nil {
		t.Fatal(err)
	}
	tr.Obs = obs.New()

	payloadFor := func(seq uint32) []byte {
		p := make([]byte, 32+int(seq%97))
		for i := range p {
			p[i] = byte(seq + uint32(i))
		}
		return p
	}

	var wg sync.WaitGroup
	var sent atomic.Int64
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				seq := uint32(s*perSender + i)
				m := &wire.Message{
					Kind: wire.KindPublish, From: 0, To: 1, Seq: seq,
					Publisher: 0, TTL: 4, Payload: payloadFor(seq),
				}
				m.PayloadSize = uint32(len(m.Payload))
				if err := tr.Send(1, m); err == nil {
					sent.Add(1)
				}
			}
		}(s)
	}
	// Evict churn: kill the cached conn a few times mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			time.Sleep(2 * time.Millisecond)
			if c := senderConn(tr, 1); c != nil {
				c.Close()
			}
		}
	}()
	wg.Wait()

	// Drain until the stream is quiet; every received frame must carry the
	// exact payload its Seq encodes (duplicates from batch retries are
	// fine; corruption is not).
	got := 0
	for {
		select {
		case env := <-tr.Inbox(1):
			m := env.Msg
			want := payloadFor(m.Seq)
			if len(m.Payload) != len(want) {
				t.Fatalf("seq %d: payload length %d, want %d", m.Seq, len(m.Payload), len(want))
			}
			for i := range want {
				if m.Payload[i] != want[i] {
					t.Fatalf("seq %d: payload corrupted at byte %d", m.Seq, i)
				}
			}
			got++
		case <-time.After(300 * time.Millisecond):
			if got == 0 {
				t.Fatal("nothing delivered")
			}
			// The reader decoded every frame it saw: a single interleaved
			// byte would have shown up as a malformed or oversize frame.
			if n := tr.Obs.Get(obs.CTCPMalformedFrame) + tr.Obs.Get(obs.CTCPOversizeFrame); n != 0 {
				t.Fatalf("%d corrupt frames on the wire", n)
			}
			tr.Close()
			return
		}
	}
}

// TestTCPCoalescedFlushes pins the batching layer: a burst of sends
// through one writer must land in fewer flushes than frames.
func TestTCPCoalescedFlushes(t *testing.T) {
	tr, err := NewTCP(2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Obs = obs.New()
	const burst = 500
	for attempt := 0; attempt < 20; attempt++ {
		for i := 0; i < burst; i++ {
			if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, Seq: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(time.Second)
		for tr.Obs.Get(obs.CTCPCoalescedFlush) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if tr.Obs.Get(obs.CTCPCoalescedFlush) > 0 {
			break
		}
	}
	if tr.Obs.Get(obs.CTCPCoalescedFlush) == 0 {
		t.Fatal("no coalesced flush observed across 20 bursts")
	}
	if total := tr.Obs.FlushBatch.Snapshot().Total(); total == 0 {
		t.Fatal("flush batch histogram empty")
	}
	if tr.Obs.SendQueue.Snapshot().Total() == 0 {
		t.Fatal("send queue histogram empty")
	}
}

// TestTCPSendFrameFanout drives the marshal-once path directly: one
// encoded frame, patched per destination, must arrive intact at each.
func TestTCPSendFrameFanout(t *testing.T) {
	tr, err := NewTCP(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	m := &wire.Message{
		Kind: wire.KindPublish, From: 0, Seq: 42, Publisher: 0, TTL: 8,
		Payload: []byte("fan-out body"), PayloadSize: 12,
	}
	frame := wire.Marshal(m)
	for _, to := range []int32{1, 2} {
		wire.PatchTo(frame, to)
		if err := tr.SendFrame(0, to, frame); err != nil {
			t.Fatal(err)
		}
	}
	for _, to := range []int32{1, 2} {
		got := recvOne(t, tr.Inbox(to))
		if got.To != to || got.Seq != 42 || string(got.Payload) != "fan-out body" {
			t.Fatalf("peer %d got %+v", to, got)
		}
	}
}

// TestTCPDropAccountingConservation: with the receiver unreachable, every
// accepted frame must surface in exactly one drop counter — queue-full,
// write-failed, or closed — there are no unobservable losses.
func TestTCPDropAccountingConservation(t *testing.T) {
	tr, err := NewTCP(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr.Obs = obs.New()
	tr.QueueLen = 4
	// Point peer 1 at a port nothing listens on: every dial fails fast.
	tr.mu.Lock()
	tr.addrs[1] = "127.0.0.1:1"
	tr.mu.Unlock()
	const total = 300
	accepted := int64(0)
	for i := 0; i < total; i++ {
		if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, Seq: uint32(i)}); err == nil {
			accepted++
		}
	}
	// Let the writer chew through the queue, then close.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tr.Obs.Get(obs.CTCPQueueDrop)+tr.Obs.Get(obs.CTCPWriteDrop) >= accepted {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.Close()
	dropped := tr.Obs.Get(obs.CTCPQueueDrop) + tr.Obs.Get(obs.CTCPWriteDrop) + tr.Obs.Get(obs.CDropClosed)
	if dropped != accepted {
		t.Fatalf("accounted drops %d != accepted sends %d (queue=%d write=%d closed=%d)",
			dropped, accepted,
			tr.Obs.Get(obs.CTCPQueueDrop), tr.Obs.Get(obs.CTCPWriteDrop), tr.Obs.Get(obs.CDropClosed))
	}
	if tr.Obs.Get(obs.CTCPWriteDrop) == 0 {
		t.Fatal("expected write-failure drops with an unreachable peer")
	}
}

// BenchmarkSwitchboardParallelSend pins the per-box locking satellite:
// sends to different peers must not contend on a transport-global mutex.
func BenchmarkSwitchboardParallelSend(b *testing.B) {
	const peers = 64
	s := NewSwitchboard(peers, 1<<16)
	defer s.Close()
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		to := int32(next.Add(1) % peers)
		m := &wire.Message{Kind: wire.KindPing, From: 0, To: to, Seq: 1}
		for pb.Next() {
			if err := s.Send(to, m); err != nil {
				b.Fatal(err)
			}
			// Keep the mailbox from filling: drain own box opportunistically.
			select {
			case <-s.Inbox(to):
			default:
			}
		}
	})
}

// BenchmarkTCPSendThroughput measures sustained frames/sec through one
// coalescing writer, receiver draining concurrently. Every frame either
// arrives or lands in a drop counter, so the wait condition is exact even
// under backpressure.
func BenchmarkTCPSendThroughput(b *testing.B) {
	tr, err := NewTCP(2, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	tr.Obs = obs.New()
	var received atomic.Int64
	go func() {
		for range tr.Inbox(1) {
			received.Add(1)
		}
	}()
	m := &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Publisher: 0, TTL: 4, PayloadSize: 1_200_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq = uint32(i)
		if err := tr.Send(1, m); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		settled := received.Load() +
			tr.Obs.Get(obs.CTCPQueueDrop) + tr.Obs.Get(obs.CTCPWriteDrop) + tr.Obs.Get(obs.CDropFullMailbox)
		if settled >= int64(b.N) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatal("frames unaccounted for after 60s")
}

// BenchmarkTCPFanIn is the many-pairs shape the 2-peer benchmark cannot
// see: 60 peers bound to 2 shard channels, every ordered pair exchanging
// pre-marshaled frames. One op is one frame; frames/flush says how well
// the lanes coalesce. A send window keeps the lane queues from shedding,
// so the figure is sustained fan-in, not drop throughput.
func BenchmarkTCPFanIn(b *testing.B) {
	const peers, shards, window = 60, 2, 2048
	tr, err := NewTCP(peers, 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	tr.Obs = obs.New()
	var received atomic.Int64
	var drained sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < shards; s++ {
		ch := make(chan *[]Envelope, 1<<14)
		for p := s; p < peers; p += shards {
			if !tr.BindInboxBatch(int32(p), ch) {
				b.Fatal("BindInboxBatch refused")
			}
		}
		drained.Add(1)
		go func() {
			defer drained.Done()
			for {
				select {
				case nb := <-ch:
					received.Add(int64(len(*nb)))
					PutEnvelopeBatch(nb)
				case <-stop:
					return
				}
			}
		}()
	}
	defer func() {
		tr.Close()
		close(stop)
		drained.Wait()
	}()
	settled := func() int64 {
		return received.Load() +
			tr.Obs.Get(obs.CTCPQueueDrop) + tr.Obs.Get(obs.CTCPWriteDrop) + tr.Obs.Get(obs.CDropFullMailbox)
	}
	frame := wire.Marshal(&wire.Message{Kind: wire.KindPublish, Publisher: 0, TTL: 4, Payload: make([]byte, 64), PayloadSize: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := int32(i % peers)
		to := int32((i/peers + i + 1) % peers) // walks every offset 1..59 from each sender
		if to == from {
			to = (to + 1) % peers
		}
		if i%64 == 0 {
			for int64(i)-settled() > window {
				runtime.Gosched()
			}
		}
		wire.PatchTo(frame, to)
		if err := tr.SendFrame(from, to, frame); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for settled() < int64(b.N) {
		if time.Now().After(deadline) {
			b.Fatal("frames unaccounted for after 60s")
		}
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(received.Load())/float64(max(1, tr.Obs.Get(obs.CTCPFlush))), "frames/flush")
}
