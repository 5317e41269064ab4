package transport

import (
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/wire"
)

func recvOne(t *testing.T, ch <-chan Envelope) *wire.Message {
	t.Helper()
	select {
	case e := <-ch:
		return e.Msg
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return nil
	}
}

func TestSwitchboardDelivery(t *testing.T) {
	s := NewSwitchboard(3, 8)
	defer s.Close()
	m := &wire.Message{Kind: wire.KindPing, From: 0, To: 2, Seq: 7}
	if err := s.Send(2, m); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, s.Inbox(2))
	if got.Seq != 7 || got.From != 0 {
		t.Fatalf("got %+v", got)
	}
}

// TestSwitchboardSendCopies: the receiver gets a Message of its own — the
// sender overwrites its Message and every list the moment Send returns,
// and the receiver still reads what was sent.
func TestSwitchboardSendCopies(t *testing.T) {
	s := NewSwitchboard(2, 8)
	defer s.Close()
	m := &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: 3, RoutingTable: []int32{4, 5}, Payload: []byte("body")}
	if err := s.Send(1, m); err != nil {
		t.Fatal(err)
	}
	m.Seq, m.RoutingTable[0], m.Payload[0] = 99, 99, 'X'
	got := recvOne(t, s.Inbox(1))
	if got == m || got.Seq != 3 || got.RoutingTable[0] != 4 || string(got.Payload) != "body" {
		t.Fatalf("the receiver read %+v after the sender overwrote its Message", got)
	}
}

// TestSwitchboardCodecLimits: the switchboard refuses what the codec
// refuses, as TCP does — a list past the decoder's length bound is a
// counted drop and an error, not a delivery.
func TestSwitchboardCodecLimits(t *testing.T) {
	s := NewSwitchboard(2, 8)
	met := obs.New()
	s.Obs = met
	defer s.Close()
	if err := s.Send(1, &wire.Message{Kind: wire.KindPublish, RoutingTable: make([]int32, 1<<20+1)}); err == nil {
		t.Fatal("a frame the decoder refuses was accepted")
	}
	if got := met.Get(obs.CTCPMalformedFrame); got != 1 {
		t.Fatalf("tcp_malformed_frame = %d, want 1", got)
	}
	select {
	case e := <-s.Inbox(1):
		t.Fatalf("delivered %+v", e.Msg)
	default:
	}
}

func TestSwitchboardUnknownPeer(t *testing.T) {
	s := NewSwitchboard(1, 1)
	defer s.Close()
	if err := s.Send(9, &wire.Message{}); err == nil {
		t.Error("send to unknown peer accepted")
	}
}

func TestSwitchboardFullMailboxDrops(t *testing.T) {
	s := NewSwitchboard(1, 1)
	defer s.Close()
	if err := s.Send(0, &wire.Message{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Second message dropped silently (congestion), no error, no block.
	if err := s.Send(0, &wire.Message{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, s.Inbox(0))
	if got.Seq != 1 {
		t.Fatalf("expected first message, got %+v", got)
	}
	select {
	case e := <-s.Inbox(0):
		t.Fatalf("unexpected second delivery %+v", e.Msg)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSwitchboardClosedSend(t *testing.T) {
	s := NewSwitchboard(1, 1)
	s.Close()
	if err := s.Send(0, &wire.Message{}); err == nil {
		t.Error("send after close accepted")
	}
	s.Close() // double close is a no-op
}

func TestSwitchboardLatency(t *testing.T) {
	s := NewSwitchboard(2, 4)
	s.Latency = func(from, to int32) time.Duration { return 30 * time.Millisecond }
	defer s.Close()
	start := time.Now()
	if err := s.Send(1, &wire.Message{From: 0, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, s.Inbox(1))
	if got.Seq != 5 {
		t.Fatalf("got %+v", got)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivered in %v; latency not applied", elapsed)
	}
}

func TestTCPDelivery(t *testing.T) {
	tr, err := NewTCP(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	m := &wire.Message{
		Kind: wire.KindExchangeRT, From: 1, To: 2, Seq: 99,
		Neighborhood: []int32{4, 5, 6},
		RoutingTable: []int32{7},
	}
	if err := tr.Send(2, m); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, tr.Inbox(2))
	if got.Seq != 99 || len(got.Neighborhood) != 3 || got.Neighborhood[1] != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestTCPConnectionReuseAndMany(t *testing.T) {
	tr, err := NewTCP(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := uint32(0); i < 50; i++ {
		if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint32]bool)
	for i := 0; i < 50; i++ {
		got := recvOne(t, tr.Inbox(1))
		if seen[got.Seq] {
			t.Fatalf("duplicate seq %d", got.Seq)
		}
		seen[got.Seq] = true
	}
}

func TestTCPBidirectional(t *testing.T) {
	tr, err := NewTCP(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, tr.Inbox(1)); got.Seq != 1 {
		t.Fatal("forward delivery failed")
	}
	if err := tr.Send(0, &wire.Message{Kind: wire.KindPong, From: 1, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, tr.Inbox(0)); got.Seq != 2 {
		t.Fatal("reverse delivery failed")
	}
}

func TestTCPUnknownPeerAndClose(t *testing.T) {
	tr, err := NewTCP(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(5, &wire.Message{}); err == nil {
		t.Error("send to unknown peer accepted")
	}
	tr.Close()
	if err := tr.Send(0, &wire.Message{}); err == nil {
		t.Error("send after close accepted")
	}
	tr.Close() // idempotent
}

func TestSwitchboardDropAccounting(t *testing.T) {
	s := NewSwitchboard(1, 1)
	s.Obs = obs.New()
	if err := s.Send(0, &wire.Message{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Mailbox (size 1) is full: this drop must be counted.
	if err := s.Send(0, &wire.Message{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.Obs.Get(obs.CDropFullMailbox); got != 1 {
		t.Fatalf("full-mailbox drops = %d, want 1", got)
	}
	if got := s.Obs.Get(obs.CTransportSend); got != 2 {
		t.Fatalf("sends = %d, want 2", got)
	}
	s.Close()
}

func TestSwitchboardCloseDropsDelayedCounted(t *testing.T) {
	s := NewSwitchboard(2, 4)
	s.Obs = obs.New()
	s.Latency = func(from, to int32) time.Duration { return 50 * time.Millisecond }
	if err := s.Send(1, &wire.Message{From: 0, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	s.Close() // timer still pending: the message drops and is counted
	if got := s.Obs.Get(obs.CDropClosed); got != 1 {
		t.Fatalf("closed drops = %d, want 1", got)
	}
}

func TestTCPEvictsAndRedialsAfterWriteFailure(t *testing.T) {
	tr, err := NewTCP(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Obs = obs.New()
	if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, tr.Inbox(1))
	// Kill the cached connection out from under the sender: the next send
	// must fail its first write, evict, redial, and still deliver.
	dead := senderConn(tr, 1)
	if dead == nil {
		t.Fatal("no cached connection after first send")
	}
	dead.Close()
	if err := tr.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, Seq: 2}); err != nil {
		t.Fatalf("send after dead conn: %v", err)
	}
	if got := recvOne(t, tr.Inbox(1)); got.Seq != 2 {
		t.Fatalf("got %+v", got)
	}
	if got := tr.Obs.Get(obs.CTCPWriteError); got < 1 {
		t.Fatalf("write errors = %d, want >= 1", got)
	}
	if got := tr.Obs.Get(obs.CTCPRedial); got < 1 {
		t.Fatalf("redials = %d, want >= 1", got)
	}
	if got := tr.Obs.Get(obs.CTCPDial); got != 1 {
		t.Fatalf("fresh dials = %d, want 1", got)
	}
}

func TestTCPWriteDeadlineConfigured(t *testing.T) {
	tr, err := NewTCP(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if wt := tr.writeTimeout(); wt != defaultWriteTimeout {
		t.Fatalf("default write timeout = %v", wt)
	}
	tr.WriteTimeout = time.Second
	if wt := tr.writeTimeout(); wt != time.Second {
		t.Fatalf("write timeout = %v", wt)
	}
	tr.WriteTimeout = -1
	if wt := tr.writeTimeout(); wt != 0 {
		t.Fatalf("disabled write timeout = %v", wt)
	}
}
