package transport

import (
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/wire"
)

// TestTCPLanesScaleWithMailboxes pins the multiplexing: 60 peers bound to
// 2 channels exchange a frame over every ordered pair, once as the
// originator and once relaying a third peer's frame towards a fourth, and
// the transport serves all of it with one connection per channel. Every
// frame arrives at its next hop's channel with Envelope.To naming that
// hop, whatever Msg.From and Msg.To say.
func TestTCPLanesScaleWithMailboxes(t *testing.T) {
	const peers, shards = 60, 2
	const total = peers * (peers - 1) * 2
	tr, err := NewTCP(peers, total) // lane queues deep enough that nothing sheds
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Obs = obs.New()
	chans := make([]chan *[]Envelope, shards)
	for s := range chans {
		chans[s] = make(chan *[]Envelope, total)
	}
	for p := 0; p < peers; p++ {
		if !tr.BindInboxBatch(int32(p), chans[p%shards]) {
			t.Fatal("BindInboxBatch refused")
		}
	}
	// Seq identifies the (sender, hop, relayed?) triple a frame was sent for.
	seqOf := func(a, b int32, relayed bool) uint32 {
		seq := uint32(a)*peers + uint32(b)
		if relayed {
			seq += peers * peers
		}
		return seq
	}
	for a := int32(0); a < peers; a++ {
		for b := int32(0); b < peers; b++ {
			if a == b {
				continue
			}
			own := &wire.Message{Kind: wire.KindPublish, From: a, To: b, Seq: seqOf(a, b, false)}
			if err := tr.Send(b, own); err != nil {
				t.Fatal(err)
			}
			// a relays a frame that c originated and d is the destination of.
			c, d := (a+1)%peers, (b+1)%peers
			relay := wire.Marshal(&wire.Message{Kind: wire.KindPublish, From: c, To: d, Seq: seqOf(a, b, true)})
			if err := tr.SendFrame(c, b, relay); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen := make(map[uint32]bool, total)
	check := func(s int, nb *[]Envelope) {
		for _, env := range *nb {
			m := env.Msg
			relayed := m.Seq >= peers*peers
			b := int32(m.Seq % peers)
			a := int32(m.Seq % (peers * peers) / peers)
			if env.To != b || int(b)%shards != s {
				t.Fatalf("frame for hop %d arrived as To=%d on channel %d", b, env.To, s)
			}
			wantFrom, wantTo := a, b
			if relayed {
				wantFrom, wantTo = (a+1)%peers, (b+1)%peers
			}
			if m.From != wantFrom || m.To != wantTo {
				t.Fatalf("seq %d: From=%d To=%d, want %d %d", m.Seq, m.From, m.To, wantFrom, wantTo)
			}
			if seen[m.Seq] {
				t.Fatalf("seq %d delivered twice", m.Seq)
			}
			seen[m.Seq] = true
		}
		PutEnvelopeBatch(nb)
	}
	deadline := time.After(20 * time.Second)
	for len(seen) < total {
		select {
		case nb := <-chans[0]:
			check(0, nb)
		case nb := <-chans[1]:
			check(1, nb)
		case <-deadline:
			t.Fatalf("timed out with %d/%d frames", len(seen), total)
		}
	}
	if dials := tr.Obs.Get(obs.CTCPDial) + tr.Obs.Get(obs.CTCPRedial); dials > shards {
		t.Fatalf("%d dials for %d mailboxes", dials, shards)
	}
	if g := tr.ConnGoroutines(); g > 1+2*shards {
		t.Fatalf("ConnGoroutines = %d, want <= %d (accept + writer and reader per mailbox)", g, 1+2*shards)
	}
	if drops := tr.Obs.Get(obs.CTCPQueueDrop) + tr.Obs.Get(obs.CTCPWriteDrop) + tr.Obs.Get(obs.CDropFullMailbox); drops != 0 {
		t.Fatalf("%d frames dropped", drops)
	}
}

// TestTCPDeliversToHopNotDestination: Msg.To is the final destination;
// the peer named in Send is who receives, on both ingress paths.
func TestTCPDeliversToHopNotDestination(t *testing.T) {
	tr, err := NewTCP(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ch := make(chan *[]Envelope, 4)
	if !tr.BindInboxBatch(0, ch) {
		t.Fatal("BindInboxBatch refused")
	}
	m := &wire.Message{Kind: wire.KindPublish, From: 1, To: 2, Seq: 5}
	for _, hop := range []int32{0, 1} { // bound lane, private lane
		if err := tr.Send(hop, m); err != nil {
			t.Fatal(err)
		}
	}
	var envs []Envelope
	select {
	case nb := <-ch:
		envs = append(envs, *nb...)
	case <-time.After(2 * time.Second):
		t.Fatal("nothing on the bound channel")
	}
	select {
	case env := <-tr.Inbox(1):
		envs = append(envs, env)
	case <-time.After(2 * time.Second):
		t.Fatal("nothing in the private inbox")
	}
	for hop, env := range envs {
		if env.To != int32(hop) || env.Msg.To != 2 || env.Msg.Seq != 5 {
			t.Fatalf("hop %d received To=%d Msg=%+v", hop, env.To, env.Msg)
		}
	}
}
