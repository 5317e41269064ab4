package node

import (
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/wire"
)

// TestAckBatchedDeliveryResolves is ack conservation end to end: every
// subscriber ack must reach the publisher's repair engine through the
// batched path — each publication resolves, none retries forever or
// dead-letters.
func TestAckBatchedDeliveryResolves(t *testing.T) {
	met := obs.New()
	g, c := buildCluster(t, 150, 5, Options{
		RetryBase: 20 * time.Millisecond, Obs: met,
	})
	defer shutdown(t, c)
	pub := topDegree(g)
	subs := g.Neighbors(pub)
	seq := publishSize(c.Nodes[pub], 1000)
	if n, ok := await(c, pub, seq, subs, 10*time.Second); !ok {
		t.Fatalf("only %d/%d subscribers delivered", n, len(subs))
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Nodes[pub].PendingRepairs() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d publications never resolved under ack batching",
				c.Nodes[pub].PendingRepairs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dl := len(c.Nodes[pub].DeadLetters()); dl != 0 {
		t.Fatalf("%d dead letters under ack batching", dl)
	}
	batches, coalesced := met.Get(obs.CAckBatchSent), met.Get(obs.CAckCoalesced)
	if batches == 0 || coalesced == 0 {
		t.Fatalf("coalescing path never ran: batches=%d coalesced=%d", batches, coalesced)
	}
	if batches > coalesced {
		t.Fatalf("more batch frames (%d) than buffered acks (%d)", batches, coalesced)
	}
	if acks := met.Get(obs.CAckReceived); acks < int64(len(subs)) {
		t.Fatalf("publisher consumed %d acks, want >= %d", acks, len(subs))
	}
}

// TestShardCountEquivalentDeliverySetsBatched: coalescing must not make
// the delivery set depend on how many event loops drain it.
func TestShardCountEquivalentDeliverySetsBatched(t *testing.T) {
	deliveries := func(shards int) map[overlay.PeerID]bool {
		g, c := buildCluster(t, 150, 5, Options{Shards: shards})
		defer shutdown(t, c)
		pub := topDegree(g)
		subs := g.Neighbors(pub)
		seq := publishSize(c.Nodes[pub], 1000)
		if n, ok := await(c, pub, seq, subs, 10*time.Second); !ok {
			t.Fatalf("shards=%d: only %d/%d subscribers delivered", shards, n, len(subs))
		}
		got := make(map[overlay.PeerID]bool)
		for _, s := range subs {
			if _, ok := c.Nodes[s].Received(pub, seq); ok {
				got[s] = true
			}
		}
		return got
	}
	one := deliveries(1)
	eight := deliveries(8)
	if len(one) != len(eight) {
		t.Fatalf("delivery sets differ: S=1 got %d, S=8 got %d", len(one), len(eight))
	}
	for s := range one {
		if !eight[s] {
			t.Fatalf("subscriber %d delivered at S=1 but not at S=8", s)
		}
	}
}

// TestAckBatchRelayAndTTLDrop drives handleAckBatch directly: an
// expired routed entry is dropped and counted, a live one relays hop by
// hop to its destination.
func TestAckBatchRelayAndTTLDrop(t *testing.T) {
	met := obs.New()
	_, c := buildCluster(t, 50, 7, Options{Obs: met})
	defer shutdown(t, c)
	relay := c.Nodes[1]
	relay.do(func() {
		relay.handleAckBatch(&wire.Message{
			Kind: wire.KindAckBatch, From: 2, To: 1,
			Acks: []wire.AckEntry{{Kind: wire.KindAck, From: 2, Dest: 0, Pub: 0, Seq: 9, TTL: 0}},
		})
	})
	if got := met.Get(obs.CAckTTLDrop); got != 1 {
		t.Fatalf("expired relay entry: ack_ttl_drop = %d, want 1", got)
	}
	relay.do(func() {
		relay.handleAckBatch(&wire.Message{
			Kind: wire.KindAckBatch, From: 2, To: 1,
			Acks: []wire.AckEntry{{Kind: wire.KindAck, From: 2, Dest: 0, Pub: 0, Seq: 9, TTL: 8}},
		})
	})
	dst := c.Nodes[0]
	deadline := time.Now().Add(5 * time.Second)
	for {
		var consumed bool
		dst.do(func() { consumed = dst.acked[msgID{0, 9}][2] })
		if consumed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relayed batch entry never reached its destination")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHeartbeatPiggybackSuppressesBusyLink pins the suppression cycle:
// a link with traffic inside the interval skips its ping (one synthetic
// online observation instead) for at most hbSuppressMax consecutive
// rounds, then gets a real ping — pongs carry the ring anti-entropy
// lists that data frames do not.
func TestHeartbeatPiggybackSuppressesBusyLink(t *testing.T) {
	met := obs.New()
	_, c := buildCluster(t, 30, 3, Options{HeartbeatEvery: time.Hour, Obs: met})
	defer shutdown(t, c)
	nd := c.Nodes[0]
	// Silence every other node so no pong mutates pendingPings between a
	// manual sweep and its assertion.
	for _, other := range c.Nodes[1:] {
		other.paused.Store(true)
	}
	links := nd.Links()
	if len(links) == 0 {
		t.Fatal("bootstrap node has no links")
	}
	q := links[0]
	for round := 1; round <= hbSuppressMax+1; round++ {
		pinged, miss := false, 0
		nd.do(func() {
			nd.lastHeard[q] = time.Now()
			nd.sendHeartbeats()
			for _, tgt := range nd.pendingPings {
				if tgt == q {
					pinged = true
				}
			}
			miss = nd.miss[q]
		})
		if round <= hbSuppressMax {
			if pinged {
				t.Fatalf("round %d: busy link %d pinged despite fresh traffic", round, q)
			}
			if miss != 0 {
				t.Fatalf("round %d: suppressed link accumulated %d misses", round, miss)
			}
		} else if !pinged {
			t.Fatalf("round %d: anti-entropy floor should have pinged %d", round, q)
		}
	}
	if got := met.Get(obs.CHeartbeatSuppress); got != hbSuppressMax {
		t.Fatalf("heartbeat_suppressed = %d, want %d", got, hbSuppressMax)
	}
}

// TestHeartbeatIdleDetectionLatencyUnchanged is the acceptance pin for
// failure-detection latency under piggybacking: on a link with NO
// piggybacked traffic nothing is suppressed and every sweep after the
// first folds one miss — a dead peer is suspected after exactly as many
// sweeps as if liveness were never piggybacked.
func TestHeartbeatIdleDetectionLatencyUnchanged(t *testing.T) {
	const rounds = 3
	met := obs.New()
	_, c := buildCluster(t, 30, 3, Options{HeartbeatEvery: time.Hour, Obs: met})
	defer shutdown(t, c)
	nd := c.Nodes[0]
	for _, other := range c.Nodes[1:] {
		other.paused.Store(true) // dead: consumes pings, never pongs
	}
	q := nd.Links()[0]
	miss := 0
	nd.do(func() {
		for i := 0; i < rounds; i++ {
			nd.sendHeartbeats()
		}
		miss = nd.miss[q]
	})
	if got := met.Get(obs.CHeartbeatSuppress); got != 0 {
		t.Fatalf("idle link suppressed %d times", got)
	}
	if got := miss; got != rounds-1 {
		t.Fatalf("miss streak = %d after %d sweeps, want %d", got, rounds, rounds-1)
	}
}

// TestNextPeriodicPreservesPhase pins the stall-skipping deadline math:
// however late the shard ran, the next fire stays on the entry's
// original splitmix64 phase (at + k*every for integral k).
func TestNextPeriodicPreservesPhase(t *testing.T) {
	base := time.Unix(1000, 0)
	every := 50 * time.Millisecond
	cases := []struct {
		late time.Duration
		want time.Duration // next deadline, relative to base
	}{
		{0, every},                     // on time
		{10 * time.Millisecond, every}, // a little behind, next period still future
		{every, 2 * every},             // exactly one period late
		{365 * time.Millisecond, 400 * time.Millisecond}, // 7.3 periods of stall -> period 8
	}
	for _, tc := range cases {
		got := nextPeriodic(base, base.Add(tc.late), every)
		if want := base.Add(tc.want); !got.Equal(want) {
			t.Errorf("nextPeriodic(+%v) = base+%v, want base+%v", tc.late, got.Sub(base), tc.want)
		}
		if phase := got.Sub(base) % every; phase != 0 {
			t.Errorf("nextPeriodic(+%v) drifted off phase by %v", tc.late, phase)
		}
	}
}
