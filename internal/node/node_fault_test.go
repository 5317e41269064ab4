package node

import (
	"math/rand"
	"testing"
	"time"

	"selectps/internal/datasets"
	"selectps/internal/faultnet"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/pubsub"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// TestPublishUnderSeededDrops runs a live cluster whose transport drops
// 20% of directed-publish copies (and duplicates a few) from a seeded
// fault schedule, and asserts the delivery machinery holds up: the
// publisher's autonomous repair engine reaches every subscriber within
// the horizon, the dedup map absorbs duplicate arrivals (each
// subscriber's first-time delivery is counted exactly once), and no
// copy outlives its TTL.
func TestPublishUnderSeededDrops(t *testing.T) {
	const n = 120
	const seed = 21
	g := datasets.Facebook.Generate(n, seed)
	ov, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	inner := transport.NewSwitchboard(n, 4096)
	inner.Obs = met
	fn := faultnet.Wrap(inner, n, faultnet.Config{
		DropProb: 0.2,
		DupProb:  0.05,
		Kinds:    []wire.Kind{wire.KindPublish},
	}, seed)
	fn.Obs = met
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: fn, Seed: seed,
		HeartbeatEvery: 20 * time.Millisecond, Obs: met,
		RetryBase: 10 * time.Millisecond, RetryBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)

	var pub overlay.PeerID
	for p := overlay.PeerID(0); p < n; p++ {
		if g.Degree(p) > g.Degree(pub) {
			pub = p
		}
	}
	subs := g.Neighbors(pub)
	seq := publishSize(c.Nodes[pub], 1000)

	// Repair horizon: the publisher's engine re-sends to unacked
	// subscribers on its own seeded backoff until every subscriber has
	// the publication or the deadline passes.
	delivered, ok := await(c, pub, seq, subs, 10*time.Second)
	if !ok {
		t.Fatalf("only %d/%d subscribers delivered under 20%% publish drops", delivered, len(subs))
	}

	// Faults must actually have been injected for this test to mean
	// anything.
	if met.Get(obs.CFaultDrop) == 0 {
		t.Fatal("no drops injected at DropProb=0.2")
	}
	// Dedup: duplicate arrivals (fault duplicates + post-delivery retries)
	// never inflate the first-time delivery count — exactly one delivery
	// event per subscriber.
	if got := met.Get(obs.CPublishDelivered); got != int64(len(subs)) {
		t.Fatalf("delivered counter = %d, want %d (dedup failed)", got, len(subs))
	}
	// TTL: every delivered copy arrived within the hop budget.
	for _, s := range subs {
		if h, ok := c.Nodes[s].Received(pub, seq); ok && h > 32 {
			t.Fatalf("subscriber %d delivery used %d hops, beyond TTL", s, h)
		}
	}
}

// TestRetriesSurviveDroppedAcks drops acks as well as publications: the
// publisher's engine over-retries (it cannot see deliveries whose acks
// died), and dedup at the subscribers keeps the over-delivery invisible.
func TestRetriesSurviveDroppedAcks(t *testing.T) {
	const n = 80
	const seed = 22
	g := datasets.Facebook.Generate(n, seed)
	ov, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	inner := transport.NewSwitchboard(n, 4096)
	fn := faultnet.Wrap(inner, n, faultnet.Config{
		DropProb: 0.25,
		Kinds:    []wire.Kind{wire.KindPublish, wire.KindAckBatch},
	}, seed)
	fn.Obs = met
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: fn, Seed: seed, Obs: met,
		RetryBase: 10 * time.Millisecond, RetryBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)

	var pub overlay.PeerID = -1
	for p := overlay.PeerID(0); p < n; p++ {
		if g.Degree(p) >= 5 {
			pub = p
			break
		}
	}
	if pub < 0 {
		t.Skip("no publisher with enough friends")
	}
	subs := g.Neighbors(pub)
	seq := publishSize(c.Nodes[pub], 100)
	delivered, ok := await(c, pub, seq, subs, 10*time.Second)
	if !ok {
		t.Fatalf("only %d/%d delivered with publish+ack drops", delivered, len(subs))
	}
	if got := met.Get(obs.CPublishDelivered); got != int64(len(subs)) {
		t.Fatalf("delivered counter = %d, want %d", got, len(subs))
	}
}
