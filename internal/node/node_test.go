package node

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"selectps/internal/datasets"
	"selectps/internal/overlay"
	"selectps/internal/pubsub"
	"selectps/internal/socialgraph"
	"selectps/internal/transport"
)

// publishSize publishes a body-less modeled-size publication on n's own
// user topic — the Topic-API replacement for the removed PublishSize
// shim (own-user-topic publishes cannot fail).
func publishSize(n *Node, size uint32) uint32 {
	seq, _ := n.Topic(UserTopic(n.ID())).Publish(nil, WithSize(size))
	return seq
}

// publishPri is the Topic-API replacement for the removed
// PublishPriority shim.
func publishPri(n *Node, payload []byte, pri uint8) uint32 {
	seq, _ := n.Topic(UserTopic(n.ID())).Publish(payload, WithPriority(pri))
	return seq
}

// buildOverlay generates a small social graph and converges a SELECT
// overlay over it.
func buildOverlay(t *testing.T, n int, seed int64) (*socialgraph.Graph, overlay.Overlay) {
	t.Helper()
	g := datasets.Facebook.Generate(n, seed)
	ov, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g, ov
}

// buildCluster starts a live in-memory cluster on buildOverlay's graph.
// The caller fills only the tuning fields of opts; graph, overlay,
// transport and seed are provided here.
func buildCluster(t *testing.T, n int, seed int64, opts Options) (*socialgraph.Graph, *Cluster) {
	t.Helper()
	g, ov := buildOverlay(t, n, seed)
	opts.Graph = g
	opts.Overlay = ov
	opts.Transport = transport.NewSwitchboard(n, 1024)
	opts.Seed = seed
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, c
}

func shutdown(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// await wraps AwaitDelivery with a timeout context.
func await(c *Cluster, pub overlay.PeerID, seq uint32, subs []overlay.PeerID, d time.Duration) (int, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.AwaitDelivery(ctx, pub, seq, subs)
}

func topDegree(g *socialgraph.Graph) overlay.PeerID {
	var pub overlay.PeerID
	for p := overlay.PeerID(0); p < overlay.PeerID(g.NumNodes()); p++ {
		if g.Degree(p) > g.Degree(pub) {
			pub = p
		}
	}
	return pub
}

func TestPublishReachesAllSubscribers(t *testing.T) {
	g, c := buildCluster(t, 150, 1, Options{})
	defer shutdown(t, c)
	pub := topDegree(g)
	seq := publishSize(c.Nodes[pub], 1_200_000)
	subs := g.Neighbors(pub)
	delivered, ok := await(c, pub, seq, subs, 5*time.Second)
	if !ok {
		t.Fatalf("only %d/%d subscribers delivered", delivered, len(subs))
	}
}

func TestPublishPayloadAndHandler(t *testing.T) {
	// The api_redesign satellite end to end: Publish carries real bytes,
	// OnDeliver pushes them to every subscriber without polling.
	g, c := buildCluster(t, 100, 13, Options{})
	defer shutdown(t, c)
	pub := topDegree(g)
	subs := g.Neighbors(pub)
	body := []byte("hello from the publisher: payload bytes travel end to end")

	var mu sync.Mutex
	got := make(map[overlay.PeerID][]byte)
	calls := 0
	for _, s := range subs {
		s := s
		c.Nodes[s].OnDeliver(func(d Delivery) {
			mu.Lock()
			got[s] = bytes.Clone(d.Payload) // a view, valid during the callback only
			calls++
			mu.Unlock()
		})
	}
	seq, _ := c.Nodes[pub].Topic(UserTopic(pub)).Publish(body)
	if _, ok := await(c, pub, seq, subs, 5*time.Second); !ok {
		t.Fatal("delivery incomplete")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != len(subs) {
		t.Fatalf("handler called %d times, want %d (once per first delivery)", calls, len(subs))
	}
	for _, s := range subs {
		if !bytes.Equal(got[s], body) {
			t.Fatalf("subscriber %d payload = %q, want %q", s, got[s], body)
		}
	}
}

func TestPublishAcksFlowBack(t *testing.T) {
	g, c := buildCluster(t, 120, 2, Options{})
	defer shutdown(t, c)
	var pub overlay.PeerID = -1
	for p := overlay.PeerID(0); p < 120; p++ {
		if g.Degree(p) >= 5 {
			pub = p
			break
		}
	}
	if pub < 0 {
		t.Skip("no publisher with enough friends")
	}
	seq := publishSize(c.Nodes[pub], 1000)
	subs := g.Neighbors(pub)
	if _, ok := await(c, pub, seq, subs, 5*time.Second); !ok {
		t.Fatal("delivery incomplete")
	}
	// Acks travel back to the publisher; allow a moment for the reverse
	// paths.
	deadline := time.Now().Add(5 * time.Second)
	for c.Nodes[pub].Acked(seq) < len(subs) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := c.Nodes[pub].Acked(seq); got < len(subs)*9/10 {
		t.Errorf("acks received %d of %d", got, len(subs))
	}
}

func TestMultiplePublishersConcurrently(t *testing.T) {
	g, c := buildCluster(t, 150, 3, Options{})
	defer shutdown(t, c)
	type pubRec struct {
		p   overlay.PeerID
		seq uint32
	}
	var pubs []pubRec
	for p := overlay.PeerID(0); p < 150 && len(pubs) < 8; p += 19 {
		if g.Degree(p) == 0 {
			continue
		}
		pubs = append(pubs, pubRec{p, publishSize(c.Nodes[p], 500)})
	}
	for _, pr := range pubs {
		subs := g.Neighbors(pr.p)
		if delivered, ok := await(c, pr.p, pr.seq, subs, 5*time.Second); !ok {
			t.Fatalf("publisher %d: %d/%d delivered", pr.p, delivered, len(subs))
		}
	}
}

func TestHopCountsAreSmall(t *testing.T) {
	g, c := buildCluster(t, 200, 4, Options{})
	defer shutdown(t, c)
	pub := topDegree(g)
	seq := publishSize(c.Nodes[pub], 100)
	subs := g.Neighbors(pub)
	if _, ok := await(c, pub, seq, subs, 5*time.Second); !ok {
		t.Fatal("delivery incomplete")
	}
	total, count := 0, 0
	for _, s := range subs {
		if h, ok := c.Nodes[s].Received(pub, seq); ok {
			total += int(h)
			count++
		}
	}
	if avg := float64(total) / float64(count); avg > 4 {
		t.Errorf("avg live hops %.2f too high", avg)
	}
}

func TestGossipExchangeFillsLookahead(t *testing.T) {
	g, c := buildCluster(t, 80, 5, Options{GossipEvery: 5 * time.Millisecond})
	defer shutdown(t, c)
	deadline := time.Now().Add(5 * time.Second)
	done := 0
	for time.Now().Before(deadline) {
		done = 0
		for _, n := range c.Nodes {
			if n.Exchanges() > 0 {
				done++
			}
		}
		if done > 60 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if done <= 60 {
		t.Fatalf("only %d/80 nodes completed a gossip exchange", done)
	}
	// Lookahead caches must hold actual routing tables of the partner.
	checked := 0
	for _, n := range c.Nodes {
		for _, f := range g.Neighbors(n.ID()) {
			la := n.Lookahead(f)
			if len(la) == 0 {
				continue
			}
			checked++
			break
		}
	}
	if checked == 0 {
		t.Error("no lookahead entries cached")
	}
}

func TestHeartbeatsBuildCMA(t *testing.T) {
	_, c := buildCluster(t, 60, 6, Options{HeartbeatEvery: 25 * time.Millisecond})
	defer shutdown(t, c)
	time.Sleep(400 * time.Millisecond)
	// All nodes alive: availability estimates should be high for probed
	// links.
	probed, lowAvail := 0, 0
	for _, n := range c.Nodes {
		for _, q := range n.Links() {
			// value 1 could mean "never probed"; count explicitly probed
			// links via the cma map, reading on the node's loop.
			samples, value := 0, 0.0
			n.do(func() {
				if cma, ok := n.cma[q]; ok {
					samples, value = cma.Samples(), cma.Value()
				}
			})
			if samples == 0 {
				continue
			}
			probed++
			if value < 0.5 {
				lowAvail++
			}
		}
	}
	if probed == 0 {
		t.Fatal("no links probed")
	}
	if lowAvail > probed/10 {
		t.Errorf("%d of %d probed links look unavailable in an all-alive cluster", lowAvail, probed)
	}
}

func TestExchangeMutualCountMatchesGraph(t *testing.T) {
	// countMutualSorted must agree with socialgraph.CommonNeighbors.
	g := datasets.Facebook.Generate(100, 7)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		u, v, _ := g.RandomEdge(rng)
		want := g.CommonNeighbors(u, v)
		got := countMutualSorted(g.Neighbors(u), g.Neighbors(v))
		if got != want {
			t.Fatalf("mutual(%d,%d) = %d, want %d", u, v, got, want)
		}
	}
}

func TestClusterOverTCP(t *testing.T) {
	const n = 40
	g := datasets.Facebook.Generate(n, 9)
	ov, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transport.NewTCP(n, 256)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(Options{Graph: g, Overlay: ov, Transport: tr, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)
	pub := topDegree(g)
	seq := publishSize(c.Nodes[pub], 1_200_000)
	subs := g.Neighbors(pub)
	delivered, ok := await(c, pub, seq, subs, 10*time.Second)
	if !ok {
		t.Fatalf("TCP cluster delivered %d/%d", delivered, len(subs))
	}
	// Connections scale with shard mailboxes, not peers: an accept loop,
	// and a writer and a reader per shard.
	if got, want := tr.ConnGoroutines(), 1+2*c.Shards(); got > want {
		t.Fatalf("ConnGoroutines = %d after full delivery, want <= %d for %d shards", got, want, c.Shards())
	}
}

func TestLatencyAwareSwitchboard(t *testing.T) {
	// Deliveries still complete when the transport injects latency.
	const n = 60
	g := datasets.Facebook.Generate(n, 10)
	ov, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewSwitchboard(n, 1024)
	tr.Latency = func(from, to int32) time.Duration { return time.Millisecond }
	c, err := Start(Options{Graph: g, Overlay: ov, Transport: tr, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)
	pub := topDegree(g)
	seq := publishSize(c.Nodes[pub], 100)
	if _, ok := await(c, pub, seq, g.Neighbors(pub), 10*time.Second); !ok {
		t.Fatal("latency cluster delivery incomplete")
	}
}

func TestLiveChurnRecovery(t *testing.T) {
	// Pause a set of non-subscriber peers (potential relays), let
	// heartbeats learn their unavailability, and verify that the node's
	// own repair engine — no manual retries — delivers to every online
	// subscriber.
	g, c := buildCluster(t, 150, 11, Options{
		HeartbeatEvery: 10 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    100,
	})
	defer shutdown(t, c)
	pub := topDegree(g)
	subs := g.Neighbors(pub)
	isSub := make(map[overlay.PeerID]bool, len(subs))
	for _, s := range subs {
		isSub[s] = true
	}
	// Pause ~20% of peers that are neither publisher nor subscribers.
	paused := 0
	for p := overlay.PeerID(0); p < 150 && paused < 30; p += 5 {
		if p == pub || isSub[p] {
			continue
		}
		c.Nodes[p].Pause()
		paused++
	}
	// Give heartbeats time to mark the paused peers dead.
	time.Sleep(150 * time.Millisecond)

	seq := publishSize(c.Nodes[pub], 1000)
	delivered, ok := await(c, pub, seq, subs, 8*time.Second)
	if !ok {
		t.Fatalf("only %d/%d subscribers delivered under churn", delivered, len(subs))
	}
}

func TestPausedNodeDropsEverything(t *testing.T) {
	g, c := buildCluster(t, 60, 12, Options{
		RetryBase:   10 * time.Millisecond,
		RetryBudget: 100,
	})
	defer shutdown(t, c)
	var pub overlay.PeerID = -1
	for p := overlay.PeerID(0); p < 60; p++ {
		if g.Degree(p) >= 3 {
			pub = p
			break
		}
	}
	if pub < 0 {
		t.Skip("no publisher")
	}
	victim := g.Neighbors(pub)[0]
	c.Nodes[victim].Pause()
	seq := publishSize(c.Nodes[pub], 100)
	time.Sleep(100 * time.Millisecond)
	if _, ok := c.Nodes[victim].Received(pub, seq); ok {
		t.Error("paused subscriber received a publication")
	}
	c.Nodes[victim].Resume()
	// After resume, the publisher's own repair engine reaches it — the
	// harness just waits.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := c.Nodes[victim].Received(pub, seq); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("resumed subscriber never received the publication")
}
