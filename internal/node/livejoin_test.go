package node

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"selectps/internal/datasets"
	"selectps/internal/growth"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/pubsub"
	"selectps/internal/socialgraph"
	"selectps/internal/transport"
)

// liveJoinFixture builds a cluster bootstrapped from the first
// bootFrac of a growth schedule's join order; the remaining peers and
// their schedule inviters are returned for live admission.
func liveJoinFixture(t *testing.T, n int, seed int64, bootFrac float64, met *obs.Metrics) (*socialgraph.Graph, *Cluster, []growth.Event) {
	t.Helper()
	g := datasets.Facebook.Generate(n, seed)
	ov, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sched := growth.DefaultModel().Schedule(g, rand.New(rand.NewSource(seed^0x9e37)))
	nBoot := int(float64(n) * bootFrac)
	if nBoot < 2 {
		nBoot = 2
	}
	var bootstrap []overlay.PeerID
	for _, e := range sched.Prefix(nBoot) {
		bootstrap = append(bootstrap, overlay.PeerID(e.User))
	}
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: transport.NewSwitchboard(n, 4096), Seed: seed,
		HeartbeatEvery: 50 * time.Millisecond,
		GossipEvery:    10 * time.Millisecond,
		MaintainEvery:  15 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    100,
		Bootstrap:      bootstrap,
		Obs:            met,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, c, sched.Events[len(bootstrap):]
}

// admit joins every event's user live, one at a time, preferring the
// inviter the growth schedule assigned (the live Algorithm-1 replay).
func admit(t *testing.T, c *Cluster, joiners []growth.Event) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, e := range joiners {
		if err := c.Join(ctx, overlay.PeerID(e.User), overlay.PeerID(e.Inviter)); err != nil {
			t.Fatalf("live join of %d (inviter %d): %v", e.User, e.Inviter, err)
		}
	}
}

// publishAndSettle publishes from p and waits — repair is the
// publisher's own job now — until every subscriber delivered or the
// deadline passes; it returns the delivered count.
func publishAndSettle(c *Cluster, g *socialgraph.Graph, p overlay.PeerID, horizon time.Duration) (seq uint32, delivered int, total int) {
	subs := g.Neighbors(p)
	seq = publishSize(c.Nodes[p], 200)
	delivered, _ = await(c, p, seq, subs, horizon)
	return seq, delivered, len(subs)
}

// TestLiveJoinDelivery is the api_redesign satellite: 20% of the peers
// join a live, already-routing cluster one at a time via the join
// protocol, and every publication still reaches all online subscribers
// (run under -race in CI).
func TestLiveJoinDelivery(t *testing.T) {
	const n = 100
	met := obs.New()
	g, c, joiners := liveJoinFixture(t, n, 31, 0.8, met)
	defer shutdown(t, c)

	// Traffic flows while the ring is still partial.
	var early overlay.PeerID = -1
	for p := overlay.PeerID(0); p < n; p++ {
		if c.Nodes[p].Joined() && g.Degree(p) > 0 {
			early = p
			break
		}
	}
	if early >= 0 {
		publishSize(c.Nodes[early], 100)
	}

	admit(t, c, joiners)

	// Every joiner is now a member…
	for p := overlay.PeerID(0); p < n; p++ {
		if !c.Nodes[p].Joined() {
			t.Fatalf("peer %d never joined", p)
		}
	}
	// …and the join protocol actually ran.
	if met.Get(obs.CJoinRequest) == 0 || met.Get(obs.CJoinReply) == 0 {
		t.Fatalf("join counters empty: req=%d reply=%d",
			met.Get(obs.CJoinRequest), met.Get(obs.CJoinReply))
	}
	// The ring the joins and the identifier moves after them leave behind
	// is a ring: every peer on a position of its own, one successor cycle.
	awaitLegitRing(t, c, 20*time.Second)

	// Publications from joiners and from bootstrap members alike reach
	// every subscriber.
	checked := 0
	for _, e := range joiners {
		p := overlay.PeerID(e.User)
		if g.Degree(p) == 0 {
			continue
		}
		if _, got, want := publishAndSettle(c, g, p, 10*time.Second); got != want {
			t.Fatalf("joiner %d publication delivered %d/%d", p, got, want)
		}
		checked++
		if checked >= 5 {
			break
		}
	}
	pub := topDegree(g)
	if _, got, want := publishAndSettle(c, g, pub, 10*time.Second); got != want {
		t.Fatalf("bootstrap publisher %d delivered %d/%d", pub, got, want)
	}
}

// TestLiveJoinHopConvergence is the acceptance criterion: a cluster
// bootstrapped from 25% of the peers, with the rest joining live via
// JoinRequest, converges to mean delivered hop counts within 15% of the
// fully pre-converged baseline started from the same seed.
func TestLiveJoinHopConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence soak")
	}
	const n = 120
	const seed = 33

	// Publishers measured in both arms: a deterministic spread of peers
	// with enough subscribers to make hop averages meaningful.
	g := datasets.Facebook.Generate(n, seed)
	var pubs []overlay.PeerID
	for p := overlay.PeerID(0); p < n && len(pubs) < 6; p += 7 {
		if g.Degree(p) >= 4 {
			pubs = append(pubs, p)
		}
	}

	measure := func(c *Cluster, gg *socialgraph.Graph) (float64, bool) {
		total, count := 0, 0
		for _, p := range pubs {
			seq, got, want := publishAndSettle(c, gg, p, 8*time.Second)
			if got != want {
				return 0, false
			}
			for _, s := range gg.Neighbors(p) {
				if h, ok := c.Nodes[s].Received(p, seq); ok {
					total += int(h)
					count++
				}
			}
		}
		return float64(total) / float64(count), true
	}

	// Arm A: every peer bootstraps from the converged overlay, with the
	// same live maintenance running.
	gA, cA := buildCluster(t, n, seed, Options{
		HeartbeatEvery: 50 * time.Millisecond,
		GossipEvery:    10 * time.Millisecond,
		MaintainEvery:  15 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    100,
	})
	time.Sleep(300 * time.Millisecond) // let gossip warm the lookahead caches
	baseline, ok := measure(cA, gA)
	shutdown(t, cA)
	if !ok {
		t.Fatal("baseline arm failed to deliver")
	}

	// Arm B: 25% bootstrap, the rest admitted live in schedule order.
	gB, cB, joiners := liveJoinFixture(t, n, seed, 0.25, nil)
	defer shutdown(t, cB)
	admit(t, cB, joiners)

	// Converge: maintenance keeps moving identifiers and rebuilding long
	// links; remeasure until the hop average lands within 15% of the
	// baseline (plus a small absolute floor so 1-hop baselines do not
	// demand sub-hop precision).
	bound := baseline*1.15 + 0.25
	deadline := time.Now().Add(60 * time.Second)
	var last float64 = -1
	for time.Now().Before(deadline) {
		avg, ok := measure(cB, gB)
		if ok {
			last = avg
			if avg <= bound {
				t.Logf("converged: live-join avg hops %.3f vs baseline %.3f", avg, baseline)
				awaitLegitRing(t, cB, 20*time.Second)
				return
			}
		}
		time.Sleep(250 * time.Millisecond)
	}
	t.Fatalf("live-join arm stuck at avg hops %.3f; baseline %.3f (bound %.3f)", last, baseline, bound)
}
