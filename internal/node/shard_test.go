package node

import (
	"context"
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
)

// TestShardCountEquivalentDeliverySets runs the same workload on a
// one-shard and an eight-shard cluster and asserts the delivery sets are
// identical: shard placement is a scheduling decision, never a protocol
// one. Run under -race this also exercises cross-shard handler/timer
// interleavings.
func TestShardCountEquivalentDeliverySets(t *testing.T) {
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

// TestShardAssignmentCoversAllNodes checks every node is pinned to a
// shard within range and that the hash spreads nodes across all shards.
func TestShardAssignmentCoversAllNodes(t *testing.T) {
	_, c := buildCluster(t, 200, 3, Options{Shards: 4})
	defer shutdown(t, c)
	used := make(map[int]int)
	for _, n := range c.Nodes {
		if n.sh == nil {
			t.Fatalf("node %d has no shard", n.id)
		}
		used[n.sh.idx]++
	}
	if len(used) != 4 {
		t.Fatalf("only %d of 4 shards received nodes: %v", len(used), used)
	}
}

// TestCrashRejoinReschedulesOnWheel drives a node through Crash and
// Rejoin and asserts the shard wheel keeps scheduling it: the rejoined
// node must heartbeat, gossip, and answer publications again — the
// rescheduling contract that replaced per-node tickers surviving
// Pause/Resume.
func TestCrashRejoinReschedulesOnWheel(t *testing.T) {
	g, c := buildCluster(t, 120, 7, Options{
		HeartbeatEvery: 25 * time.Millisecond,
		GossipEvery:    50 * time.Millisecond,
		MaintainEvery:  25 * time.Millisecond,
		RetryBase:      20 * time.Millisecond,
		RetryBudget:    100, // generous: -race on one core makes every round slow
	})
	defer shutdown(t, c)
	pub := topDegree(g)
	subs := g.Neighbors(pub)
	victim := subs[0]

	c.Crash(victim)
	// While crashed, the victim's wheel entries keep firing but its
	// protocol body is skipped; the cluster keeps delivering to others.
	seq := publishSize(c.Nodes[pub], 100)
	rest := make([]overlay.PeerID, 0, len(subs)-1)
	for _, s := range subs[1:] {
		rest = append(rest, s)
	}
	if n, ok := await(c, pub, seq, rest, 10*time.Second); !ok {
		t.Fatalf("with %d crashed: only %d/%d other subscribers delivered", victim, n, len(rest))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Rejoin(ctx, victim, pub); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	// The repair engine (running on the publisher's shard wheel) must
	// re-send until the rejoined victim gets the publication.
	if _, ok := await(c, pub, seq, []overlay.PeerID{victim}, 10*time.Second); !ok {
		t.Fatalf("rejoined node %d never received the publication via repair", victim)
	}
	// And the victim's own periodic entries must be live again: it sends
	// gossip exchanges on its wheel cadence.
	before := c.Nodes[victim].Exchanges()
	deadline := time.Now().Add(5 * time.Second)
	for c.Nodes[victim].Exchanges() == before {
		if time.Now().After(deadline) {
			t.Fatal("rejoined node stopped gossiping: wheel entry not firing")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMonitorTickAllocPin: a shard's gauge names are built when it
// starts, so a monitor tick that finds every gauge already set allocates
// nothing.
func TestMonitorTickAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, c, _ := frozenCluster(t, 40, 5, Options{Shards: 2, Obs: obs.New()})
	for _, s := range c.shards {
		s.monitorTick()
		if a := testing.AllocsPerRun(100, s.monitorTick); a != 0 {
			t.Errorf("shard %d: monitorTick %.1f allocs, want 0", s.idx, a)
		}
	}
}
