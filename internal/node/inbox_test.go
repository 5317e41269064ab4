package node

import (
	"context"
	"sync"
	"testing"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/overlay"
)

// deliveryCounter records per-seq app-level delivery counts on one node —
// the instrument behind every zero-duplicates assertion in this file.
type deliveryCounter struct {
	mu    sync.Mutex
	got   map[uint32]int
	order []uint32
}

func (d *deliveryCounter) install(n *Node) {
	d.got = make(map[uint32]int)
	n.OnDeliver(func(dl Delivery) {
		d.mu.Lock()
		if d.got[dl.Seq] == 0 {
			d.order = append(d.order, dl.Seq)
		}
		d.got[dl.Seq]++
		d.mu.Unlock()
	})
}

func (d *deliveryCounter) count(seq uint32) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.got[seq]
}

func (d *deliveryCounter) delivered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.got)
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestInboxOfflineDepositReplayOnRejoin is the durable-tier roundtrip: a
// subscriber crashes, publications for it are deposited on its replica
// set instead of dead-lettered, and the rejoin claim replays every one
// exactly once at the app level. Afterwards the journals drain to empty —
// replayed copies are acked off every replica, not just the lease holder.
func TestInboxOfflineDepositReplayOnRejoin(t *testing.T) {
	met := obs.New()
	g, c := buildCluster(t, 80, 11, Options{
		HeartbeatEvery: 10 * time.Millisecond,
		MaintainEvery:  20 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    4,
		Inbox:          true,
		Obs:            met,
	})
	defer shutdown(t, c)
	pub := topDegree(g)
	victim := g.Neighbors(pub)[0]
	var dc deliveryCounter
	dc.install(c.Nodes[victim])

	c.Crash(victim)
	time.Sleep(50 * time.Millisecond)
	const posts = 5
	seqs := make([]uint32, posts)
	for i := range seqs {
		seqs[i] = publishSize(c.Nodes[pub], 1000)
	}
	waitFor(t, 5*time.Second, "deposits acked", func() bool {
		return met.Get(obs.CInboxDepositAck) >= posts
	})
	if dl := met.Get(obs.CDeadLetter); dl != 0 {
		t.Fatalf("dead-lettered %d publications with the durable tier on", dl)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Rejoin(ctx, victim, pub); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	for _, s := range seqs {
		if _, ok := await(c, pub, s, []overlay.PeerID{victim}, 10*time.Second); !ok {
			t.Fatalf("seq %d never replayed to rejoined subscriber", s)
		}
	}
	for _, s := range seqs {
		if n := dc.count(s); n != 1 {
			t.Errorf("seq %d delivered %d times at the app level, want exactly 1", s, n)
		}
	}
	// Every replica copy self-cleans: the subscriber acks each replay
	// arrival (duplicates included), and the maintain-tick sweep drains
	// replicas the claim cycle never leased.
	waitFor(t, 5*time.Second, "inbox journals to drain", func() bool {
		return c.InboxDepth() == 0
	})
}

// TestInboxLeaseExpiryHandoffUnresponsiveReplica pins the fault path the
// lease exists for: one of the two deposit replicas stops responding
// (paused — dead but not yet detected, so it stays in the claim
// candidate set). The claim cycle must expire its lease and hand the
// drain to the surviving replica, delivering everything exactly once.
// Run under -race in CI.
func TestInboxLeaseExpiryHandoffUnresponsiveReplica(t *testing.T) {
	met := obs.New()
	g, c := buildCluster(t, 80, 13, Options{
		// Heartbeats slowed way down: the paused replica must remain a
		// directory member for the duration, so lease expiry — not accrual
		// failure detection — is what moves the claim past it.
		HeartbeatEvery: 2 * time.Second,
		MaintainEvery:  20 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    4,
		Inbox:          true,
		InboxLease:     80 * time.Millisecond,
		Obs:            met,
	})
	defer shutdown(t, c)
	pub := topDegree(g)
	victim := g.Neighbors(pub)[0]
	var dc deliveryCounter
	dc.install(c.Nodes[victim])

	c.Crash(victim)
	time.Sleep(50 * time.Millisecond)
	replicas := c.Nodes[victim].InboxReplicas()
	if len(replicas) < 2 {
		t.Fatalf("want ≥2 replicas for the handoff scenario, got %v", replicas)
	}
	const posts = 5
	seqs := make([]uint32, posts)
	for i := range seqs {
		seqs[i] = publishSize(c.Nodes[pub], 1000)
	}
	waitFor(t, 5*time.Second, "deposits acked", func() bool {
		return met.Get(obs.CInboxDepositAck) >= posts
	})

	// One replica goes dark mid-protocol, holding all five copies. It is
	// still a member, so the rejoined subscriber WILL lease it at some
	// point in the cycle — and only the expiry timer can move past it.
	dark := replicas[0]
	c.Nodes[dark].paused.Store(true)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Rejoin(ctx, victim, pub); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	for _, s := range seqs {
		if _, ok := await(c, pub, s, []overlay.PeerID{victim}, 10*time.Second); !ok {
			t.Fatalf("seq %d never replayed: handoff past the dark replica failed", s)
		}
	}
	waitFor(t, 5*time.Second, "lease expiry on the dark replica", func() bool {
		return met.Get(obs.CInboxLeaseExpire) >= 1
	})
	for _, s := range seqs {
		if n := dc.count(s); n != 1 {
			t.Errorf("seq %d delivered %d times at the app level, want exactly 1", s, n)
		}
	}

	// The dark replica comes back: its sweep replays the stale copies, the
	// subscriber absorbs them as duplicates (acking each), and the
	// journals end empty. Still exactly-once at the app.
	c.Nodes[dark].paused.Store(false)
	waitFor(t, 10*time.Second, "inbox journals to drain after resume", func() bool {
		return c.InboxDepth() == 0
	})
	for _, s := range seqs {
		if n := dc.count(s); n != 1 {
			t.Errorf("seq %d delivered %d times after dark-replica resume, want exactly 1", s, n)
		}
	}
}

// TestInboxReplayPriorityOrder pins the drain order: with a single
// replica (deterministic queue), HIGH-class deposits replay before the
// MEDIUM ones published earlier.
func TestInboxReplayPriorityOrder(t *testing.T) {
	met := obs.New()
	g, c := buildCluster(t, 80, 17, Options{
		HeartbeatEvery: 10 * time.Millisecond,
		MaintainEvery:  20 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    4,
		Inbox:          true,
		InboxReplicas:  1,
		Obs:            met,
	})
	defer shutdown(t, c)
	pub := topDegree(g)
	victim := g.Neighbors(pub)[0]
	var dc deliveryCounter
	dc.install(c.Nodes[victim])

	c.Crash(victim)
	time.Sleep(50 * time.Millisecond)
	low1 := publishPri(c.Nodes[pub], []byte("feed"), inbox.Medium)
	low2 := publishPri(c.Nodes[pub], []byte("feed"), inbox.Medium)
	high := publishPri(c.Nodes[pub], []byte("mention"), inbox.High)
	waitFor(t, 5*time.Second, "deposits acked", func() bool {
		return met.Get(obs.CInboxDepositAck) >= 3
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Rejoin(ctx, victim, pub); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitFor(t, 10*time.Second, "all three replays", func() bool {
		return dc.delivered() == 3
	})
	dc.mu.Lock()
	order := append([]uint32(nil), dc.order...)
	dc.mu.Unlock()
	if order[0] != high {
		t.Errorf("replay order %v: HIGH seq %d should drain before MEDIUM %d/%d", order, high, low1, low2)
	}
}
