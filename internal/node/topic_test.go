package node

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/selectcore"
	"selectps/internal/transport"
)

// subCtx is the registration deadline used by the topic tests.
func subCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestTopicPubSubEndToEnd drives the topic-first API through a live
// cluster: subscribers register at the rendezvous set, a publication
// fans down the dissemination tree, and every handler sees the full
// Delivery context (publisher, topic, seq, priority, payload).
func TestTopicPubSubEndToEnd(t *testing.T) {
	met := obs.New()
	_, c := buildCluster(t, 100, 23, Options{
		HeartbeatEvery: 10 * time.Millisecond,
		MaintainEvery:  20 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    100,
		Obs:            met,
	})
	defer shutdown(t, c)

	const topic = "#chess"
	pub := overlay.PeerID(0)
	subs := []overlay.PeerID{3, 9, 17, 24, 31, 42, 55, 68}
	var mu sync.Mutex
	got := make(map[overlay.PeerID]Delivery)
	for i, s := range subs {
		s := s
		sub, err := c.Nodes[s].Topic(topic).Subscribe(subCtx(t))
		if err != nil {
			t.Fatalf("subscribe %d: %v", s, err)
		}
		record := func(d Delivery) {
			mu.Lock()
			d.Payload = bytes.Clone(d.Payload) // a view, valid during the callback only
			got[s] = d
			mu.Unlock()
		}
		if i == 0 {
			// One subscriber exercises the node-level fallback handler;
			// the rest use the per-subscription handler.
			c.Nodes[s].OnDeliver(record)
		} else {
			sub.OnDeliver(record)
		}
	}

	body := []byte("Qxf7#")
	seq, err := c.Nodes[pub].Topic(topic).Publish(body, WithPriority(inbox.High))
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if delivered, ok := await(c, pub, seq, subs, 10*time.Second); !ok {
		t.Fatalf("only %d/%d topic subscribers delivered", delivered, len(subs))
	}

	mu.Lock()
	defer mu.Unlock()
	for _, s := range subs {
		d, ok := got[s]
		if !ok {
			t.Fatalf("subscriber %d handler never fired", s)
		}
		if d.Topic != topic || d.Publisher != pub || d.Seq != seq {
			t.Fatalf("subscriber %d delivery context = %+v", s, d)
		}
		if !bytes.Equal(d.Payload, body) {
			t.Fatalf("subscriber %d payload = %q", s, d.Payload)
		}
		if d.Priority != inbox.High {
			t.Fatalf("subscriber %d priority = %d, want %d", s, d.Priority, inbox.High)
		}
	}
	// A peer that never subscribed receives nothing, even when the flood
	// passed near it.
	if _, delivered := c.Nodes[77].Received(pub, seq); delivered {
		t.Fatal("non-subscriber received the topic publication")
	}
	if met.Get(obs.CTopicFanout) == 0 {
		t.Fatal("no dissemination-tree copies sent — delivery bypassed the tree")
	}
	waitFor(t, 5*time.Second, "publisher hand-off to resolve", func() bool {
		return c.Nodes[pub].PendingTopicPublishes() == 0
	})
}

// TestTopicRendezvousMatchesSimulatorRule pins the simulator/runtime
// equivalence contract: the placement a live node computes from its
// directory is byte-identical to selectcore.Rendezvous applied to the
// same ring snapshot, and — on a converged ring — every node derives
// the same set.
func TestTopicRendezvousMatchesSimulatorRule(t *testing.T) {
	_, c := buildCluster(t, 80, 29, Options{})
	defer shutdown(t, c)
	topics := []string{"#go", "#news", "group:7", "page:select", "#flash-crowd"}
	probes := []overlay.PeerID{0, 13, 41, 79}
	for _, topic := range topics {
		ref := c.Nodes[probes[0]].TopicRendezvous(topic)
		if len(ref) == 0 {
			t.Fatalf("topic %q: empty rendezvous set", topic)
		}
		for _, p := range probes {
			n := c.Nodes[p]
			got := n.TopicRendezvous(topic)
			want := selectcore.Rendezvous(
				selectcore.TopicPos(topic), n.dir.ringMembers(), nil, n.cfg.InboxReplicas)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("topic %q node %d: runtime %v != simulator rule %v", topic, p, got, want)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("topic %q: nodes disagree on placement: %v vs %v", topic, got, ref)
			}
		}
	}
}

// TestTopicRendezvousDeathRehomesMidFlood is the churn acceptance test
// (run under -race in CI): the topic's primary rendezvous dies in the
// middle of a publication flood and every post still reaches every live
// subscriber — the publisher keeps re-handing to the recomputed set,
// subscribers re-register when the accrual detector re-homes the topic,
// and the surviving standbys' repair engines close the gaps. Zero lost
// publications, zero dead letters.
func TestTopicRendezvousDeathRehomesMidFlood(t *testing.T) {
	met := obs.New()
	_, c := buildCluster(t, 100, 31, Options{
		HeartbeatEvery: 10 * time.Millisecond,
		MaintainEvery:  20 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    400,
		// The benchmark's margin (bench/spec.go): on a host shared with another
		// -race package a refresh runs late, and the 500 ms default expires a
		// live subscriber at the standby — a lost delivery in 4 runs of 16.
		TopicLease: 2 * time.Second,
		Obs:        met,
	})
	defer shutdown(t, c)

	const topic = "#breaking"
	set := c.Nodes[0].TopicRendezvous(topic)
	if len(set) < 2 {
		t.Fatalf("need a standby for the kill, got rendezvous %v", set)
	}
	primary := set[0]
	inSet := func(p overlay.PeerID) bool {
		for _, r := range set {
			if r == p {
				return true
			}
		}
		return false
	}
	// Subscribers and publisher stay clear of the initial rendezvous set
	// so the kill hits only the topic's infrastructure role.
	var subs []overlay.PeerID
	var pub overlay.PeerID = -1
	for p := overlay.PeerID(0); p < 100 && (len(subs) < 10 || pub < 0); p++ {
		if inSet(p) {
			continue
		}
		if pub < 0 {
			pub = p
			continue
		}
		subs = append(subs, p)
	}
	for _, s := range subs {
		if _, err := c.Nodes[s].Topic(topic).Subscribe(subCtx(t)); err != nil {
			t.Fatalf("subscribe %d: %v", s, err)
		}
	}

	const posts = 12
	seqs := make([]uint32, posts)
	for i := range seqs {
		seq, err := c.Nodes[pub].Topic(topic).Publish([]byte("flash"), WithSize(500))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		seqs[i] = seq
		if i == posts/3 {
			// Mid-flood kill: the primary dies for real — volatile state
			// (its registry included) gone, membership dropped. The
			// publisher must re-hand pending publications to the recomputed
			// set and the surviving standbys must keep fanning out.
			c.Crash(primary)
		}
		time.Sleep(10 * time.Millisecond)
	}

	deadline := time.Now().Add(30 * time.Second)
	for i, seq := range seqs {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		delivered, ok := c.AwaitDelivery(ctx, pub, seq, subs)
		cancel()
		if !ok {
			t.Fatalf("post %d (seq %d): only %d/%d live subscribers delivered after re-homing",
				i, seq, delivered, len(subs))
		}
	}
	waitFor(t, 15*time.Second, "publisher hand-offs to resolve", func() bool {
		return c.Nodes[pub].PendingTopicPublishes() == 0
	})
	if dl := c.Nodes[pub].DeadLetters(); len(dl) != 0 {
		t.Fatalf("publications dead-lettered despite full delivery: %+v", dl)
	}
	if met.Get(obs.CTopicRehome) == 0 {
		t.Fatal("no rendezvous re-homing observed — the kill never exercised the fail-over")
	}
}

// TestTopicUnsubscribePurgesJournaledDeposits pins the unsubscribe
// drain: deposits journaled for an unreachable subscriber are purged
// from its inbox replicas the moment it unsubscribes, and nothing is
// ever replayed to it.
func TestTopicUnsubscribePurgesJournaledDeposits(t *testing.T) {
	met := obs.New()
	_, c := buildCluster(t, 80, 37, Options{
		HeartbeatEvery: 10 * time.Millisecond,
		MaintainEvery:  20 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    4,
		Inbox:          true,
		Obs:            met,
	})
	defer shutdown(t, c)

	const topic = "#letters"
	set := c.Nodes[0].TopicRendezvous(topic)
	inSet := func(p overlay.PeerID) bool {
		for _, r := range set {
			if r == p {
				return true
			}
		}
		return false
	}
	var victim, pub overlay.PeerID = -1, -1
	for p := overlay.PeerID(0); p < 80 && (victim < 0 || pub < 0); p++ {
		if inSet(p) {
			continue
		}
		if victim < 0 {
			victim = p
		} else {
			pub = p
		}
	}
	sub, err := c.Nodes[victim].Topic(topic).Subscribe(subCtx(t))
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	var dc deliveryCounter
	dc.install(c.Nodes[victim])

	// The subscriber goes dark (still a member — leases at the rendezvous
	// stay warm long enough for the deposits to be owed to it).
	c.Nodes[victim].paused.Store(true)
	const posts = 3
	seqs := make([]uint32, posts)
	for i := range seqs {
		seqs[i], err = c.Nodes[pub].Topic(topic).Publish([]byte("dear diary"))
		if err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	// Quiesce: every publication's rendezvous repair state must settle
	// (deposit acked for the dark subscriber) before the unsubscribe, so
	// no in-flight deposit can land after the purge.
	waitFor(t, 10*time.Second, "deposits journaled for the dark subscriber", func() bool {
		if met.Get(obs.CInboxDeposited) < posts {
			return false
		}
		for _, rv := range set {
			if c.Nodes[rv].PendingRepairs() != 0 {
				return false
			}
		}
		return c.Nodes[pub].PendingTopicPublishes() == 0
	})

	// Unsubscribe while the deposits are still parked: the rendezvous
	// drops the registration and the replicas purge the journal. Told are
	// the rendezvous set and the subscriber's own inbox replicas.
	var told []overlay.PeerID
	for _, rep := range append(c.Nodes[victim].TopicRendezvous(topic), c.Nodes[victim].InboxReplicas()...) {
		if rep != victim && !containsPeer(told, rep) {
			told = append(told, rep)
		}
	}
	if err := sub.Unsubscribe(context.Background()); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	waitFor(t, 10*time.Second, "journal purge", func() bool {
		return met.Get(obs.CTopicPurged) >= posts
	})
	waitFor(t, 10*time.Second, "journals to drain", func() bool {
		return c.InboxDepth() == 0
	})
	// Unsubscribe returned once the TopicUnsub frames had left.
	waitFor(t, 10*time.Second, "every peer told of the unsubscribe to hear it", func() bool {
		return met.Get(obs.CTopicUnsub) >= int64(len(told))
	})
	for _, rv := range set {
		if n := c.Nodes[rv].TopicSubscribers(topic); n != 0 {
			t.Fatalf("rendezvous %d still holds %d registrations after unsubscribe", rv, n)
		}
	}

	// The subscriber comes back: with the journals drained there is
	// nothing to replay — the departed subscription stays silent.
	c.Nodes[victim].paused.Store(false)
	time.Sleep(300 * time.Millisecond)
	for _, seq := range seqs {
		if n := dc.count(seq); n != 0 {
			t.Fatalf("seq %d replayed %d times to an unsubscribed peer", seq, n)
		}
	}
	if c.InboxDepth() != 0 {
		t.Fatalf("journals refilled after resume: depth %d", c.InboxDepth())
	}
}

// TestUserTopicAPIEquivalence pins the friend-feed bridge: a user topic
// handle publishes through the exact friend-feed path, non-owners are
// rejected, and only friends may subscribe.
func TestUserTopicAPIEquivalence(t *testing.T) {
	g, c := buildCluster(t, 60, 43, Options{})
	defer shutdown(t, c)
	pub := topDegree(g)
	friend := g.Neighbors(pub)[0]

	if _, err := c.Nodes[friend].Topic(UserTopic(pub)).Publish([]byte("x")); err != ErrForeignUserTopic {
		t.Fatalf("foreign feed publish: err = %v, want ErrForeignUserTopic", err)
	}
	var stranger overlay.PeerID = -1
	for p := overlay.PeerID(0); p < 60; p++ {
		if p != pub && !g.HasEdge(p, pub) {
			stranger = p
			break
		}
	}
	if stranger >= 0 {
		if _, err := c.Nodes[stranger].Topic(UserTopic(pub)).Subscribe(subCtx(t)); err != ErrNotFriend {
			t.Fatalf("stranger subscribe: err = %v, want ErrNotFriend", err)
		}
	}

	sub, err := c.Nodes[friend].Topic(UserTopic(pub)).Subscribe(subCtx(t))
	if err != nil {
		t.Fatalf("friend subscribe: %v", err)
	}
	var mu sync.Mutex
	var got *Delivery
	sub.OnDeliver(func(d Delivery) {
		mu.Lock()
		d.Payload = bytes.Clone(d.Payload) // a view, valid during the callback only
		got = &d
		mu.Unlock()
	})
	seq, err := c.Nodes[pub].Topic(UserTopic(pub)).Publish([]byte("feed post"))
	if err != nil {
		t.Fatalf("owner publish: %v", err)
	}
	if _, ok := await(c, pub, seq, []overlay.PeerID{friend}, 10*time.Second); !ok {
		t.Fatal("user-topic publication never delivered to the friend")
	}
	mu.Lock()
	defer mu.Unlock()
	if got == nil {
		t.Fatal("subscription handler never fired for the friend feed")
	}
	if got.Topic != UserTopic(pub) || got.Publisher != pub || !bytes.Equal(got.Payload, []byte("feed post")) {
		t.Fatalf("friend-feed delivery context = %+v", *got)
	}
}

// TestTopicLeaseDefaultFollowsMaintainPeriod: subscribers refresh at
// half-lease on the maintain tick, so the default lease spans ten
// maintain periods (never under 500ms) and Start refuses an explicit
// lease a single late tick would expire.
func TestTopicLeaseDefaultFollowsMaintainPeriod(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		maintain, lease, want time.Duration
	}{
		{maintain: 0, want: 500 * ms},
		{maintain: 20 * ms, want: 500 * ms},
		{maintain: 200 * ms, want: 2000 * ms},
		{maintain: 200 * ms, lease: 2000 * ms, want: 2000 * ms}, // bench/spec.go
		{maintain: 200 * ms, lease: 800 * ms, want: 800 * ms},   // exactly four periods
		{maintain: 25 * ms, lease: 7000 * ms, want: 7000 * ms},  // soak: DeliverTimeout+5s
	} {
		_, c := buildCluster(t, 20, 5, Options{MaintainEvery: tc.maintain, TopicLease: tc.lease})
		got := c.Nodes[0].cfg.TopicLease
		shutdown(t, c)
		if got != tc.want {
			t.Errorf("MaintainEvery=%v TopicLease=%v: effective lease %v, want %v", tc.maintain, tc.lease, got, tc.want)
		}
	}

	g, ov := buildOverlay(t, 20, 5)
	tr := transport.NewSwitchboard(20, 64)
	defer tr.Close()
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: tr,
		MaintainEvery: 200 * ms, TopicLease: 500 * ms,
	})
	if err == nil {
		shutdown(t, c)
		t.Fatal("Start accepted TopicLease=500ms with MaintainEvery=200ms")
	}
	if !strings.Contains(err.Error(), "TopicLease") {
		t.Fatalf("error does not name the rejected option: %v", err)
	}
}
