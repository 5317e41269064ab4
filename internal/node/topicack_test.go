package node

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"selectps/internal/faultnet"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// Tests of the topic ack rule (DESIGN.md §13.4): a subscriber acks the
// replica that stamped its copy, and that replica passes the ack on to
// the rest of its rendezvous set.

// repairState reports how many replica rows n's repair engine holds and
// how many topic origins index them. A publisher that is its topic's
// primary also holds the hand-off row of its publication, which waits for
// the other members' acceptance, not for subscriber acks.
func repairState(n *Node) (pubs, origins int) {
	n.do(func() {
		for _, st := range n.pubs {
			if st.class == rowReplica {
				pubs++
			}
		}
		origins = len(n.tpOrigin)
	})
	return pubs, origins
}

// topicCast picks a topic's rendezvous set on c and k subscribers outside
// it, and subscribes them.
func topicCast(t *testing.T, c *Cluster, topic string, k int) (set, subs []overlay.PeerID) {
	t.Helper()
	set = c.Nodes[0].TopicRendezvous(topic)
	if len(set) < 2 {
		t.Fatalf("need a standby, got rendezvous %v", set)
	}
	for p := overlay.PeerID(0); int(p) < len(c.Nodes) && len(subs) < k; p++ {
		if !slices.Contains(set, p) {
			subs = append(subs, p)
		}
	}
	for _, s := range subs {
		if _, err := c.Nodes[s].Topic(topic).Subscribe(subCtx(t)); err != nil {
			t.Fatalf("subscribe %d: %v", s, err)
		}
	}
	// Subscribe returns on the first replica's confirmation; the tests
	// count copies, so every replica holds every registration first.
	waitFor(t, 10*time.Second, "every replica to register every subscriber", func() bool {
		for _, r := range set {
			if c.Nodes[r].TopicSubscribers(topic) != len(subs) {
				return false
			}
		}
		return true
	})
	return set, subs
}

// TestTopicRendezvousStateRetires: a replica's repair state of a topic
// publication resolves on the last subscriber ack — not on a retry — and
// leaves nothing behind in tpOrigin, also when the publisher is the
// topic's own primary (its acks name itself as publisher) and on a
// standby whose acks arrive before the publisher's hand-off does.
func TestTopicRendezvousStateRetires(t *testing.T) {
	t.Run("publisher is the primary", func(t *testing.T) {
		met := obs.New()
		// A retry is seconds away: whatever resolves inside the window
		// resolved on acks.
		_, c := buildCluster(t, 60, 41, Options{RetryBase: 2 * time.Second, TopicLease: 30 * time.Second, Obs: met})
		defer shutdown(t, c)
		const topic = "#x"
		set, subs := topicCast(t, c, topic, 8)
		pub := set[0]
		seqs := make([]uint32, 20)
		for i := range seqs {
			seqs[i], _ = c.Nodes[pub].Topic(topic).Publish([]byte("x"))
		}
		for _, seq := range seqs {
			if k, ok := await(c, pub, seq, subs, 10*time.Second); !ok {
				t.Fatalf("seq %d reached %d/%d", seq, k, len(subs))
			}
		}
		waitFor(t, time.Second, "every replica's topic state to resolve", func() bool {
			for _, r := range set {
				if p, o := repairState(c.Nodes[r]); p != 0 || o != 0 {
					return false
				}
			}
			return true
		})
		if n := met.Get(obs.CRetrySent); n != 0 {
			t.Errorf("%d retries: the states waited for the repair wheel", n)
		}
	})

	t.Run("acks before the hand-off", func(t *testing.T) {
		_, c, tp := frozenCluster(t, 60, 41, Options{RetryBase: 10 * time.Millisecond, TopicLease: 30 * time.Second})
		const topic = "#x"
		set := c.Nodes[0].topicRendezvous(topic, time.Now())
		if len(set) != 2 {
			t.Fatalf("rendezvous %v, want a primary and a standby", set)
		}
		primary, standby := c.Nodes[set[0]], c.Nodes[set[1]]
		var subs []overlay.PeerID
		for p := overlay.PeerID(0); len(subs) < 8; p++ {
			if !slices.Contains(set, p) {
				subs = append(subs, p)
				primary.registerTopicSub(topic, p, time.Now())
				standby.registerTopicSub(topic, p, time.Now())
			}
		}
		// The primary publishes: it accepts at once and fans the tree; the
		// hand-off to the standby is held back.
		seq, err := primary.Topic(topic).Publish([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		handoff := tp.take(wire.KindTopicPub)
		handoff = slices.DeleteFunc(handoff, func(s sent) bool { return s.m.Target >= 0 })
		if len(handoff) != 1 || handoff[0].hop != int32(standby.id) {
			t.Fatalf("hand-offs %+v, want one to the standby %d", handoff, standby.id)
		}
		for i, s := range subs {
			if p, o := repairState(primary); p != 1 || o != 1 {
				t.Fatalf("after %d of %d acks the primary holds %d states, %d origins", i, len(subs), p, o)
			}
			primary.handle(&wire.Message{Kind: wire.KindAckBatch, From: int32(s), To: int32(primary.id), Acks: []wire.AckEntry{
				{Kind: wire.KindAck, From: int32(s), Dest: int32(primary.id), Pub: int32(primary.id), Seq: seq, TTL: 8},
			}})
		}
		if p, o := repairState(primary); p != 0 || o != 0 {
			t.Fatalf("after the last ack the primary holds %d states, %d origins", p, o)
		}
		// The shared entries wait for the timed flush, and leave together.
		if acks := tp.take(wire.KindAckBatch); len(acks) != 0 {
			t.Fatalf("%d ack frames left before the flush", len(acks))
		}
		primary.flushAcks()
		shared := tp.take(wire.KindAckBatch)
		if len(shared) != 1 || shared[0].hop != int32(standby.id) || len(shared[0].m.Acks) != len(subs) {
			t.Fatalf("shared acks %+v, want one frame of %d entries to %d", shared, len(subs), standby.id)
		}
		for i, e := range shared[0].m.Acks {
			if e.From != int32(subs[i]) || e.Dest != int32(standby.id) || e.Pub != int32(primary.id) || e.Seq != seq {
				t.Errorf("shared entry %d: %+v", i, e)
			}
		}
		// The acks reach the standby first, then the hand-off.
		standby.handle(shared[0].m)
		if acks := tp.take(wire.KindAckBatch); len(acks) != 0 {
			t.Fatalf("the standby passed shared entries on: %+v", acks)
		}
		standby.handle(handoff[0].m)
		if p, o := repairState(standby); p != 0 || o != 0 {
			t.Fatalf("a hand-off already acked leaves the standby with %d states, %d origins", p, o)
		}
		if copies := tp.take(wire.KindTopicPub); len(copies) != 0 {
			t.Fatalf("the standby sent %d copies", len(copies))
		}
	})
}

// handoffsTo counts the hand-off frames (KindTopicPub, Target -1) among
// frames, per peer they were sent to.
func handoffsTo(frames []sent) map[overlay.PeerID]int {
	out := make(map[overlay.PeerID]int)
	for _, f := range frames {
		if f.m.Kind == wire.KindTopicPub && f.m.Target < 0 {
			out[overlay.PeerID(f.hop)]++
		}
	}
	return out
}

// dropPubAcks takes the hand-off acks the given members send out of ack
// frame f, and reports false: the rest of the frame goes on.
func dropPubAcks(f *sent, from ...overlay.PeerID) bool {
	if f.m.Kind == wire.KindAckBatch {
		f.m.Acks = slices.DeleteFunc(f.m.Acks, func(e wire.AckEntry) bool {
			return e.Kind == wire.KindTopicPubAck && slices.Contains(from, overlay.PeerID(e.From))
		})
	}
	return false
}

// TestTopicHandoffRow: a topic hand-off is a row of the publisher's repair
// engine. Its destinations are the rendezvous set's members, and a
// member's KindTopicPubAck, its acceptance, is kept in the row. The row
// resolves on the last acceptance, resolves at budget if any member
// accepted, and dead-letters once, naming the publication, if none did.
// When the publisher is its topic's primary, a subscribing standby's ack
// of the primary's tree copy lands in the ack set of the primary's replica
// row, and it is no acceptance: the publisher keeps handing off until the
// standby accepts and holds repair state of its own.
func TestTopicHandoffRow(t *testing.T) {
	const topic, budget = "#row", 3
	type env struct {
		pub, primary, standby *Node
		silent                overlay.PeerID // a subscriber, the one the last case keeps from answering
		seq                   uint32
		early                 bool // the row left before an acceptance reached it
	}
	isHandoff := func(f *sent) bool { return f.m.Kind == wire.KindTopicPub && f.m.Target < 0 }
	watchEarly := func(e *env, _ int, f *sent) bool {
		isPubAck := func(a wire.AckEntry) bool { return a.Kind == wire.KindTopicPubAck }
		if f.hop == int32(e.pub.id) && slices.ContainsFunc(f.m.Acks, isPubAck) && e.pub.pubs[e.seq] == nil {
			e.early = true
		}
		return false
	}
	for _, tc := range []struct {
		name             string
		primaryPublishes bool
		// lose drops (true) or edits a frame sent after `ticks` repair ticks.
		lose  func(e *env, ticks int, f *sent) bool
		check func(t *testing.T, e *env, ticks int)
		// ticks is how many repair ticks of the publisher the row lives
		// through; toPrimary and toStandby count the hand-off frames each
		// member is sent, retries the retry copies.
		ticks, toPrimary, toStandby, retries int
		deadLetter                           bool
	}{
		{name: "all members accept", lose: watchEarly, ticks: 0, toPrimary: 1, toStandby: 1},
		{
			name:  "one member silent, one accepted",
			lose:  func(e *env, _ int, f *sent) bool { return dropPubAcks(f, e.standby.id) },
			ticks: budget + 1, toPrimary: 1, toStandby: budget + 1, retries: budget,
		},
		{
			name:  "no member answers",
			lose:  func(e *env, _ int, f *sent) bool { return dropPubAcks(f, e.primary.id, e.standby.id) },
			ticks: budget + 1, toPrimary: budget + 1, toStandby: budget + 1, retries: 2 * budget,
			deadLetter: true,
		},
		{
			name:             "publisher is the primary, standby subscribes",
			primaryPublishes: true,
			lose: func(e *env, ticks int, f *sent) bool {
				switch {
				case f.hop == int32(e.silent):
					return true
				case ticks == 0:
					return isHandoff(f) // the first hand-off is lost on its way
				case ticks == 1:
					return dropPubAcks(f, e.standby.id)
				}
				return false
			},
			check: func(t *testing.T, e *env, ticks int) {
				switch ticks {
				case 0:
					if !e.pub.acked[msgID{int32(e.pub.id), e.seq}][int32(e.standby.id)] {
						t.Fatal("the standby's ack of the tree copy did not reach the primary: the case proves nothing")
					}
				case 1:
					if _, ok := e.standby.tpOrigin[msgID{int32(e.pub.id), e.seq}]; !ok {
						t.Error("the standby accepted the re-sent hand-off and holds no repair state")
					}
				}
			},
			ticks: 2, toStandby: 3, retries: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			met := obs.New()
			_, c, tp := frozenCluster(t, 60, 53, Options{Obs: met, RetryBase: time.Second, RetryBudget: budget, TopicLease: 30 * time.Second})
			now := time.Now()
			set := c.Nodes[0].topicRendezvous(topic, now)
			if len(set) != 2 {
				t.Fatalf("rendezvous %v, want a primary and a standby", set)
			}
			e := &env{primary: c.Nodes[set[0]], standby: c.Nodes[set[1]]}
			var others []overlay.PeerID
			for p := overlay.PeerID(0); len(others) < 4; p++ {
				if !slices.Contains(set, p) {
					others = append(others, p)
				}
			}
			e.pub, e.silent = c.Nodes[others[0]], others[1]
			for _, r := range set {
				for _, s := range others[1:] {
					c.Nodes[r].registerTopicSub(topic, s, now)
				}
			}
			if tc.primaryPublishes {
				e.pub = e.primary
				e.primary.registerTopicSub(topic, e.standby.id, now)
				e.standby.subTopics[topic] = &topicSub{sub: &Subscription{n: e.standby, topic: topic}, ackCh: make(chan struct{})}
			}
			var err error
			if e.seq, err = e.pub.Topic(topic).Publish([]byte("row")); err != nil {
				t.Fatal(err)
			}
			var frames []sent
			ticks := 0
			for {
				frames = append(frames, playInbox(c, tp, func(f *sent) bool { return tc.lose != nil && tc.lose(e, ticks, f) })...)
				if tc.check != nil {
					tc.check(t, e, ticks)
				}
				st := e.pub.pubs[e.seq]
				if st == nil {
					break
				}
				if st.class != rowHandoff || e.pub.PendingTopicPublishes() != 1 {
					t.Fatalf("row %d: class %d, %d hand-offs pending", e.seq, st.class, e.pub.PendingTopicPublishes())
				}
				if ticks > budget+1 {
					t.Fatalf("the row outlived %d repair ticks", ticks)
				}
				st.nextAt = time.Now().Add(-time.Millisecond)
				e.pub.repairTick()
				ticks++
			}
			if e.early {
				t.Error("the row left before the last acceptance reached it")
			}
			sent := handoffsTo(frames)
			if ticks != tc.ticks || sent[e.primary.id] != tc.toPrimary || sent[e.standby.id] != tc.toStandby {
				t.Errorf("the row left after %d ticks, hand-offs to the primary %d, to the standby %d; want %d, %d, %d",
					ticks, sent[e.primary.id], sent[e.standby.id], tc.ticks, tc.toPrimary, tc.toStandby)
			}
			if got := met.Get(obs.CRetrySent); got != int64(tc.retries) {
				t.Errorf("retry_sent = %d, want %d", got, tc.retries)
			}
			dl := e.pub.DeadLetters()
			switch {
			case !tc.deadLetter && len(dl) != 0:
				t.Errorf("dead letters %+v, want none", dl)
			case tc.deadLetter && (len(dl) != 1 || dl[0].Publisher != e.pub.id || dl[0].Seq != e.seq || !slices.Equal(dl[0].Missing, set) || dl[0].Retries != budget):
				t.Errorf("dead letters %+v, want one naming %d/%d, missing %v, after %d retries", dl, e.pub.id, e.seq, set, budget)
			}
			if got, want := met.Get(obs.CDeadLetter), int64(len(dl)); got != want {
				t.Errorf("dead_letter = %d, %d recorded", got, want)
			}
		})
	}
}

// TestDeadLetterNamesPublication: a dead letter names the publication it
// gave up on. On a rendezvous replica that is the origin (publisher, seq),
// not the replica's private repair seq; a hand-off no member accepted is
// the publisher's own (self, seq).
func TestDeadLetterNamesPublication(t *testing.T) {
	const topic, budget = "#letters", 2
	_, c, tp := frozenCluster(t, 60, 59, Options{RetryBase: time.Second, RetryBudget: budget, TopicLease: 30 * time.Second})
	set := c.Nodes[0].topicRendezvous(topic, time.Now())
	primary := c.Nodes[set[0]]
	var others []overlay.PeerID
	for p := overlay.PeerID(0); len(others) < 2; p++ {
		if !slices.Contains(set, p) {
			others = append(others, p)
		}
	}
	pub, sub := c.Nodes[others[0]], c.Nodes[others[1]]
	for _, r := range set {
		c.Nodes[r].registerTopicSub(topic, sub.id, time.Now())
	}
	sub.paused.Store(true)
	asleep := func(f *sent) bool { return c.Nodes[f.hop].paused.Load() }
	// The publisher's seqs run ahead of the primary's, so that the
	// primary's repair seq of the publication is not the publication's.
	for pub.seq.Load() <= primary.seq.Load()+1 {
		pub.nextSeq()
	}
	seq, _ := pub.Topic(topic).Publish([]byte("x"))
	playInbox(c, tp, asleep)
	rseq, ok := primary.tpOrigin[msgID{int32(pub.id), seq}]
	if !ok || rseq == seq {
		t.Fatalf("the primary holds the publication under repair seq %d (accepted %v), the publication is %d", rseq, ok, seq)
	}
	for i := 0; i <= budget; i++ {
		primary.pubs[rseq].nextAt = time.Now().Add(-time.Millisecond)
		primary.repairTick()
		playInbox(c, tp, asleep)
	}
	want := DeadLetter{Publisher: pub.id, Seq: seq, Missing: []overlay.PeerID{sub.id}, Retries: budget}
	if dl := primary.DeadLetters(); len(dl) != 1 || !reflect.DeepEqual(dl[0], want) {
		t.Errorf("the primary's dead letters %+v, want [%+v]", dl, want)
	}
	if dl := pub.DeadLetters(); len(dl) != 0 {
		t.Fatalf("the publisher dead-lettered an accepted hand-off: %+v", dl)
	}

	lost := func(f *sent) bool { return f.m.Kind == wire.KindTopicPub && f.m.Target < 0 }
	seq, _ = pub.Topic(topic).Publish([]byte("y"))
	playInbox(c, tp, lost)
	for i := 0; i <= budget; i++ {
		pub.pubs[seq].nextAt = time.Now().Add(-time.Millisecond)
		pub.repairTick()
		playInbox(c, tp, lost)
	}
	want = DeadLetter{Publisher: pub.id, Seq: seq, Missing: set, Retries: budget}
	if dl := pub.DeadLetters(); len(dl) != 1 || !reflect.DeepEqual(dl[0], want) {
		t.Errorf("the publisher's dead letters %+v, want [%+v]", dl, want)
	}
}

// TestTopicCopyAckedOnce: on a fault-free cluster every copy a subscriber
// gets costs exactly one ack entry, to the replica that stamped the copy,
// and the standby — which no subscriber acks — resolves on the entries
// the primary passes on, without a retry copy. The replicas subscribe
// too: the primary, which delivers to itself, acks the standby itself,
// and the standby's ack to the primary is not passed back to it.
func TestTopicCopyAckedOnce(t *testing.T) {
	const n, seed = 80, 43
	g, ov := buildOverlay(t, n, seed)
	tp := newTap(n)
	met := obs.New()
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: tp, Seed: seed, Obs: met,
		RetryBase: time.Second, TopicLease: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)
	const topic = "#once"
	set, subs := topicCast(t, c, topic, 24)
	pub := subs[len(subs)-1]
	subs = subs[:len(subs)-1]
	// The replicas subscribe too: no copy of the other's reaches either.
	for _, r := range set {
		if _, err := c.Nodes[r].Topic(topic).Subscribe(subCtx(t)); err != nil {
			t.Fatalf("subscribe %d: %v", r, err)
		}
	}
	waitFor(t, 10*time.Second, "the replicas' own registrations", func() bool {
		for _, r := range set {
			if c.Nodes[r].TopicSubscribers(topic) != len(subs)+1+len(set) {
				return false
			}
		}
		return true
	})
	primary, standby := set[0], set[1]
	tp.take(wire.KindTopicPub) // forgets the set-up frames
	var seqs []uint32
	for i := 0; i < 6; i++ {
		seq, _ := c.Nodes[pub].Topic(topic).Publish([]byte("once"))
		seqs = append(seqs, seq)
	}
	for _, seq := range seqs {
		if k, ok := await(c, pub, seq, append(slices.Clone(subs), set...), 10*time.Second); !ok {
			t.Fatalf("seq %d reached %d/%d", seq, k, len(subs)+len(set))
		}
	}
	waitFor(t, time.Second, "both replicas' states to resolve", func() bool {
		for _, r := range set {
			if p, o := repairState(c.Nodes[r]); p != 0 || o != 0 {
				return false
			}
		}
		return c.Nodes[pub].PendingTopicPublishes() == 0
	})
	type key struct {
		sub int32
		seq uint32
	}
	tp.mu.Lock()
	frames := tp.frames
	tp.mu.Unlock()
	stamped := make(map[key][]int32) // the Target of every copy a subscriber got
	acked := make(map[key][]int32)   // the Dest of every entry a subscriber sent itself
	shared := 0
	for _, f := range frames {
		if f.m.Kind == wire.KindTopicPub && f.m.Target >= 0 {
			stamped[key{f.hop, f.m.Seq}] = append(stamped[key{f.hop, f.m.Seq}], f.m.Target)
		}
		if f.m.Kind != wire.KindAckBatch {
			continue
		}
		for _, e := range f.m.Acks {
			switch {
			case e.Kind != wire.KindAck:
			case e.From == f.m.From:
				acked[key{e.From, e.Seq}] = append(acked[key{e.From, e.Seq}], e.Dest)
			default:
				shared++
			}
		}
	}
	for _, s := range append(slices.Clone(subs), standby) {
		for _, seq := range seqs {
			k := key{int32(s), seq}
			want, got := slices.Clone(stamped[k]), slices.Clone(acked[k])
			slices.Sort(want)
			slices.Sort(got)
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("subscriber %d, seq %d: copies stamped by %v, acks sent to %v", s, seq, want, got)
			}
			if slices.Contains(got, int32(standby)) {
				t.Errorf("subscriber %d acked the standby %d for seq %d", s, standby, seq)
			}
		}
	}
	// The primary delivers to itself and acks the standby, once.
	for _, seq := range seqs {
		if got := acked[key{int32(primary), seq}]; !slices.Equal(got, []int32{int32(standby)}) {
			t.Errorf("seq %d: the primary, a subscriber, sent its own acks to %v, want [%d]", seq, got, standby)
		}
	}
	if want := len(subs) * len(seqs) * (len(set) - 1); shared != want || met.Get(obs.CTopicAckShared) != int64(want) {
		t.Errorf("%d entries passed on (topic_ack_shared %d), want %d", shared, met.Get(obs.CTopicAckShared), want)
	}
	if r := met.Get(obs.CRetrySent); r != 0 {
		t.Errorf("%d retry copies in a fault-free run", r)
	}
}

// TestTopicTreeForwardsPastDuplicate: a standby that subscribes delivers
// on the publisher's hand-off, before the primary's tree copy reaches it.
// That copy is then a duplicate, and the standby still forwards the
// subtree it carries — the peers below are owed theirs — and acks it
// once, to the primary. The application sees the publication once.
func TestTopicTreeForwardsPastDuplicate(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 60, 9, Options{Obs: met, RetryBase: 10 * time.Millisecond, TopicLease: 30 * time.Second})
	const topic = "#dup"
	set := c.Nodes[0].topicRendezvous(topic, time.Now())
	primary, standby := set[0], c.Nodes[set[1]]
	var others []overlay.PeerID
	for p := overlay.PeerID(0); len(others) < 3; p++ {
		if !slices.Contains(set, p) {
			others = append(others, p)
		}
	}
	pub, below := others[0], others[1:]
	standby.subTopics[topic] = &topicSub{sub: &Subscription{n: standby, topic: topic}, ackCh: make(chan struct{})}
	var dc deliveryCounter
	dc.install(standby)
	standby.handle(&wire.Message{
		Kind: wire.KindTopicPub, From: int32(pub), To: int32(standby.id), Seq: 7,
		Publisher: int32(pub), Target: -1, Topic: []byte(topic), TTL: 8,
	})
	tp.take(wire.KindTopicPub) // forgets the hand-off's ack
	standby.handle(&wire.Message{
		Kind: wire.KindTopicPub, From: int32(primary), To: int32(standby.id), Seq: 7,
		Publisher: int32(pub), Target: int32(primary), Topic: []byte(topic), TTL: 8,
		RoutingTable: []int32{int32(below[0]), int32(below[1])},
	})
	tp.mu.Lock()
	frames := tp.frames
	tp.mu.Unlock()
	var forwarded []int32
	var acks []wire.AckEntry
	for _, f := range frames {
		switch f.m.Kind {
		case wire.KindTopicPub:
			if f.m.Target != int32(primary) || f.m.Publisher != int32(pub) || len(f.m.RoutingTable) != 0 {
				t.Errorf("forwarded copy %+v", f.m)
			}
			forwarded = append(forwarded, f.hop)
		case wire.KindAckBatch:
			acks = append(acks, f.m.Acks...)
		}
	}
	slices.Sort(forwarded)
	if want := []int32{int32(below[0]), int32(below[1])}; !slices.Equal(forwarded, want) {
		t.Errorf("the duplicate's subtree went to %v, want %v", forwarded, want)
	}
	if len(acks) != 1 || acks[0].Kind != wire.KindAck || acks[0].Dest != int32(primary) {
		t.Errorf("acks for the tree copy: %+v, want one to the primary %d", acks, primary)
	}
	if dc.count(7) != 1 || met.Get(obs.CPublishDuplicate) != 1 {
		t.Errorf("delivered %d times, publish_duplicate %d", dc.count(7), met.Get(obs.CPublishDuplicate))
	}
}

// TestTopicAckShareUnderLoss: with ack frames dropped, duplicated and
// reordered — subscriber acks, entries passed between the replicas and
// hand-off acks alike — every subscriber gets every publication exactly
// once, both replicas' states drain and nothing is dead-lettered. A lost
// entry costs a retry, not a delivery.
func TestTopicAckShareUnderLoss(t *testing.T) {
	const n, seed = 60, 47
	g, ov := buildOverlay(t, n, seed)
	met := obs.New()
	fn := faultnet.Wrap(transport.NewSwitchboard(n, 4096), n, faultnet.Config{
		DropProb: 0.2, DupProb: 0.1, ReorderProb: 0.1,
		Kinds: []wire.Kind{wire.KindAckBatch},
	}, seed)
	fn.Obs = met
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: fn, Seed: seed, Obs: met,
		RetryBase: 10 * time.Millisecond, RetryBudget: 100, TopicLease: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)
	const topic = "#lossy"
	set, subs := topicCast(t, c, topic, 13)
	pub := subs[len(subs)-1]
	subs = subs[:len(subs)-1]
	counters := make([]*deliveryCounter, len(subs))
	for i, s := range subs {
		counters[i] = &deliveryCounter{}
		counters[i].install(c.Nodes[s])
	}
	var seqs []uint32
	for i := 0; i < 10; i++ {
		seq, _ := c.Nodes[pub].Topic(topic).Publish([]byte("lossy"))
		seqs = append(seqs, seq)
	}
	for _, seq := range seqs {
		if k, ok := await(c, pub, seq, subs, 20*time.Second); !ok {
			t.Fatalf("seq %d reached %d/%d", seq, k, len(subs))
		}
	}
	waitFor(t, 20*time.Second, "both replicas' states and the hand-offs to drain", func() bool {
		for _, r := range set {
			if p, o := repairState(c.Nodes[r]); p != 0 || o != 0 {
				return false
			}
		}
		return c.Nodes[pub].PendingTopicPublishes() == 0
	})
	for i, s := range subs {
		for _, seq := range seqs {
			if k := counters[i].count(seq); k != 1 {
				t.Errorf("subscriber %d got seq %d %d times", s, seq, k)
			}
		}
	}
	for p, nd := range c.Nodes {
		if dl := nd.DeadLetters(); len(dl) != 0 {
			t.Errorf("node %d dead-lettered %+v", p, dl)
		}
	}
	if met.Get(obs.CFaultDrop) == 0 || met.Get(obs.CTopicAckShared) == 0 {
		t.Errorf("%d frames dropped, %d entries shared: the run proves nothing",
			met.Get(obs.CFaultDrop), met.Get(obs.CTopicAckShared))
	}
	t.Logf("%d ack frames dropped, %d entries shared, %d retry copies",
		met.Get(obs.CFaultDrop), met.Get(obs.CTopicAckShared), met.Get(obs.CRetrySent))
}
