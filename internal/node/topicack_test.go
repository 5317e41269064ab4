package node

import (
	"context"
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
		for _, st := range n.pubs.rows {
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
		set := c.Nodes[0].TopicRendezvous(topic)
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
		primary.flushAcks(time.Now().Add(ackFlushEvery))
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

// rowFramesTo counts the frames of set rows among frames — hand-offs
// (KindTopicPub, Target -1), registrations (KindTopicSub) and registry
// transfers (KindTopicHandoff) — per peer they were sent to.
func rowFramesTo(frames []sent) map[overlay.PeerID]int {
	out := make(map[overlay.PeerID]int)
	for _, f := range frames {
		if f.m.Kind == wire.KindTopicPub && f.m.Target < 0 || f.m.Kind == wire.KindTopicSub || f.m.Kind == wire.KindTopicHandoff {
			out[overlay.PeerID(f.hop)]++
		}
	}
	return out
}

// isAccept reports whether a is a member's acceptance of a set row:
// KindTopicPubAck for a hand-off, KindTopicSubAck for a registration or a
// registry.
func isAccept(a wire.AckEntry) bool {
	return a.Kind == wire.KindTopicPubAck || a.Kind == wire.KindTopicSubAck
}

// dropAccepts takes the acceptances the given members send out of ack
// frame f, and reports false: the rest of the frame goes on.
func dropAccepts(f *sent, from ...overlay.PeerID) bool {
	if f.m.Kind == wire.KindAckBatch {
		f.m.Acks = slices.DeleteFunc(f.m.Acks, func(e wire.AckEntry) bool {
			return isAccept(e) && slices.Contains(from, overlay.PeerID(e.From))
		})
	}
	return false
}

// subscribeFrozen calls Subscribe on n, a node of a frozen cluster, on a
// goroutine of its own, and returns once the call's command has run: its
// first round is in the tap. The channel closes when Subscribe returns.
func subscribeFrozen(t *testing.T, n *Node, topic string) <-chan struct{} {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = n.Topic(topic).Subscribe(ctx)
	}()
	for opened := false; !opened; {
		n.do(func() { opened = n.subTopics[topic] != nil })
	}
	return done
}

// awaitClosed fails the test unless done closes within a few seconds.
func awaitClosed(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestTopicHandoffRow: the three set rows of the repair engine — a topic
// hand-off, a registration and a registry transfer. A row's destinations
// are the rendezvous set's members, and a member's acceptance, a
// KindTopicPubAck or KindTopicSubAck entry, is kept in the row.
//
// A hand-off resolves on the last acceptance, resolves at budget if any
// member accepted, and dead-letters once, naming the publication, if none
// did. When the publisher is its topic's primary, a subscribing standby's
// ack of the primary's tree copy lands in the ack set of the primary's
// replica row, and it is no acceptance: the publisher keeps handing off
// until the standby accepts and holds repair state of its own.
//
// A registration releases Subscribe when it resolves, or when it retires
// at budget with one member's acceptance; one nobody answers retires with
// no dead letter, and the next refresh opens a new row. An unsubscribe
// retires the open row before the TopicUnsub leaves, and a set change
// reaches the new member in the same maintain pass. A transfer re-sends
// to a member until it acks, and the member honours its unsubscribe
// tombstone. Neither counts as a pending publication.
func TestTopicHandoffRow(t *testing.T) {
	const topic, budget = "#row", 3
	type env struct {
		c                       *Cluster
		tp                      *tap
		met                     *obs.Metrics
		owner, primary, standby *Node // owner holds the row
		others                  []overlay.PeerID
		silent                  overlay.PeerID // a subscriber, the one the publisher-primary case keeps from answering
		newcomer                overlay.PeerID // a member that joins the set mid-row, or -1
		class                   uint8
		seq                     uint32
		ts                      *topicSub       // a registration's subscription
		done                    <-chan struct{} // closes when its Subscribe returns
		early                   bool            // the row left before an acceptance reached it
		frames                  []sent
		play                    func() []sent // carries what was sent, under the case's losses
	}
	isHandoff := func(f *sent) bool { return f.m.Kind == wire.KindTopicPub && f.m.Target < 0 }
	watchEarly := func(e *env, _ int, f *sent) bool {
		if f.hop == int32(e.owner.id) && slices.ContainsFunc(f.m.Acks, isAccept) && e.owner.pubs.rows[e.seq] == nil {
			e.early = true
		}
		return false
	}
	publish := func(t *testing.T, e *env) {
		e.class = rowHandoff
		var err error
		if e.seq, err = e.owner.Topic(topic).Publish([]byte("row")); err != nil {
			t.Fatal(err)
		}
	}
	register := func(t *testing.T, e *env) {
		e.owner, e.class = e.c.Nodes[e.others[0]], rowRegister
		e.done = subscribeFrozen(t, e.owner, topic)
		e.ts = e.owner.subTopics[topic]
		e.seq = e.ts.row
	}
	// left is the end of a registration case: row gone, Subscribe released or not.
	left := func(t *testing.T, e *env, released bool) {
		if released {
			awaitClosed(t, e.done, "Subscribe to return")
		} else if e.ts.acked {
			t.Error("Subscribe returned on a row no member accepted")
		}
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T, e *env) // opens the row; nil publishes from others[0]
		// lose drops (true) or edits a frame sent after `ticks` repair ticks.
		lose func(e *env, ticks int, f *sent) bool
		// check runs after each pass of the network; gone says the row had
		// left by then.
		check func(t *testing.T, e *env, ticks int, gone bool)
		// ticks is how many repair ticks of the owner the row lives through;
		// toPrimary, toStandby and toNew count the row's frames each member
		// is sent, retries the retry copies.
		ticks, toPrimary, toStandby, toNew, retries int
		deadLetter                                  bool
	}{
		{name: "all members accept", lose: watchEarly, ticks: 0, toPrimary: 1, toStandby: 1},
		{
			name:  "one member silent, one accepted",
			lose:  func(e *env, _ int, f *sent) bool { return dropAccepts(f, e.standby.id) },
			ticks: budget + 1, toPrimary: 1, toStandby: budget + 1, retries: budget,
		},
		{
			name:  "no member answers",
			lose:  func(e *env, _ int, f *sent) bool { return dropAccepts(f, e.primary.id, e.standby.id) },
			ticks: budget + 1, toPrimary: budget + 1, toStandby: budget + 1, retries: 2 * budget,
			deadLetter: true,
		},
		{
			name: "publisher is the primary, standby subscribes",
			open: func(t *testing.T, e *env) {
				e.owner = e.primary
				e.primary.registerTopicSub(topic, e.standby.id, time.Now())
				e.standby.subTopics[topic] = &topicSub{sub: &Subscription{n: e.standby, topic: topic}, ackCh: make(chan struct{})}
				publish(t, e)
			},
			lose: func(e *env, ticks int, f *sent) bool {
				switch {
				case f.hop == int32(e.silent):
					return true
				case ticks == 0:
					return isHandoff(f) // the first hand-off is lost on its way
				case ticks == 1:
					return dropAccepts(f, e.standby.id)
				}
				return false
			},
			check: func(t *testing.T, e *env, ticks int, _ bool) {
				switch ticks {
				case 0:
					if !ackedBy(&e.owner.acked, msgID{int32(e.owner.id), e.seq}, int32(e.standby.id)) {
						t.Fatal("the standby's ack of the tree copy did not reach the primary: the case proves nothing")
					}
				case 1:
					if _, ok := e.standby.tpOrigin[msgID{int32(e.owner.id), e.seq}]; !ok {
						t.Error("the standby accepted the re-sent hand-off and holds no repair state")
					}
				}
			},
			ticks: 2, toStandby: 3, retries: 2,
		},
		{
			name: "registration, all members accept",
			open: register, lose: watchEarly,
			check: func(t *testing.T, e *env, _ int, gone bool) {
				if gone {
					left(t, e, true)
				}
			},
			ticks: 0, toPrimary: 1, toStandby: 1,
		},
		{
			name: "registration, one member silent, one accepted",
			open: register,
			lose: func(e *env, _ int, f *sent) bool { return dropAccepts(f, e.standby.id) },
			check: func(t *testing.T, e *env, _ int, gone bool) {
				if gone {
					left(t, e, true)
				}
			},
			ticks: budget + 1, toPrimary: 1, toStandby: budget + 1, retries: budget,
		},
		{
			name: "registration, no member answers, then a refresh",
			open: register,
			lose: func(e *env, _ int, f *sent) bool { return dropAccepts(f, e.primary.id, e.standby.id) },
			check: func(t *testing.T, e *env, _ int, gone bool) {
				if !gone {
					return
				}
				left(t, e, false)
				e.ts.lastSub = time.Time{} // the lease is half gone
				e.owner.topicMaintain()
				st := e.owner.pubs.rows[e.ts.row]
				if st == nil || st.class != rowRegister || e.ts.row == e.seq {
					t.Fatalf("the refresh after row %d opened row %d: %+v", e.seq, e.ts.row, st)
				}
				if sent := rowFramesTo(e.tp.all()); sent[e.primary.id] != 1 || sent[e.standby.id] != 1 {
					t.Errorf("the refresh sent %v, want a TopicSub to each member", sent)
				}
			},
			ticks: budget + 1, toPrimary: budget + 1, toStandby: budget + 1, retries: 2 * budget,
		},
		{
			name: "registration, unsubscribed while open",
			open: register,
			lose: func(e *env, _ int, f *sent) bool { return dropAccepts(f, e.standby.id) },
			check: func(t *testing.T, e *env, _ int, gone bool) {
				if gone {
					t.Fatal("the row left before the unsubscribe")
				}
				e.owner.unsubscribe(topic)
				for _, st := range e.owner.pubs.rows {
					st.nextAt = time.Now().Add(-time.Millisecond)
				}
				e.owner.repairTick()
				frames := e.play()
				i := slices.IndexFunc(frames, func(f sent) bool { return f.m.Kind == wire.KindTopicUnsub })
				if i < 0 {
					t.Fatal("no TopicUnsub left")
				}
				if sent := rowFramesTo(frames[i:]); len(sent) != 0 {
					t.Errorf("after the TopicUnsub the row still sent %v", sent)
				}
				left(t, e, false)
			},
			ticks: 0, toPrimary: 1, toStandby: 1,
		},
		{
			name: "registration, the set changes while open",
			open: register,
			lose: func(e *env, _ int, f *sent) bool { return dropAccepts(f, e.standby.id) },
			check: func(t *testing.T, e *env, _ int, gone bool) {
				if gone {
					t.Fatal("the row left before the set changed")
				}
				// The subscriber's detector declares the standby dead: the
				// set moves on to the next successor.
				e.owner.deadUntil[e.standby.id] = time.Now().Add(time.Minute)
				set := e.owner.topicRendezvous(topic, time.Now())
				if len(set) != 2 || set[0] != e.primary.id || slices.Contains(e.others, set[1]) {
					t.Fatalf("set %v after the standby's death: want the primary and a peer outside the case", set)
				}
				e.newcomer = set[1]
				e.owner.topicMaintain()
				if sent := rowFramesTo(e.play()); len(sent) != 1 || sent[e.newcomer] != 1 {
					t.Fatalf("the maintain pass sent %v, want one TopicSub to the newcomer %d", sent, e.newcomer)
				}
				left(t, e, true)
			},
			ticks: 0, toPrimary: 1, toStandby: 1, toNew: 1, retries: 1,
		},
		{
			name: "transfer, re-sent until acked, an unsubscribe remembered",
			open: func(t *testing.T, e *env) {
				// others[0] held the registry of others[1:] when the topic
				// moved off it. The members hold none of it yet, and the
				// standby has seen others[2] unsubscribe.
				e.owner, e.class = e.c.Nodes[e.others[0]], rowTransfer
				now := time.Now()
				delete(e.primary.topicReg, topic)
				delete(e.standby.topicReg, topic)
				for _, s := range e.others[1:] {
					e.owner.registerTopicSub(topic, s, now)
				}
				e.standby.dropTopicSub(topic, e.others[2], 1, now)
				e.owner.topicMaintain()
				for seq, st := range e.owner.pubs.rows {
					if st.class == rowTransfer {
						e.seq = seq
					}
				}
			},
			lose: func(e *env, ticks int, f *sent) bool { return ticks == 0 && dropAccepts(f, e.standby.id) },
			check: func(t *testing.T, e *env, _ int, gone bool) {
				if !gone {
					if e.owner.TopicSubscribers(topic) != 3 {
						t.Error("the owner dropped the registry while its row was open")
					}
					return
				}
				p, s, o := e.primary.TopicSubscribers(topic), e.standby.TopicSubscribers(topic), e.owner.TopicSubscribers(topic)
				if p != 3 || s != 2 || o != 0 {
					t.Errorf("registrations: primary %d, standby %d, the old owner %d; want 3, 2, 0", p, s, o)
				}
				if late, ho := e.met.Get(obs.CTopicUnsubLate), e.met.Get(obs.CTopicHandoff); late != 2 || ho != 1 {
					t.Errorf("topic_unsub_late = %d, topic_handoff = %d; want 2 (one per frame to the standby), 1", late, ho)
				}
			},
			ticks: 1, toPrimary: 1, toStandby: 2, retries: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			met := obs.New()
			_, c, tp := frozenCluster(t, 60, 53, Options{Obs: met, RetryBase: time.Second, RetryBudget: budget, TopicLease: 30 * time.Second})
			now := time.Now()
			set := c.Nodes[0].TopicRendezvous(topic)
			if len(set) != 2 {
				t.Fatalf("rendezvous %v, want a primary and a standby", set)
			}
			e := &env{c: c, tp: tp, met: met, primary: c.Nodes[set[0]], standby: c.Nodes[set[1]], newcomer: -1}
			for p := overlay.PeerID(0); len(e.others) < 4; p++ {
				if !slices.Contains(set, p) {
					e.others = append(e.others, p)
				}
			}
			e.owner, e.silent = c.Nodes[e.others[0]], e.others[1]
			for _, r := range set {
				for _, s := range e.others[1:] {
					c.Nodes[r].registerTopicSub(topic, s, now)
				}
			}
			ticks := 0
			// A pass of the network carries frames until none is left,
			// the held acks included.
			e.play = func() (frames []sent) {
				for {
					frames = append(frames, playInbox(c, tp, func(f *sent) bool { return tc.lose != nil && tc.lose(e, ticks, f) })...)
					if !flushHeld(c) {
						e.frames = append(e.frames, frames...)
						return frames
					}
				}
			}
			if tc.open == nil {
				publish(t, e)
			} else {
				tc.open(t, e)
			}
			for {
				e.play()
				if tc.check != nil {
					tc.check(t, e, ticks, e.owner.pubs.rows[e.seq] == nil)
				}
				st := e.owner.pubs.rows[e.seq]
				if st == nil {
					break
				}
				pending := 0
				if e.class == rowHandoff {
					pending = 1
				}
				if st.class != e.class || e.owner.PendingTopicPublishes() != pending || (pending == 0 && e.owner.PendingRepairs() != 0) {
					t.Fatalf("row %d: class %d, %d hand-offs and %d publication rows pending", e.seq, st.class, e.owner.PendingTopicPublishes(), e.owner.PendingRepairs())
				}
				if e.ts != nil && e.ts.acked {
					t.Fatal("Subscribe returned while its row was open")
				}
				if ticks > budget+1 {
					t.Fatalf("the row outlived %d repair ticks", ticks)
				}
				st.nextAt = time.Now().Add(-time.Millisecond)
				e.owner.repairTick()
				ticks++
			}
			if e.early {
				t.Error("the row left before the last acceptance reached it")
			}
			sent := rowFramesTo(e.frames)
			if ticks != tc.ticks || sent[e.primary.id] != tc.toPrimary || sent[e.standby.id] != tc.toStandby || sent[e.newcomer] != tc.toNew {
				t.Errorf("the row left after %d ticks, frames to the primary %d, to the standby %d, to a newcomer %d; want %d, %d, %d, %d",
					ticks, sent[e.primary.id], sent[e.standby.id], sent[e.newcomer], tc.ticks, tc.toPrimary, tc.toStandby, tc.toNew)
			}
			if got := met.Get(obs.CRetrySent); got != int64(tc.retries) {
				t.Errorf("retry_sent = %d, want %d", got, tc.retries)
			}
			dl := e.owner.DeadLetters()
			switch {
			case !tc.deadLetter && len(dl) != 0:
				t.Errorf("dead letters %+v, want none", dl)
			case tc.deadLetter && (len(dl) != 1 || dl[0].Publisher != e.owner.id || dl[0].Seq != e.seq || !slices.Equal(dl[0].Missing, set) || dl[0].Retries != budget):
				t.Errorf("dead letters %+v, want one naming %d/%d, missing %v, after %d retries", dl, e.owner.id, e.seq, set, budget)
			}
			if got, want := met.Get(obs.CDeadLetter), int64(len(dl)); got != want {
				t.Errorf("dead_letter = %d, %d recorded", got, want)
			}
		})
	}
}

// TestSubscribeWaitsForWholeSet: Subscribe returns once every member of
// the rendezvous set holds the registration, not on the first acceptance.
// The standby's first TopicSub is lost; the primary's acceptance does not
// release the call, the row's retry reaches the standby, and its
// acceptance does. The registration is then where a primary death needs
// it: the primary dies before its tree copy of the next publication
// leaves, and the subscriber gets the publication from the standby's
// replica row.
func TestSubscribeWaitsForWholeSet(t *testing.T) {
	const topic = "#whole"
	_, c, tp := frozenCluster(t, 60, 61, Options{RetryBase: time.Second, TopicLease: 30 * time.Second})
	set := c.Nodes[0].TopicRendezvous(topic)
	if len(set) != 2 {
		t.Fatalf("rendezvous %v, want a primary and a standby", set)
	}
	primary, standby := c.Nodes[set[0]], c.Nodes[set[1]]
	var others []overlay.PeerID
	for p := overlay.PeerID(0); len(others) < 2; p++ {
		if !slices.Contains(set, p) {
			others = append(others, p)
		}
	}
	sub, pub := c.Nodes[others[0]], c.Nodes[others[1]]

	done := subscribeFrozen(t, sub, topic)
	lost := false
	playInbox(c, tp, func(f *sent) bool {
		if f.m.Kind == wire.KindTopicSub && f.hop == int32(standby.id) && !lost {
			lost = true
			return true
		}
		return false
	})
	if !lost || primary.TopicSubscribers(topic) != 1 || standby.TopicSubscribers(topic) != 0 {
		t.Fatalf("first round: standby's TopicSub lost %v, registrations at the primary %d, at the standby %d",
			lost, primary.TopicSubscribers(topic), standby.TopicSubscribers(topic))
	}
	select {
	case <-done:
		t.Fatal("Subscribe returned on the primary's acceptance alone")
	case <-time.After(50 * time.Millisecond):
	}
	for _, st := range sub.pubs.rows {
		st.nextAt = time.Now().Add(-time.Millisecond)
	}
	sub.repairTick()
	retry := ofKind(playInbox(c, tp, nil), wire.KindTopicSub)
	if len(retry) != 1 || retry[0].hop != int32(standby.id) {
		t.Fatalf("the retry sent %+v, want one TopicSub, to the standby %d", retry, standby.id)
	}
	awaitClosed(t, done, "Subscribe to return on the standby's acceptance")
	if k := standby.TopicSubscribers(topic); k != 1 {
		t.Fatalf("the standby holds %d registrations", k)
	}

	seq, err := pub.Topic(topic).Publish([]byte("whole"))
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(primary.id)
	asleep := func(f *sent) bool { return c.Nodes[f.hop].paused.Load() }
	frames := playInbox(c, tp, asleep)
	if _, ok := sub.received.get(msgID{int32(pub.id), seq}); !ok {
		t.Fatal("the subscriber missed the publication its primary died with")
	}
	for _, f := range ofKind(frames, wire.KindTopicPub) {
		if f.hop == int32(sub.id) && f.m.Target != int32(standby.id) {
			t.Errorf("the subscriber's copy was stamped by %d, want the standby %d", f.m.Target, standby.id)
		}
	}
}

// TestDeadLetterNamesPublication: a dead letter names the publication it
// gave up on. On a rendezvous replica that is the origin (publisher, seq),
// not the replica's private repair seq; a hand-off no member accepted is
// the publisher's own (self, seq).
func TestDeadLetterNamesPublication(t *testing.T) {
	const topic, budget = "#letters", 2
	_, c, tp := frozenCluster(t, 60, 59, Options{RetryBase: time.Second, RetryBudget: budget, TopicLease: 30 * time.Second})
	set := c.Nodes[0].TopicRendezvous(topic)
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
		primary.pubs.rows[rseq].nextAt = time.Now().Add(-time.Millisecond)
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
		pub.pubs.rows[seq].nextAt = time.Now().Add(-time.Millisecond)
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
	set := c.Nodes[0].TopicRendezvous(topic)
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
	standby.flushAcks(time.Now().Add(standby.ackHold()))
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
