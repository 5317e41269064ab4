package node

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"selectps/internal/faultnet"
	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/selectcore"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// Tests of the batched durable tier (DESIGN.md §12.2–§12.4): one replay
// frame per journal batch answered by one ack frame, the have-digest a
// claim carries, and one deposit frame per (publication, replica). Most
// run on a frozen cluster and carry the frames by hand, so every frame a
// step sends is counted.

// replayFrame builds the frame replica from sends to for recs.
func replayFrame(from, to overlay.PeerID, recs ...wire.ReplayRecord) *wire.Message {
	m := &wire.Message{
		Kind: wire.KindInboxReplay, From: int32(from), To: int32(to), Target: int32(to),
		Seq: recs[0].Seq, Publisher: recs[0].Publisher, Priority: recs[0].Priority,
		NMutual: int32(len(recs)), HopCount: 1,
	}
	for i := range recs {
		m.Payload = wire.AppendReplayRecord(m.Payload, &recs[i])
	}
	return m
}

// replayAcks lists the replay acks the given ack frames carry.
func replayAcks(frames []sent) []wire.AckEntry {
	var out []wire.AckEntry
	for _, f := range frames {
		for _, e := range f.m.Acks {
			if e.Kind == wire.KindInboxReplayAck {
				out = append(out, e)
			}
		}
	}
	return out
}

// all returns every frame recorded since the last take, and forgets them.
func (t *tap) all() []sent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.frames
	t.frames = nil
	return out
}

// playInbox is the network of a frozen cluster: it hands every frame the
// tap recorded to the node it was sent to, then the frames those handlers
// sent, until nothing more is sent, and returns every frame it saw. lose,
// when not nil, may edit a frame on its way, or report true to drop it.
func playInbox(c *Cluster, tp *tap, lose func(f *sent) bool) []sent {
	var seen []sent
	for frames := tp.all(); len(frames) > 0; frames = tp.all() {
		for i := range frames {
			f := &frames[i]
			seen = append(seen, sent{f.hop, f.m.Clone()})
			if lose == nil || !lose(f) {
				c.Nodes[f.hop].handle(f.m)
			}
		}
	}
	return seen
}

func ofKind(frames []sent, kind wire.Kind) []sent {
	var out []sent
	for _, f := range frames {
		if f.m.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

// hold journals recs on rep for target, as deposits would have.
func hold(t *testing.T, rep *Node, target overlay.PeerID, recs ...inbox.Record) {
	t.Helper()
	for _, r := range recs {
		r.Replica, r.Target = int32(rep.id), int32(target)
		if fresh, err := rep.sh.ibx.Deposit(r); err != nil || !fresh {
			t.Fatalf("deposit %d/%d on %d: fresh=%v err=%v", r.Publisher, r.Seq, rep.id, fresh, err)
		}
	}
}

func heldFor(rep *Node, target overlay.PeerID) int {
	return rep.sh.ibx.PendingFor(int32(rep.id), int32(target))
}

func claimFrame(sub, rep overlay.PeerID, seq uint32, have ...wire.AckEntry) *wire.Message {
	return &wire.Message{Kind: wire.KindInboxClaim, From: int32(sub), To: int32(rep), Seq: seq, Target: int32(sub), Acks: have}
}

// heard counts app-level deliveries per (publisher, seq) on one node of a
// frozen cluster (handlers run on the test goroutine), in order.
type heard struct {
	got   map[msgID]int
	order []Delivery
}

func hearOn(n *Node) *heard {
	h := &heard{got: make(map[msgID]int)}
	n.OnDeliver(func(d Delivery) {
		h.got[msgID{int32(d.Publisher), d.Seq}]++
		h.order = append(h.order, d)
	})
	return h
}

func (h *heard) exactlyOnce(t *testing.T, want int) {
	t.Helper()
	if len(h.got) != want {
		t.Errorf("the app heard %d publications, want %d", len(h.got), want)
	}
	for id, k := range h.got {
		if k != 1 {
			t.Errorf("the app heard %d/%d %d times", id.Publisher, id.Seq, k)
		}
	}
}

var inboxFrozen = Options{RetryBase: 10 * time.Millisecond, Inbox: true}

// TestReplayBatchDrainsInOrder: a 100-record inbox leaves in
// ⌈100/replayBatchMax⌉ frames, acked in as many, HIGH before MEDIUM before
// LOW across the batch boundaries and first in first out inside a class.
func TestReplayBatchDrainsInOrder(t *testing.T) {
	met := obs.New()
	opts := inboxFrozen
	opts.Obs = met
	_, c, tp := frozenCluster(t, 40, 5, opts)
	rep, sub := c.Nodes[1], c.Nodes[7]
	const total, pub = 100, 3
	for seq := uint32(1); seq <= total; seq++ {
		hold(t, rep, sub.id, inbox.Record{Publisher: pub, Seq: seq, Priority: uint8(seq % 3), PayloadSize: 1, Payload: []byte{byte(seq)}})
	}
	h := hearOn(sub)
	rep.handle(claimFrame(sub.id, rep.id, 5))
	frames := playInbox(c, tp, nil)

	wantFrames := (total + replayBatchMax - 1) / replayBatchMax
	replays := ofKind(frames, wire.KindInboxReplay)
	if len(replays) != wantFrames {
		t.Errorf("%d records left in %d replay frames, want %d", total, len(replays), wantFrames)
	}
	for i, f := range replays {
		if want := min(replayBatchMax, total-i*replayBatchMax); int(f.m.NMutual) != want {
			t.Errorf("replay frame %d carries %d records, want %d", i, f.m.NMutual, want)
		}
	}
	if acks := ofKind(frames, wire.KindAckBatch); len(acks) != wantFrames || len(replayAcks(acks)) != total {
		t.Errorf("%d ack frames carrying %d replay acks, want %d carrying %d", len(acks), len(replayAcks(acks)), wantFrames, total)
	}
	if leases := ofKind(frames, wire.KindInboxLease); len(leases) != 2 || leases[0].m.NMutual != total || leases[1].m.NMutual != 0 {
		t.Errorf("lease notices %+v, want the grant for %d and the drained notice", leases, total)
	}
	h.exactlyOnce(t, total)
	for i := 1; i < len(h.order); i++ {
		a, b := h.order[i-1], h.order[i]
		if a.Priority > b.Priority || (a.Priority == b.Priority && a.Seq > b.Seq) {
			t.Fatalf("delivery %d (class %d, seq %d) came before delivery %d (class %d, seq %d)", i-1, a.Priority, a.Seq, i, b.Priority, b.Seq)
		}
	}
	if d := c.InboxDepth(); d != 0 || rep.replay.by[sub.id] != nil {
		t.Errorf("journal depth %d, drain still open: %v", d, rep.replay.by[sub.id] != nil)
	}
	for _, want := range []struct {
		c obs.Counter
		v int64
	}{
		{obs.CInboxReplay, total}, {obs.CInboxReplayFrame, int64(wantFrames)}, {obs.CInboxReplayed, total},
		{obs.CInboxReplaySelf, 0}, {obs.CInboxReplayMalformed, 0},
	} {
		if got := met.Get(want.c); got != want.v {
			t.Errorf("%v = %d, want %d", want.c, got, want.v)
		}
	}

	// A frame whose container does not add up is dropped whole: nothing is
	// delivered, nothing acked, and the count says so.
	bad := replayFrame(rep.id, sub.id, wire.ReplayRecord{Publisher: pub, Seq: 500}, wire.ReplayRecord{Publisher: pub, Seq: 501})
	for _, spoil := range []func(m *wire.Message){
		func(m *wire.Message) { m.NMutual = 3 },
		func(m *wire.Message) { m.NMutual = 0 },
		func(m *wire.Message) { m.NMutual = replayBatchMax + 1 },
		func(m *wire.Message) { m.Payload = m.Payload[:len(m.Payload)-1] },
	} {
		m := bad.Clone()
		spoil(m)
		sub.handle(m)
	}
	if got := met.Get(obs.CInboxReplayMalformed); got != 4 || len(h.got) != total || len(tp.all()) != 0 {
		t.Errorf("malformed replay frames: counted %d of 4, the app heard %d, frames were sent in answer", got, len(h.got)-total)
	}
}

// TestReplayBatchPartialAck: an ack frame that loses one entry leaves that
// one record outstanding; it alone is re-sent, and the app hears every
// record once.
func TestReplayBatchPartialAck(t *testing.T) {
	met := obs.New()
	opts := inboxFrozen
	opts.Obs = met
	_, c, tp := frozenCluster(t, 40, 5, opts)
	rep, sub := c.Nodes[1], c.Nodes[7]
	const total, pub, lost = 10, 3, 4
	for seq := uint32(1); seq <= total; seq++ {
		hold(t, rep, sub.id, inbox.Record{Publisher: pub, Seq: seq, Priority: inbox.Medium})
	}
	h := hearOn(sub)
	rep.handle(claimFrame(sub.id, rep.id, 5))
	frames := playInbox(c, tp, func(f *sent) bool {
		if f.m.Kind == wire.KindAckBatch {
			f.m.Acks = slices.DeleteFunc(f.m.Acks, func(e wire.AckEntry) bool { return e.Seq == lost })
		}
		return false
	})
	if n := len(ofKind(frames, wire.KindInboxReplay)); n != 1 {
		t.Fatalf("%d replay frames before the resend timer, want the one batch", n)
	}
	rs := rep.replay.by[sub.id]
	if rs == nil || len(rs.out) != 1 || rs.out[0].Seq != lost || heldFor(rep, sub.id) != 1 {
		t.Fatalf("after an ack frame short of one entry: drain %+v, %d records held; want seq %d outstanding alone", rs, heldFor(rep, sub.id), lost)
	}
	rs.nextAt = time.Now().Add(-time.Millisecond)
	rep.repairTick()
	frames = playInbox(c, tp, nil)
	if replays := ofKind(frames, wire.KindInboxReplay); len(replays) != 1 || replays[0].m.NMutual != 1 || replays[0].m.Seq != lost {
		t.Errorf("the resend: %d frames, first %+v; want one frame carrying seq %d alone", len(replays), replays, lost)
	}
	h.exactlyOnce(t, total)
	if heldFor(rep, sub.id) != 0 || rep.replay.by[sub.id] != nil {
		t.Errorf("%d records held, drain open %v after the resend was acked", heldFor(rep, sub.id), rep.replay.by[sub.id] != nil)
	}
	if got := met.Get(obs.CInboxReplay); got != total+1 {
		t.Errorf("inbox_replay = %d, want %d records and one re-sent", got, total)
	}
}

// TestReplayDrainParksAtBudget: a replay batch the subscriber never acks
// is re-sent on the repair engine's backoff, exactly RetryBudget times;
// then the drain parks with the records still in the journal, and the
// maintain tick's sweep replays them, once, when the subscriber answers. A
// drain whose subscriber leaves the ring parks at its next deadline
// without a re-send.
func TestReplayDrainParksAtBudget(t *testing.T) {
	const budget, total, pub = 3, 5, 3
	met := obs.New()
	opts := inboxFrozen
	opts.Obs, opts.RetryBudget = met, budget
	_, c, tp := frozenCluster(t, 40, 5, opts)
	rep, sub := c.Nodes[1], c.Nodes[7]
	for seq := uint32(1); seq <= total; seq++ {
		hold(t, rep, sub.id, inbox.Record{Publisher: pub, Seq: seq, Priority: inbox.Medium})
	}
	rep.handle(claimFrame(sub.id, rep.id, 5))
	if replays := tp.take(wire.KindInboxReplay); len(replays) != 1 || replays[0].m.NMutual != total {
		t.Fatalf("replay frames %+v, want one batch of %d", replays, total)
	}
	bo := rep.backoff()
	resends := 0
	for rs := rep.replay.by[sub.id]; rs != nil; rs = rep.replay.by[sub.id] {
		if resends > budget {
			t.Fatalf("the drain is still open after %d re-sends", resends)
		}
		rs.nextAt = time.Now().Add(-time.Millisecond)
		at := time.Now()
		rep.repairTick()
		replays := tp.take(wire.KindInboxReplay)
		if len(replays) == 0 {
			continue
		}
		resends += len(replays)
		if replays[0].m.NMutual != total {
			t.Errorf("re-send %d carries %d records, want %d", resends, replays[0].m.NMutual, total)
		}
		// The next deadline is the engine's delay for this attempt.
		if d, want := rs.nextAt.Sub(at), bo.Delay(rep.drainSeed(sub.id), rs.attempt); d < want || d > want+100*time.Millisecond {
			t.Errorf("re-send %d: next one in %v, want %v", resends, d, want)
		}
	}
	if resends != budget || heldFor(rep, sub.id) != total {
		t.Fatalf("the drain parked after %d re-sends with %d records held; want %d re-sends, %d held", resends, heldFor(rep, sub.id), budget, total)
	}

	h := hearOn(sub)
	rep.inboxSweep()
	frames := playInbox(c, tp, nil)
	if replays := ofKind(frames, wire.KindInboxReplay); len(replays) != 1 || replays[0].m.NMutual != total {
		t.Errorf("the sweep sent %d replay frames, want one batch of %d", len(replays), total)
	}
	h.exactlyOnce(t, total)
	if heldFor(rep, sub.id) != 0 || rep.replay.by[sub.id] != nil {
		t.Errorf("%d records held, drain open %v after the sweep's batch was acked", heldFor(rep, sub.id), rep.replay.by[sub.id] != nil)
	}

	for seq := uint32(total + 1); seq <= total+2; seq++ {
		hold(t, rep, sub.id, inbox.Record{Publisher: pub, Seq: seq, Priority: inbox.Medium})
	}
	rep.handle(claimFrame(sub.id, rep.id, 6))
	tp.all() // the batch is lost, and the subscriber leaves the ring
	c.dir.setMember(sub.id, false)
	rep.replay.by[sub.id].nextAt = time.Now().Add(-time.Millisecond)
	rep.repairTick()
	if replays := tp.take(wire.KindInboxReplay); len(replays) != 0 || rep.replay.by[sub.id] != nil || heldFor(rep, sub.id) != 2 {
		t.Errorf("a drain toward a peer that left: %d re-sends, drain open %v, %d records held; want it parked with 2", len(replays), rep.replay.by[sub.id] != nil, heldFor(rep, sub.id))
	}
	c.dir.setMember(sub.id, true)
}

// TestClaimDigestSilencesSecondReplica: two replicas hold the same 50
// records. The one the subscriber claims first replays them; the claim
// the other gets names them all, so it clears its copies and answers "0
// pending" without sending one. The digest speaks for its sender only: the
// same ids held for another subscriber stay.
func TestClaimDigestSilencesSecondReplica(t *testing.T) {
	met := obs.New()
	opts := inboxFrozen
	opts.Obs = met
	_, c, tp := frozenCluster(t, 40, 5, opts)
	sub := c.Nodes[7]
	reps := sub.InboxReplicas()
	if len(reps) != 2 {
		t.Fatalf("replica set %v", reps)
	}
	other := strangers(c, sub, 1, reps...)[0]
	const total, pub = 50, 3
	for seq := uint32(1); seq <= total; seq++ {
		rec := inbox.Record{Publisher: pub, Seq: seq, Priority: inbox.Medium, Payload: []byte("x")}
		for _, r := range reps {
			hold(t, c.Nodes[r], sub.id, rec)
			hold(t, c.Nodes[r], other, rec)
		}
	}
	h := hearOn(sub)
	if !sub.startInboxClaim(time.Now(), sub.dir.position(sub.id)) {
		t.Fatal("no claim cycle opened")
	}
	frames := playInbox(c, tp, nil)

	senders := make(map[int32]int)
	for _, f := range ofKind(frames, wire.KindInboxReplay) {
		senders[f.m.From]++
	}
	wantFrames := (total + replayBatchMax - 1) / replayBatchMax
	if len(senders) != 1 {
		t.Errorf("replay frames by sender %v: want one replica to send all %d and the other none", senders, wantFrames)
	}
	for r, k := range senders {
		if k != wantFrames {
			t.Errorf("replica %d sent %d replay frames, want %d", r, k, wantFrames)
		}
	}
	h.exactlyOnce(t, total)
	for _, r := range reps {
		if k := heldFor(c.Nodes[r], sub.id); k != 0 {
			t.Errorf("replica %d still holds %d records of the subscriber after the claim", r, k)
		}
		if k := heldFor(c.Nodes[r], other); k != total {
			t.Errorf("replica %d holds %d of %d records of another subscriber: the digest cleared them", r, k, total)
		}
	}
	if got := met.Get(obs.CInboxHaveCleared); got != total {
		t.Errorf("inbox_have_cleared = %d, want %d", got, total)
	}
	if got := met.Get(obs.CInboxReplay); got != total {
		t.Errorf("inbox_replay = %d records for %d owed", got, total)
	}
	if sub.claim != nil {
		t.Errorf("the claim cycle is still open at replica %d of %v", sub.claim.idx, sub.claim.order)
	}
}

// TestClaimDigestIsOutsideInput: a digest over the bound drops the claim;
// ids the replica never held clear nothing and the claim is served; a
// claim in the name of a peer that is away, or of no peer, does nothing.
func TestClaimDigestIsOutsideInput(t *testing.T) {
	met := obs.New()
	opts := inboxFrozen
	opts.Obs = met
	_, c, tp := frozenCluster(t, 40, 5, opts)
	rep, sub := c.Nodes[1], c.Nodes[7]
	const total, pub = 5, 3
	var held []wire.AckEntry
	for seq := uint32(1); seq <= total; seq++ {
		hold(t, rep, sub.id, inbox.Record{Publisher: pub, Seq: seq, Priority: inbox.Medium})
		held = append(held, wire.AckEntry{Kind: wire.KindInboxReplayAck, From: int32(sub.id), Pub: pub, Seq: seq, Target: int32(sub.id)})
	}
	untouched := func(what string) {
		t.Helper()
		if frames := tp.all(); len(frames) != 0 || heldFor(rep, sub.id) != total || rep.replay.by[sub.id] != nil {
			t.Fatalf("%s: %d frames sent, %d of %d records held, drain open %v", what, len(frames), heldFor(rep, sub.id), total, rep.replay.by[sub.id] != nil)
		}
	}

	over := slices.Clone(held)
	for len(over) <= claimDigestMax {
		over = append(over, wire.AckEntry{Kind: wire.KindInboxReplayAck, Pub: 30, Seq: uint32(len(over))})
	}
	rep.handle(claimFrame(sub.id, rep.id, 5, over...))
	untouched("a digest of claimDigestMax+1 ids")
	if got := met.Get(obs.CInboxClaimOversize); got != 1 {
		t.Errorf("inbox_claim_oversize = %d, want 1", got)
	}

	c.dir.setMember(sub.id, false)
	rep.handle(claimFrame(sub.id, rep.id, 5, held...))
	untouched("a claim in the name of a peer that is away")
	c.dir.setMember(sub.id, true)
	rep.handle(claimFrame(overlay.PeerID(len(c.Nodes)+3), rep.id, 5, held...))
	rep.handle(claimFrame(-2, rep.id, 5, held...))
	untouched("a claim in the name of no peer")

	rep.handle(claimFrame(sub.id, rep.id, 6, wire.AckEntry{Pub: 30, Seq: 1}, wire.AckEntry{Pub: pub, Seq: total + 1}))
	frames := tp.all()
	leases, replays := ofKind(frames, wire.KindInboxLease), ofKind(frames, wire.KindInboxReplay)
	if len(leases) != 1 || leases[0].m.NMutual != total || len(replays) != 1 || replays[0].m.NMutual != total {
		t.Errorf("a digest of ids never held: leases %+v, replays %+v; want the claim served in full", leases, replays)
	}
	if got := met.Get(obs.CInboxHaveCleared); got != 0 {
		t.Errorf("inbox_have_cleared = %d after digests that named nothing held by a member", got)
	}
}

// TestUnsubscribeMidBatch: the records of a topic the subscriber leaves
// while a batch is outstanding leave the batch and are not sent again;
// the rest of the batch still waits for its acks.
func TestUnsubscribeMidBatch(t *testing.T) {
	met := obs.New()
	opts := inboxFrozen
	opts.Obs = met
	_, c, tp := frozenCluster(t, 40, 5, opts)
	rep, sub := c.Nodes[1], c.Nodes[7]
	const topic, pub = "#gone", 3
	for seq := uint32(1); seq <= 5; seq++ {
		rec := inbox.Record{Publisher: pub, Seq: seq, Priority: inbox.Medium}
		if seq%2 == 1 {
			rec.Topic = []byte(topic)
		}
		hold(t, rep, sub.id, rec)
	}
	rep.handle(claimFrame(sub.id, rep.id, 5))
	if replays := tp.take(wire.KindInboxReplay); len(replays) != 1 || replays[0].m.NMutual != 5 {
		t.Fatalf("replay frames %+v, want one batch of five", replays)
	}
	// The batch is in flight (here: lost) when the unsubscribe arrives.
	rep.handle(&wire.Message{Kind: wire.KindTopicUnsub, From: int32(sub.id), To: int32(rep.id), Seq: 12, Topic: []byte(topic)})
	rs := rep.replay.by[sub.id]
	if frames := tp.all(); len(frames) != 0 || rs == nil || len(rs.out) != 2 || heldFor(rep, sub.id) != 2 || met.Get(obs.CTopicPurged) != 3 {
		t.Fatalf("after the unsubscribe: %d frames sent, drain %+v, %d held, %d purged; want the two feed records outstanding", len(frames), rs, heldFor(rep, sub.id), met.Get(obs.CTopicPurged))
	}
	rs.nextAt = time.Now().Add(-time.Millisecond)
	rep.repairTick()
	replays := tp.take(wire.KindInboxReplay)
	if len(replays) != 1 || replays[0].m.NMutual != 2 {
		t.Fatalf("the resend: %+v, want one frame of two records", replays)
	}
	for rest := replays[0].m.Payload; len(rest) > 0; {
		var r wire.ReplayRecord
		r, rest, _ = wire.NextReplayRecord(rest)
		if len(r.Topic) != 0 {
			t.Errorf("record %d of the departed topic was sent again", r.Seq)
		}
	}
	h := hearOn(sub)
	sub.handle(replays[0].m)
	frames := playInbox(c, tp, nil)
	h.exactlyOnce(t, 2)
	if heldFor(rep, sub.id) != 0 || rep.replay.by[sub.id] != nil || len(ofKind(frames, wire.KindInboxReplay)) != 0 {
		t.Errorf("after the acks of the rest: %d held, drain open %v, %d more replay frames", heldFor(rep, sub.id), rep.replay.by[sub.id] != nil, len(ofKind(frames, wire.KindInboxReplay)))
	}
}

// TestDepositGroupsTargetsPerReplica: one publication owed to five offline
// subscribers that share two replicas leaves in two deposit frames, one
// per replica, each naming all five; every (subscriber, replica) pair is
// journaled and acked, one ack frame per replica; and a retry round names
// only the subscribers whose ack was lost.
func TestDepositGroupsTargetsPerReplica(t *testing.T) {
	met := obs.New()
	opts := inboxFrozen
	opts.Obs = met
	_, c, tp := frozenCluster(t, 40, 5, opts)
	pub := c.Nodes[0]
	// Five neighbours on the ring, all away: their replica sets are the
	// two members after the last of them.
	ring := c.dir.appendRingMembers(nil)
	sort.Slice(ring, func(i, j int) bool { return ring[i].Pos < ring[j].Pos })
	at := slices.IndexFunc(ring, func(m selectcore.RingMember) bool { return m.ID == pub.id })
	var away []overlay.PeerID
	for k := 3; k < 8; k++ {
		away = append(away, ring[(at+k)%len(ring)].ID)
	}
	for _, s := range away {
		c.dir.setMember(s, false)
	}
	reps := pub.inboxReplicaSet(away[0], 2)
	for _, s := range away {
		if got := pub.inboxReplicaSet(s, 2); !slices.Equal(got, reps) {
			t.Fatalf("subscriber %d has replicas %v, subscriber %d %v", s, got, away[0], reps)
		}
	}

	now := time.Now()
	seq := pub.nextSeq()
	pub.registerPublish(seq, away, []byte("x"), 1, inbox.Medium, now)
	st := pub.pubs.rows[seq]
	st.nextAt = now.Add(-time.Millisecond)
	pub.repairTick()

	names := func(f sent) []overlay.PeerID {
		out := []overlay.PeerID{overlay.PeerID(f.m.Target)}
		for _, p := range f.m.RoutingTable {
			out = append(out, overlay.PeerID(p))
		}
		slices.Sort(out)
		return out
	}
	sorted := func(ps []overlay.PeerID) []overlay.PeerID { ps = slices.Clone(ps); slices.Sort(ps); return ps }
	round := func(what string, want []overlay.PeerID) {
		t.Helper()
		deposits := tp.take(wire.KindInboxDeposit)
		var to []overlay.PeerID
		for _, f := range deposits {
			to = append(to, overlay.PeerID(f.hop))
			if got := names(f); !slices.Equal(got, sorted(want)) {
				t.Errorf("%s: the frame for replica %d names %v, want %v", what, f.hop, got, sorted(want))
			}
		}
		if !slices.Equal(sorted(to), sorted(reps)) {
			t.Fatalf("%s: deposit frames went to %v, want one for each of %v", what, to, reps)
		}
		for _, f := range deposits {
			c.Nodes[f.hop].handle(f.m)
		}
	}
	round("first round", away)
	if d := c.InboxDepth(); d != len(away)*len(reps) {
		t.Errorf("journal depth %d, want %d subscribers on %d replicas", d, len(away), len(reps))
	}
	acks := tp.take(wire.KindAckBatch)
	if len(acks) != len(reps) {
		t.Fatalf("%d ack frames for %d deposit frames", len(acks), len(reps))
	}
	lost := away[3:]
	for _, f := range acks {
		if len(f.m.Acks) != len(away) {
			t.Errorf("the ack frame of replica %d carries %d entries, want %d", f.m.From, len(f.m.Acks), len(away))
		}
		f.m.Acks = slices.DeleteFunc(f.m.Acks, func(e wire.AckEntry) bool { return slices.Contains(lost, overlay.PeerID(e.Target)) })
		pub.handle(f.m)
	}
	for _, s := range away {
		if got, want := st.depOf(s).acked, !slices.Contains(lost, s); got != want {
			t.Errorf("subscriber %d: deposit acked = %v, want %v", s, got, want)
		}
	}

	for _, s := range lost {
		st.depOf(s).nextAt = time.Now().Add(-time.Millisecond)
	}
	pub.repairTick()
	round("retry round", lost)
	for _, f := range tp.take(wire.KindAckBatch) {
		pub.handle(f.m)
	}
	if pub.pubs.rows[seq] != nil {
		t.Errorf("the publication is still in repair after every deposit was acked: %+v", pub.pubs.rows[seq].dep)
	}
	if got, want := met.Get(obs.CInboxDepositDup), int64(len(lost)*len(reps)); got != want {
		t.Errorf("inbox_deposit_dup = %d, want %d", got, want)
	}
	if got := met.Get(obs.CDeadLetter); got != 0 {
		t.Errorf("%d dead letters", got)
	}

	// The list is outside input: over the cap, or naming a peer the
	// cluster does not have, the frame is dropped whole.
	depth := c.InboxDepth()
	rep := c.Nodes[reps[0]]
	forged := &wire.Message{Kind: wire.KindInboxDeposit, From: int32(pub.id), To: int32(rep.id), Publisher: int32(pub.id), Seq: 900, Target: int32(away[0])}
	for _, list := range [][]int32{{int32(away[1]), int32(len(c.Nodes))}, {-1}, make([]int32, wire.MaxPublishDests)} {
		m := forged.Clone()
		m.RoutingTable = list
		rep.handle(m)
	}
	if got := met.Get(obs.CPublishDestMalformed); got != 3 || c.InboxDepth() != depth || len(tp.all()) != 0 {
		t.Errorf("forged subscriber lists: %d of 3 counted, journal depth %d → %d", got, depth, c.InboxDepth())
	}
}

// TestReplayBatchUnderLoss runs the batched tier above a network that
// drops, duplicates and reorders its frames: every publication owed to a
// subscriber that was away reaches the app exactly once after it rejoins,
// and the journals drain to empty.
func TestReplayBatchUnderLoss(t *testing.T) {
	const n, seed, posts = 80, 11, 70
	g, ov := buildOverlay(t, n, seed)
	met := obs.New()
	fn := faultnet.Wrap(transport.NewSwitchboard(n, 4096), n, faultnet.Config{
		DropProb: 0.2, DupProb: 0.1, ReorderProb: 0.1,
		Kinds: []wire.Kind{wire.KindInboxDeposit, wire.KindInboxClaim, wire.KindInboxLease, wire.KindInboxReplay, wire.KindAckBatch},
	}, seed)
	fn.Obs = met
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: fn, Seed: seed, Obs: met,
		HeartbeatEvery: 10 * time.Millisecond,
		MaintainEvery:  20 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryBudget:    100,
		Inbox:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)
	pub := topDegree(g)
	victim := g.Neighbors(pub)[0]
	var dc deliveryCounter
	dc.install(c.Nodes[victim])

	c.Crash(victim)
	time.Sleep(50 * time.Millisecond)
	seqs := make([]uint32, posts)
	for i := range seqs {
		seqs[i] = publishPri(c.Nodes[pub], []byte(fmt.Sprint("post ", i)), uint8(i%3))
	}
	waitFor(t, 20*time.Second, "every deposit acked", func() bool {
		return c.Nodes[pub].PendingRepairs() == 0
	})
	if dl := met.Get(obs.CDeadLetter); dl != 0 {
		t.Fatalf("%d dead letters", dl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Rejoin(ctx, victim, pub); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitFor(t, 20*time.Second, "every publication replayed", func() bool { return dc.delivered() == posts })
	waitFor(t, 20*time.Second, "the journals to drain", func() bool { return c.InboxDepth() == 0 })
	for _, s := range seqs {
		if k := dc.count(s); k != 1 {
			t.Errorf("seq %d reached the app %d times", s, k)
		}
	}
	if met.Get(obs.CFaultDrop) == 0 || met.Get(obs.CInboxReplayFrame) >= met.Get(obs.CInboxReplay) {
		t.Errorf("%d frames dropped, %d records in %d replay frames: the run proves nothing",
			met.Get(obs.CFaultDrop), met.Get(obs.CInboxReplay), met.Get(obs.CInboxReplayFrame))
	}
}
