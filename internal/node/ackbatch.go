package node

import (
	"slices"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/wire"
)

// Ack batching (DESIGN.md §15.1). A delivery ack, a deposit ack, a replay
// ack, a topic hand-off ack and a registration or registry ack are each
// one wire.AckEntry. A node buffers entries per next hop, and a bucket
// leaves as one KindAckBatch frame when its deadline comes — or sooner,
// on any frame this node sends to that hop anyway (send): an ack gates
// no delivery, it only settles the sender's repair row, so it waits for
// company. A delivery ack this node creates (a feed ack, a topic copy's
// ack to the replica that stamped it, a primary's own acks to its
// standbys) may wait ackHold, half the window before the row's earliest
// jittered retry — a feed ack one relay window less per hop its copy
// came, so that it reaches the relays above before their own acks leave;
// an entry this node relays or passes on waits ackFlushEvery, so the
// acks of peers beyond it still ride one frame. What something waits on
// leaves at once: set-row acceptances (Subscribe returns on them),
// deposit acks and replay acks (they pace the drain). A bucket that
// reaches ackBatchMax leaves early.

const (
	// ackFlushEvery is the longest a relayed ack may sit buffered before
	// its batch is flushed — about one timer-wheel tick.
	ackFlushEvery = time.Millisecond
	// ackBatchMax flushes a next-hop bucket early at this many entries.
	ackBatchMax = 64
)

// hbSuppressMax bounds consecutive piggyback-suppressed heartbeats per
// link: every 4th round pings even a busy link, because pongs carry the
// successor/predecessor lists (ring anti-entropy) data frames do not.
const hbSuppressMax = 4

// AckBatchMode is the type of Options.AckBatch, a field that selects
// nothing any more: acks are batched on every transport.
type AckBatchMode int

// AckBatchAuto is AckBatchMode's only value.
const AckBatchAuto AckBatchMode = iota

// ackBucket is the buffered entries bound for one next hop, due to leave
// at due. Buckets live in Node.ackBuckets in order of first use, which is
// the order a timed flush sends them in — deterministic without a sort —
// and a flushed bucket keeps its storage for the next entry.
type ackBucket struct {
	hop  overlay.PeerID
	due  time.Time
	acks []wire.AckEntry
}

// ackHold is how long a delivery ack this node creates may wait for
// company: 3/8 of RetryBase, half the window before the earliest jittered
// first retry (Backoff's −25 %), which leaves the other half for relays
// and transit. Never less than a relayed entry's ackFlushEvery, which is
// also what it is without repair (RetryBase 0).
func (n *Node) ackHold() time.Duration {
	return max(3*n.cfg.RetryBase/8, ackFlushEvery)
}

// queueAck buffers one delivery ack (KindAck) this node created toward
// e.Dest, in the bucket of its greedy next hop. relays is how many relays
// the acked copy passed: the ack waits ackHold less one relay window per
// relay, so a relay's children, which got their copies after it, release
// their acks in time to share its frame.
func (n *Node) queueAck(e wire.AckEntry, relays uint8) {
	dest, hops := [1]overlay.PeerID{e.Dest}, [1]overlay.PeerID{}
	n.routeBatch(dest[:], hops[:], -1)
	if hops[0] < 0 {
		// The publisher's ack bookkeeping notices the loss and repairs.
		n.countUnroutable(verdictOf(hops[0]), wire.KindAck, e.Seq)
		return
	}
	n.bufferAck(hops[0], e, max(n.ackHold()-time.Duration(relays)*ackFlushEvery, ackFlushEvery))
}

// ackBucket returns hop's bucket, opening one at the end of the
// list — in a slot a timed flush vacated, if there is one, whose
// storage it takes over — when hop has none.
func (n *Node) ackBucket(hop overlay.PeerID) *ackBucket {
	for i := range n.ackBuckets {
		if n.ackBuckets[i].hop == hop {
			return &n.ackBuckets[i]
		}
	}
	i := len(n.ackBuckets)
	if i < cap(n.ackBuckets) {
		n.ackBuckets = n.ackBuckets[:i+1]
		n.ackBuckets[i].hop, n.ackBuckets[i].acks = hop, n.ackBuckets[i].acks[:0]
	} else {
		n.ackBuckets = append(n.ackBuckets, ackBucket{hop: hop})
	}
	return &n.ackBuckets[i]
}

// directAcks sends acks — the point-to-point answers to one frame from
// hop that called for several, a deposit naming several subscribers or a
// replay batch — as one frame, at once: the replica's repair row and the
// drain wait on them, and they pass by the buckets.
func (n *Node) directAcks(hop overlay.PeerID, acks []wire.AckEntry) {
	if len(acks) == 0 {
		return
	}
	n.cfg.Obs.Addn(obs.CAckCoalesced, int64(len(acks)))
	n.cfg.Obs.Addn(obs.CAckLeafFlush, int64(len(acks)))
	n.sendAcks(hop, acks)
}

// bufferAck appends e to hop's bucket, which leaves within wait: at once
// when wait is 0 or the bucket is full, else at the bucket's deadline —
// pulled in by e, never pushed out — unless a frame to hop takes it first.
func (n *Node) bufferAck(hop overlay.PeerID, e wire.AckEntry, wait time.Duration) {
	n.cfg.Obs.Inc(obs.CAckCoalesced)
	b := n.ackBucket(hop)
	b.acks = append(b.acks, e)
	// A node without a shard runtime (unit tests) has no wheel to wait on.
	if wait == 0 || len(b.acks) >= ackBatchMax || n.sh == nil {
		if wait == 0 {
			n.cfg.Obs.Inc(obs.CAckLeafFlush)
		}
		n.sendBucket(b)
		return
	}
	due := time.Now().Add(wait)
	if len(b.acks) == 1 || due.Before(b.due) {
		b.due = due
	}
	n.armAckFlush(b.due)
}

// armAckFlush pulls the node's one tkAckFlush wheel entry in to at. It
// is never pushed later: the wheel's Schedule is an upsert, and moving
// the deadline out would starve the buffer under sustained traffic.
func (n *Node) armAckFlush(at time.Time) {
	if n.ackFlushAt.IsZero() || at.Before(n.ackFlushAt) {
		n.ackFlushAt = at
		n.sh.scheduleAckFlush(n, at)
	}
}

// flushAcks sends every bucket due by now and re-arms the wheel entry
// for the earliest deadline left — the tkAckFlush entry's body. Emptied
// buckets leave the list; their slots keep their storage.
func (n *Node) flushAcks(now time.Time) {
	n.ackFlushAt = time.Time{}
	var next time.Time
	k := 0
	for i := range n.ackBuckets {
		b := &n.ackBuckets[i]
		if len(b.acks) > 0 && !b.due.After(now) {
			n.sendBucket(b)
		}
		if len(b.acks) == 0 {
			continue
		}
		if next.IsZero() || b.due.Before(next) {
			next = b.due
		}
		n.ackBuckets[k], n.ackBuckets[i] = n.ackBuckets[i], n.ackBuckets[k]
		k++
	}
	n.ackBuckets = n.ackBuckets[:k]
	if !next.IsZero() {
		n.armAckFlush(next)
	}
}

// heldBucket returns hop's bucket if entries wait in it, else nil.
func (n *Node) heldBucket(hop overlay.PeerID) *ackBucket {
	for i := range n.ackBuckets {
		if b := &n.ackBuckets[i]; b.hop == hop && len(b.acks) > 0 {
			return b
		}
	}
	return nil
}

// sendBucket empties b into one KindAckBatch frame and sends it.
// len(b.acks) > 0.
func (n *Node) sendBucket(b *ackBucket) {
	n.sendAcks(b.hop, b.acks)
	b.acks = b.acks[:0]
}

// sendAcks sends acks to hop as one KindAckBatch frame. The acks of a
// node that churned out between buffering and flush die with the pause,
// like any frame an unresponsive process never sent.
func (n *Node) sendAcks(hop overlay.PeerID, acks []wire.AckEntry) {
	if n.paused.Load() {
		return
	}
	n.send(int32(hop), &wire.Message{Kind: wire.KindAckBatch, From: int32(n.id), To: int32(hop), Acks: acks})
	n.cfg.Obs.Inc(obs.CAckBatchSent)
}

// carriesAcks says whether m, about to leave for a hop, may take that
// hop's buffered entries along: a frame of another kind whose Acks slot
// is free and whose receiver can tell which peer handed it the frame —
// one this node originates, or a publish frame, which names its hop
// (wire.HopFrom).
func (n *Node) carriesAcks(m *wire.Message) bool {
	switch m.Kind {
	case wire.KindAckBatch, wire.KindInboxClaim:
		return false
	case wire.KindPublish:
		return true
	}
	return m.From == int32(n.id)
}

// handleAcks consumes every entry of acks destined for this node and
// relays the rest toward their destinations; hop is the peer that handed
// them over — a KindAckBatch frame's sender, or the sending hop of the
// frame they rode on (handle). The replay acks among them — a
// subscriber answers one replay frame with one ack frame — are cleared
// from the journal with one write per subscriber, and the drain's next
// batch leaves when they were the last it was waiting for.
func (n *Node) handleAcks(acks []wire.AckEntry, hop overlay.PeerID) {
	ibxOn := n.inboxOn()
	now := time.Now()
	var ackN, depN, replayedN, sharedN int64
	kickR, relay := false, false
	var (
		haveBuf [ackBatchMax]inbox.ID
		have    = haveBuf[:0]
		haveOf  overlay.PeerID
	)
	settleReplay := func() {
		replayedN += int64(n.clearReplayed(haveOf, have))
		n.pumpReplay(haveOf, now)
		have = have[:0]
	}
	for _, e := range acks {
		if overlay.PeerID(e.Dest) != n.id {
			relay = true // below
			continue
		}
		switch e.Kind {
		case wire.KindAck:
			// An entry a fellow replica passed on names the subscriber in
			// From, not the frame's sender: it is never passed on again.
			sharedN += int64(n.consumeAck(e, overlay.PeerID(e.From) == hop))
			ackN++
		case wire.KindInboxDepositAck:
			if ibxOn {
				n.consumeDepositAck(e.Pub, e.Seq, e.Target)
				depN++
				kickR = true
			}
		case wire.KindInboxReplayAck:
			if ibxOn {
				if len(have) == cap(have) || (len(have) > 0 && overlay.PeerID(e.Target) != haveOf) {
					settleReplay()
				}
				haveOf = overlay.PeerID(e.Target)
				have = append(have, inbox.ID{Publisher: e.Pub, Seq: e.Seq})
			}
		case wire.KindTopicPubAck, wire.KindTopicSubAck:
			if e.Pub == int32(n.id) {
				// Member e.From accepted set row e.Seq: a hand-off, a
				// registration or a registry. The acceptance goes in the
				// row, never in n.acked (pubState.accepted).
				from := overlay.PeerID(e.From)
				if st := n.pubs.rows[e.Seq]; st != nil && st.setRow() && !slices.Contains(st.accepted, from) {
					st.accepted = append(st.accepted, from)
					n.resolveAck(e.Seq)
				}
				ackN++
				kickR = true
			}
		}
	}
	if len(have) > 0 {
		settleReplay()
		kickR = true
	}
	if ackN > 0 {
		n.cfg.Obs.Addn(obs.CAckReceived, ackN)
	}
	if sharedN > 0 {
		n.cfg.Obs.Addn(obs.CTopicAckShared, sharedN)
	}
	if depN > 0 {
		n.cfg.Obs.Addn(obs.CInboxDepositAck, depN)
	}
	if replayedN > 0 {
		n.cfg.Obs.Addn(obs.CInboxReplayed, replayedN)
	}
	if kickR {
		n.kickRetry()
	}
	for relay && len(acks) > 0 {
		k := min(len(acks), ackBatchMax)
		n.relayAcks(acks[:k], hop)
		acks = acks[k:]
	}
}

// relayAcks moves the not-for-us entries of acks — at most ackBatchMax —
// a hop closer. Routed entries (KindAck) spend relay budget, and are
// routed together: a batch's entries mostly share one destination. They
// never go back to from, the peer that sent the batch (routeBatch). A
// point-to-point entry that ended up here goes on to its Dest.
func (n *Node) relayAcks(acks []wire.AckEntry, from overlay.PeerID) {
	var destBuf, hopBuf [ackBatchMax]overlay.PeerID
	dests := destBuf[:0]
	for _, e := range acks {
		if d := overlay.PeerID(e.Dest); d != n.id && e.Kind == wire.KindAck && e.TTL > 0 && !slices.Contains(dests, d) {
			dests = append(dests, d)
		}
	}
	hops := hopBuf[:len(dests)]
	if len(dests) > 0 {
		n.routeBatch(dests, hops, from)
	}
	for _, e := range acks {
		d := overlay.PeerID(e.Dest)
		switch {
		case d == n.id:
		case e.Kind != wire.KindAck:
			if n.dir.valid(d) {
				n.bufferAck(d, e, ackFlushEvery)
			}
		case e.TTL == 0:
			n.cfg.Obs.Inc(obs.CAckTTLDrop)
		default:
			hop := hops[slices.Index(dests, d)]
			if hop < 0 {
				n.countUnroutable(verdictOf(hop), wire.KindAck, e.Seq)
				continue
			}
			e.TTL--
			n.bufferAck(hop, e, ackFlushEvery)
		}
	}
}

// ---- consume cores of the batch pass ----

// consumeAck folds one delivery ack e into the repair state it settles:
// a topic publication this node holds as a rendezvous replica — looked up
// first, since a publisher may be its own topic's primary, and keyed by
// the origin id while its pubState is keyed by this node's repair seq —
// or one of this node's own publications. A first-hand topic ack (share:
// the subscriber sent it itself) is passed on to the replica's fellow
// members before it can resolve the state that names them (DESIGN.md
// §13.4); consumeAck returns how many entries it passed on. Callers count
// CAckReceived.
func (n *Node) consumeAck(e wire.AckEntry, share bool) (shared int) {
	id := msgID{e.Pub, e.Seq}
	rseq, replica := n.tpOrigin[id]
	var st *pubState
	switch {
	case replica:
		st = n.pubs.rows[rseq]
	case e.Pub == int32(n.id):
		st = n.pubs.rows[e.Seq]
	}
	size := 0
	if st != nil {
		size = len(st.subs) // the row's destinations: every ack it waits for
	}
	n.acked.add(id, e.From, size)
	if replica {
		if share && st != nil {
			for _, p := range st.peers {
				if p == overlay.PeerID(e.From) {
					continue // the acker is this fellow replica itself
				}
				e.Dest = int32(p)
				n.bufferAck(p, e, ackFlushEvery)
				shared++
			}
		}
		n.resolveAck(rseq)
	} else if e.Pub == int32(n.id) {
		n.resolveAck(e.Seq)
	}
	return shared
}

// consumeDepositAck folds one replica persistence confirmation into the
// durable-tier repair state. Callers gate on inboxOn, count
// CInboxDepositAck and kickRetry.
func (n *Node) consumeDepositAck(pub int32, seq uint32, target int32) {
	// The ack echoes the deposit's origin identity; a replica row is keyed
	// by this node's repair seq instead — also when this node published
	// it (consumeAck).
	aseq, known := n.tpOrigin[msgID{pub, seq}]
	if !known {
		aseq, known = seq, pub == int32(n.id)
	}
	if !known {
		return
	}
	if st := n.pubs.rows[aseq]; st != nil {
		if ds := st.depOf(overlay.PeerID(target)); ds != nil && !ds.acked {
			ds.acked = true
			n.resolveAck(aseq)
		}
	}
}
