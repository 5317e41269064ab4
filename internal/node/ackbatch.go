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
// one wire.AckEntry, and the only frame that carries entries is
// KindAckBatch: a node buffers them per next hop and flushes a bucket as
// one frame. The flush rule follows the dissemination
// tree. A handler that forwarded none of its frame's destinations onward
// has nothing to wait for, and the bucket its ack lands in leaves at
// once, with whatever was waiting there. A node that did forward arms the
// shard wheel's tkAckFlush entry (~ackFlushEvery), so the acks of the
// peers beyond it — tree leaves answer at once — ride the same frame as
// its own. A bucket that reaches ackBatchMax leaves early. A topic
// replica passes the subscriber acks it consumes on to its fellow
// replicas (consumeAck) on the timed flush too.

const (
	// ackFlushEvery is the longest an ack may sit buffered before its
	// batch is flushed — about one timer-wheel tick.
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

// ackBucket is the buffered entries bound for one next hop. Buckets live
// in Node.ackBuckets in order of first use since the last timed flush,
// which is the order they are flushed in — deterministic without a sort
// — and a flushed bucket keeps its storage for the next entry.
type ackBucket struct {
	hop  overlay.PeerID
	acks []wire.AckEntry
}

// queueAck buffers one routed ack (KindAck) toward e.Dest by the greedy
// next hop. leaf says the caller forwarded nothing onward: the entry's
// bucket is flushed at once.
func (n *Node) queueAck(e wire.AckEntry, leaf bool) {
	dest, hops := [1]overlay.PeerID{e.Dest}, [1]overlay.PeerID{}
	n.routeBatch(dest[:], hops[:], -1)
	if hops[0] < 0 {
		// The publisher's ack bookkeeping notices the loss and repairs.
		n.countUnroutable(verdictOf(hops[0]), wire.KindAck, e.Seq)
		return
	}
	if leaf {
		n.cfg.Obs.Inc(obs.CAckLeafFlush)
	}
	n.bufferAck(hops[0], e, leaf)
}

// directAck sends one point-to-point ack — the deposit, topic-ack and
// set-row acceptance contracts — straight to e.Dest. Nothing answers
// through this node on such a path, so the entry never waits.
func (n *Node) directAck(e wire.AckEntry) {
	n.cfg.Obs.Inc(obs.CAckLeafFlush)
	n.bufferAck(overlay.PeerID(e.Dest), e, true)
}

// ackBucket returns hop's bucket, opening one at the end of the
// list — in a slot the last timed flush vacated, if there is one, whose
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
// replay batch — as one frame, at once: nothing answers through this node
// on such a path, so they wait for nothing, and they pass by the buckets.
func (n *Node) directAcks(hop overlay.PeerID, acks []wire.AckEntry) {
	if len(acks) == 0 {
		return
	}
	n.cfg.Obs.Addn(obs.CAckCoalesced, int64(len(acks)))
	n.cfg.Obs.Inc(obs.CAckLeafFlush)
	n.sendAcks(hop, acks)
}

// bufferAck appends e to hop's bucket and flushes the bucket if it is
// full or atOnce is set; otherwise the entry waits for the timed flush,
// which the first waiting entry arms.
func (n *Node) bufferAck(hop overlay.PeerID, e wire.AckEntry, atOnce bool) {
	n.cfg.Obs.Inc(obs.CAckCoalesced)
	b := n.ackBucket(hop)
	b.acks = append(b.acks, e)
	switch {
	// A node without a shard runtime (unit tests) has no wheel to wait on.
	case atOnce || len(b.acks) >= ackBatchMax || n.sh == nil:
		n.sendBucket(b)
	case !n.ackFlushArmed:
		n.ackFlushArmed = true
		n.sh.scheduleAckFlush(n, time.Now().Add(ackFlushEvery))
	}
}

// flushAcks drains every buffered bucket — the tkAckFlush wheel entry's
// body. One-shot: the entry re-arms on the next entry that waits.
func (n *Node) flushAcks() {
	n.ackFlushArmed = false
	for i := range n.ackBuckets {
		if b := &n.ackBuckets[i]; len(b.acks) > 0 {
			n.sendBucket(b)
		}
	}
	n.ackBuckets = n.ackBuckets[:0]
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

// handleAckBatch consumes every entry destined for this node and relays
// the rest toward their destinations. The replay acks among them — a
// subscriber answers one replay frame with one ack frame — are cleared
// from the journal with one write per subscriber, and the drain's next
// batch leaves when they were the last it was waiting for.
func (n *Node) handleAckBatch(m *wire.Message) {
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
	for _, e := range m.Acks {
		if overlay.PeerID(e.Dest) != n.id {
			relay = true // below
			continue
		}
		switch e.Kind {
		case wire.KindAck:
			// An entry a fellow replica passed on names the subscriber in
			// From, not the frame's sender: it is never passed on again.
			sharedN += int64(n.consumeAck(e, e.From == m.From))
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
				if st := n.pubs[e.Seq]; st != nil && st.setRow() && !slices.Contains(st.accepted, from) {
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
	for acks := m.Acks; relay && len(acks) > 0; {
		k := min(len(acks), ackBatchMax)
		n.relayAcks(acks[:k], overlay.PeerID(m.From))
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
				n.bufferAck(d, e, false)
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
			n.bufferAck(hop, e, false)
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
	n.ackedSet(id)[e.From] = true
	if rseq, ok := n.tpOrigin[id]; ok {
		if st := n.pubs[rseq]; share && st != nil {
			for _, p := range st.peers {
				if p == overlay.PeerID(e.From) {
					continue // the acker is this fellow replica itself
				}
				e.Dest = int32(p)
				n.bufferAck(p, e, false)
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
	if st := n.pubs[aseq]; st != nil {
		if ds := st.dep[overlay.PeerID(target)]; ds != nil && !ds.acked {
			ds.acked = true
			n.resolveAck(aseq)
		}
	}
}
