package node

import (
	"sort"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/wire"
)

// Ack batching (DESIGN.md §15): under flood load most frames on the wire
// are single-ack control messages — one KindAck per delivery, one
// KindInboxDepositAck per deposit, one KindTopicPubAck per hand-off.
// Instead of sending each immediately, a node buffers ack entries per
// next hop and flushes each bucket as one KindAckBatch frame when the
// shard wheel's tkAckFlush entry fires (~ackFlushEvery after the first
// buffered ack) or when a bucket reaches ackBatchMax. The repair engine
// settles every member seq of a batch in one lock pass.

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

// AckBatchMode selects when the coalescing path is active.
type AckBatchMode int

const (
	// AckBatchAuto enables batching only when the transport exposes raw
	// frame sending (transport.FrameSender — the TCP path). Wrapped
	// transports (faultnet) keep the one-frame-per-ack protocol, so
	// chaos schedules and canonical traces are byte-identical.
	AckBatchAuto AckBatchMode = iota
	// AckBatchOn forces batching regardless of transport.
	AckBatchOn
	// AckBatchOff forces the plain one-frame-per-ack protocol.
	AckBatchOff
)

// queueAck buffers one ack entry toward its destination. direct entries
// go straight to Dest (the deposit/topic-ack point-to-point contracts);
// routed ones take the same greedy next hop the plain KindAck would.
// Called outside n.mu.
func (n *Node) queueAck(e wire.AckEntry, direct bool) {
	hop := overlay.PeerID(e.Dest)
	if !direct {
		var r route
		hop, r = n.nextHop(overlay.PeerID(e.Dest))
		if r != routeOK {
			// Same accounting as forward(): the publisher's ack
			// bookkeeping notices the loss and repairs.
			n.countUnroutable(r, wire.KindAck, e.Seq)
			return
		}
	}
	n.cfg.Obs.Inc(obs.CAckCoalesced)
	var flush []wire.AckEntry
	arm := false
	n.mu.Lock()
	bucket := append(n.ackBuf[hop], e)
	if len(bucket) >= ackBatchMax {
		flush = bucket
		delete(n.ackBuf, hop)
	} else {
		n.ackBuf[hop] = bucket
		if !n.ackFlushArmed {
			n.ackFlushArmed = true
			arm = true
		}
	}
	n.mu.Unlock()
	if flush != nil {
		n.sendAckBatch(hop, flush)
	}
	if arm {
		if n.sh != nil {
			n.sh.scheduleAckFlush(n, time.Now().Add(ackFlushEvery))
		} else {
			// No shard runtime (unit-test node): flush inline.
			n.flushAcks()
		}
	}
}

// flushAcks drains every buffered bucket — the tkAckFlush wheel entry's
// body. One-shot: the entry re-arms on the next queued ack.
func (n *Node) flushAcks() {
	n.mu.Lock()
	n.ackFlushArmed = false
	if len(n.ackBuf) == 0 {
		n.mu.Unlock()
		return
	}
	buf := n.ackBuf
	n.ackBuf = make(map[overlay.PeerID][]wire.AckEntry)
	n.mu.Unlock()
	if n.paused.Load() {
		// Churned out between buffering and flush: the acks die with the
		// pause, exactly like any frame an unresponsive process never sent.
		return
	}
	// Deterministic hop order so a forced-on switchboard run is
	// schedule-independent where it can be.
	hops := make([]overlay.PeerID, 0, len(buf))
	for hop := range buf {
		hops = append(hops, hop)
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	for _, hop := range hops {
		n.sendAckBatch(hop, buf[hop])
	}
}

// sendAckBatch emits one coalesced frame to hop. len(acks) > 0.
func (n *Node) sendAckBatch(hop overlay.PeerID, acks []wire.AckEntry) {
	if n.paused.Load() {
		return
	}
	n.cfg.Obs.Inc(obs.CAckBatchSent)
	_ = n.tr.Send(int32(hop), &wire.Message{
		Kind: wire.KindAckBatch, From: int32(n.id), To: int32(hop), Acks: acks,
	})
}

// handleAckBatch consumes every entry destined for this node in one
// repair-engine lock pass and relays the rest toward their destinations.
func (n *Node) handleAckBatch(m *wire.Message) {
	ibxOn := n.inboxOn()
	now := time.Now()
	var ackN, depN int64
	kickR := false
	n.mu.Lock()
	for _, e := range m.Acks {
		if overlay.PeerID(e.Dest) != n.id {
			continue // relayed below, outside the lock
		}
		switch e.Kind {
		case wire.KindAck:
			n.consumeAckLocked(e.From, e.Pub, e.Seq)
			ackN++
		case wire.KindInboxDepositAck:
			if ibxOn {
				n.consumeDepositAckLocked(e.Pub, e.Seq, e.Target)
				depN++
				kickR = true
			}
		case wire.KindTopicPubAck:
			if e.Pub == int32(n.id) {
				n.consumeTopicPubAckLocked(overlay.PeerID(e.From), e.Seq, now)
				ackN++
				kickR = true
			}
		}
	}
	n.mu.Unlock()
	if ackN > 0 {
		n.cfg.Obs.Addn(obs.CAckReceived, ackN)
	}
	if depN > 0 {
		n.cfg.Obs.Addn(obs.CInboxDepositAck, depN)
	}
	if kickR {
		n.kickRetry()
	}
	for _, e := range m.Acks {
		if overlay.PeerID(e.Dest) != n.id {
			n.relayAckEntry(e)
		}
	}
}

// relayAckEntry moves one not-for-us entry a hop closer. Routed entries
// (KindAck) spend relay budget exactly like the plain frame would —
// except the drop is counted, the plain path's one observability gap.
// When this hop has batching off (mixed-mode defensive path), the entry
// unpacks back to its single-frame form.
func (n *Node) relayAckEntry(e wire.AckEntry) {
	direct := e.Kind != wire.KindAck
	if !direct {
		if e.TTL == 0 {
			n.cfg.Obs.Inc(obs.CAckTTLDrop)
			return
		}
		e.TTL--
	}
	if n.ackBatch {
		n.queueAck(e, direct)
		return
	}
	m := &wire.Message{
		Kind: e.Kind, From: e.From, To: e.Dest, Seq: e.Seq,
		Publisher: e.Pub, Target: e.Target, TTL: e.TTL,
	}
	if direct {
		_ = n.tr.Send(e.Dest, m)
	} else {
		n.forward(m, overlay.PeerID(e.Dest))
	}
}

// ---- consume cores shared by the plain handlers and the batch pass ----

// consumeAckLocked folds one delivery ack (acker from, publication
// pub/seq) into the publisher-side repair state. Callers hold n.mu and
// count CAckReceived.
func (n *Node) consumeAckLocked(from, pub int32, seq uint32) {
	id := msgID{pub, seq}
	set := n.ackedSetLocked(id)
	set[from] = true
	if pub == int32(n.id) {
		n.resolveAckLocked(seq)
	} else if rseq, ok := n.tpOrigin[id]; ok {
		// Topic-rendezvous repair state: the ack is keyed by the origin
		// publisher, the pubState by this node's local repair seq.
		n.resolveAckLocked(rseq)
	}
}

// consumeDepositAckLocked folds one replica persistence confirmation
// into the durable-tier repair state. Callers hold n.mu, gate on
// inboxOn, count CInboxDepositAck and kickRetry after unlocking.
func (n *Node) consumeDepositAckLocked(pub int32, seq uint32, target int32) {
	// The ack echoes the deposit's origin identity; for a topic hand-off
	// the local repair state is keyed by this node's repair seq instead.
	aseq, known := seq, pub == int32(n.id)
	if !known {
		aseq, known = n.tpOrigin[msgID{pub, seq}]
	}
	if !known {
		return
	}
	if st := n.pubs[aseq]; st != nil {
		if ds := st.dep[overlay.PeerID(target)]; ds != nil && !ds.acked {
			ds.acked = true
			n.resolveAckLocked(aseq)
		}
	}
}

// consumeTopicPubAckLocked marks rendezvous member from's acceptance of
// hand-off seq and resolves eagerly when the whole current set acked.
// Callers hold n.mu (publisher role already verified), count
// CAckReceived and kickRetry after unlocking.
func (n *Node) consumeTopicPubAckLocked(from overlay.PeerID, seq uint32, now time.Time) {
	tp := n.tpubs[seq]
	if tp == nil {
		return
	}
	tp.acked[from] = true
	// Resolve eagerly so nextRepairAt can drop the entry.
	set := n.topicRendezvousLocked(tp.topic, now)
	all := len(set) > 0
	for _, rep := range set {
		if !tp.acked[rep] {
			all = false
			break
		}
	}
	if all {
		delete(n.tpubs, seq)
		n.cfg.Obs.TraceEvent("topic_pub_resolved", int32(n.id), seq)
	}
}
