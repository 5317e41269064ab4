// Package obs is the runtime observability layer of the live deployment:
// allocation-disciplined atomic counters for every hot-path event the node
// runtime and the transports emit, lock-free latency/hop histograms that
// export through internal/metrics, and an optional bounded structured
// event trace for post-mortem analysis of a soak run.
//
// Every method is safe on a nil *Metrics — un-instrumented code paths pay
// a single nil check — and safe for concurrent use, so one Metrics can be
// shared by a whole cluster (nodes, transport, fault injector) without
// coordination.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"selectps/internal/metrics"
)

// Counter indexes one well-known event counter. The fixed enumeration
// keeps increments at a single atomic add into a flat array — no map
// lookups, no allocation — which matters on the publish/forward path.
type Counter uint8

// Well-known counters. Grouped by emitter.
const (
	// node: publication path (§III-E directed forwarding).
	CPublishSent      Counter = iota // directed copies sent by publishers
	CPublishForwarded                // copies relayed by intermediate nodes
	CPublishDelivered                // first-time local deliveries
	CPublishDuplicate                // dedup hits (copy already delivered)
	CPublishTTLDrop                  // copies expired by TTL
	CPublishDeadEnd                  // copies stranded with no live next hop
	CRetrySent                       // publisher-driven retransmissions
	CAckReceived                     // acks consumed by publishers

	// node: peer sampling + heartbeats (Algorithms 3–4, §III-F).
	CGossipSent      // Algorithm-3 exchanges initiated
	CGossipReply     // exchange replies consumed
	CHeartbeatSent   // pings sent
	CPongReceived    // pongs received
	CHeartbeatMiss   // pings unanswered by the next heartbeat tick
	CCMADeadSkip     // forwarding skipped a link the CMA marks dead (§III-F recovery)
	CCMARandomWalk   // local-minimum fallback onto a random live link
	CLatePongRecover // late pong healed a link previously counted as a miss

	// transport: delivery accounting (both implementations).
	CTransportSend   // messages handed to a transport
	CDropFullMailbox // dropped: receiver mailbox full (congestion)
	CDropClosed      // dropped: transport already closed / closing race
	CTimerShed       // periodic timer bodies skipped by a backlogged shard

	// transport: TCP connection lifecycle.
	CTCPDial       // fresh connections dialed
	CTCPRedial     // re-dials after a previous write failure evicted the conn
	CTCPWriteError // failed writes (connection evicted)

	// faultnet: injected faults.
	CFaultDrop          // messages dropped by the loss schedule
	CFaultDuplicate     // messages duplicated
	CFaultDelayed       // messages delayed (incl. reorder delays)
	CFaultCrashDrop     // messages dropped at a crashed endpoint
	CFaultPartitionDrop // messages dropped crossing an active partition

	// node: live maintenance protocol (Algorithms 1–2, 5–6 at runtime).
	CJoinRequest  // join requests received by inviters
	CJoinReply    // join admissions granted
	CIDAnnounce   // identifier announcements received
	CIDReassign   // Algorithm-2 identifier moves performed
	CLinkProposal // long-link proposals received
	CLinkAccept   // long-link proposals accepted
	CLinkDrop     // long-link teardowns (reject, eviction, budget shed)
	CLinkEvict    // incoming links evicted for a better-bandwidth proposer
	CLeave        // graceful departures observed

	// node: self-healing engine (DESIGN.md §9).
	CLinkSuspect   // links promoted to suspect by the failure detector
	CLinkDeadEvict // peers declared dead and evicted (long links, ring neighbors, ring candidates)
	CRingSplice    // ring neighbors spliced from the successor list
	CDeadLetter    // publications dead-lettered after the retry budget
	CJoinResend    // join requests re-sent by the retry scheduler

	// transport: TCP data-plane fast path (DESIGN.md §10).
	CTCPQueueDrop      // dropped: per-peer send queue full (backpressure)
	CTCPWriteDrop      // dropped: batch write failed even after the redial retry
	CTCPFlush          // writer flushes issued
	CTCPCoalescedFlush // flushes that carried more than one frame
	CTCPMalformedFrame // frames whose body failed to decode (conn evicted)
	CTCPOversizeFrame  // frames with a zero or oversize length prefix (conn evicted)

	// node: durable delivery tier (DESIGN.md §12).
	CInboxDeposit     // deposits persisted by replicas
	CInboxDepositDup  // duplicate deposits re-acked without re-persisting
	CInboxDepositAck  // deposit acks consumed by publishers
	CInboxDeposited   // per-subscriber copies handed to the durable tier instead of dead-lettered
	CInboxClaim       // replay claims received by replicas
	CInboxLeaseGrant  // leases granted (non-empty inbox claimed)
	CInboxLeaseExpire // lease expiries (claim handed to the next replica)
	CInboxReplay      // replay copies (records, not frames) sent by replicas
	CInboxReplayed    // replayed publications acked and cleared from the journal
	CInboxLogCorrupt  // corrupt journal frames skipped at recovery
	// The replay batch and the claim digest (DESIGN.md §12.4).
	CInboxReplayFrame     // replay frames sent, each a batch of records
	CInboxReplaySelf      // records first sent by a drain no claim started (the deposit-time relay, the sweep)
	CInboxHaveCleared     // records a claim's have-digest cleared from a journal unsent
	CInboxReplayMalformed // replay frames dropped whole: the record container failed its bounds
	CInboxClaimOversize   // claims dropped: the have-digest named more than the bound

	// node: topic pub/sub (DESIGN.md §13).
	CTopicSub         // subscription registrations/lease refreshes received by rendezvous peers
	CTopicUnsub       // unsubscribes received (registry removal or journal purge)
	CTopicPubRecv     // topic publications accepted for fan-out by rendezvous peers
	CTopicFanout      // dissemination-tree copies sent (root branches + interior forwards)
	CTopicDelivered   // topic publications delivered to a local subscriber handler
	CTopicRehome      // rendezvous-set changes observed by subscribers (lease re-registered)
	CTopicHandoff     // registry hand-offs sent by peers that lost rendezvous ownership
	CTopicLeaseExpire // registry entries expired (subscriber stopped refreshing)
	CTopicPurged      // journal records purged by an unsubscribe drain
	CTopicUnsubLate   // registrations, hand-off entries and deposits dropped because they arrived after the unsubscribe they predate
	CTopicAckShared   // first-hand subscriber acks a rendezvous replica passed on to its fellow replicas (entries, not frames)

	// node: adversarial defenses (DESIGN.md §14).
	CSybilRejected    // join admissions dropped by the inviter's rate limit
	CSybilDiverted    // friend joins diverted to their hash position by the arc-occupancy cap
	CEclipseDisplaced // hearsay ring claims blocked from displacing a liveness-verified entry
	CPosRejected      // ring claims rejected by the admission-record position cross-check
	CStrengthClamped  // out-of-range exchange mutual counts detected (hardened: rejected)

	// node/transport: frame-economy fast path (DESIGN.md §15).
	CAckBatchSent      // frames that carried ack entries to a next hop: KindAckBatch frames and piggyback carriers
	CAckCoalesced      // individual ack entries carried inside batches
	CAckTTLDrop        // batched routed-ack entries expired in relay
	CHeartbeatSuppress // heartbeat pings skipped: data traffic already proved liveness
	CHeartbeatProbed   // heartbeat pings skipped: the peer's own ping since the last sweep was this sweep's probe
	CIngressBatch      // envelope batches delivered to shard mailboxes in bulk

	// node: liveness cadence and the quiet control plane (DESIGN.md §8.2,
	// §9.3, §15.2). The cadence_reset_* counters say what keeps a node at
	// the base interval, one per selectcore.CadenceEvent. link and ring
	// change the node's own routing table and reset both the heartbeat and
	// the gossip timer; the other four reset the heartbeat only.
	CCadenceResetMiss       // heartbeat: a heartbeat probe went unanswered
	CCadenceResetDetector   // heartbeat: a link turned suspect or was evicted dead
	CCadenceResetLink       // heartbeat and gossip: a long link was accepted, dropped, evicted or pruned
	CCadenceResetRing       // heartbeat and gossip: a ring head changed or the node moved its own identifier
	CCadenceResetMembership // heartbeat: IDAnnounce/JoinRequest/JoinReply/Leave handled, or a departed peer pruned from the ring view
	CCadenceResetRetry      // heartbeat: a publication reached its second consecutive retry
	CHeartbeatSweep         // heartbeat sweeps run
	CHeartbeatSweepBase     // ...of which at the base interval (level 0)
	CRingHeadChange         // short-range ring links re-derived to a different peer
	CLinkProposalRefused    // proposals answered with LinkDrop (target's incoming cap full) and remembered
	CPublishOfflineSkip     // publication copies not sent: the target is not a ring member
	CAckOfflineDrop         // acks dropped: the publisher is not a ring member

	// node: tree dissemination and the one ack path (DESIGN.md §10.3, §15.1).
	CPublishFrame         // KindPublish frames emitted by the fan-out, publisher and relays (publish_sent, publish_forwarded and retry_sent count copies)
	CPublishDestMalformed // KindPublish or KindInboxDeposit frames whose destination list was over the cap or out of range (dropped), KindPublish frames that named a peer twice (served once)
	CAckLeafFlush         // ack entries sent at once: something waits on them (acceptances, deposit and replay acks)
	CAckBounceDrop        // relayed acks dropped: the only way on was the peer they came from
	CAckPiggyback         // ack entries that left on a frame of another kind going to their hop

	// node: which rule of the routing pass chose the next hop, one count
	// per destination of a publish frame or ack batch (DESIGN.md §10.3);
	// route_walk is cma_random_walk under the name of the rule. The two
	// publish counters are the inbound hop's (split horizon, §14.1).
	CRouteDirect         // the destination is a link
	CRouteLookahead      // a live link's cached routing table holds the destination
	CRouteGreedy         // the live link nearest the destination, nearer than this node
	CRouteWalk           // local minimum: a random live link
	CPublishBounceDrop   // publication copies dropped: the only way on was the peer they came from
	CPublishHopMalformed // KindPublish frames dropped: the inbound-hop slot named no peer of this cluster, or the receiver

	numCounters
)

var counterNames = [numCounters]string{
	CPublishSent:      "publish_sent",
	CPublishForwarded: "publish_forwarded",
	CPublishDelivered: "publish_delivered",
	CPublishDuplicate: "publish_duplicate",
	CPublishTTLDrop:   "publish_ttl_drop",
	CPublishDeadEnd:   "publish_dead_end",
	CRetrySent:        "retry_sent",
	CAckReceived:      "ack_received",

	CGossipSent:      "gossip_sent",
	CGossipReply:     "gossip_reply",
	CHeartbeatSent:   "heartbeat_sent",
	CPongReceived:    "pong_received",
	CHeartbeatMiss:   "heartbeat_miss",
	CCMADeadSkip:     "cma_dead_skip",
	CCMARandomWalk:   "cma_random_walk",
	CLatePongRecover: "late_pong_recover",

	CTransportSend:   "transport_send",
	CDropFullMailbox: "drop_full_mailbox",
	CDropClosed:      "drop_closed",
	CTimerShed:       "timer_shed",

	CTCPDial:       "tcp_dial",
	CTCPRedial:     "tcp_redial",
	CTCPWriteError: "tcp_write_error",

	CFaultDrop:          "fault_drop",
	CFaultDuplicate:     "fault_duplicate",
	CFaultDelayed:       "fault_delayed",
	CFaultCrashDrop:     "fault_crash_drop",
	CFaultPartitionDrop: "fault_partition_drop",

	CJoinRequest:  "join_request",
	CJoinReply:    "join_reply",
	CIDAnnounce:   "id_announce",
	CIDReassign:   "id_reassign",
	CLinkProposal: "link_proposal",
	CLinkAccept:   "link_accept",
	CLinkDrop:     "link_drop",
	CLinkEvict:    "link_evict",
	CLeave:        "leave",

	CLinkSuspect:   "link_suspect",
	CLinkDeadEvict: "link_dead_evict",
	CRingSplice:    "ring_splice",
	CDeadLetter:    "dead_letter",
	CJoinResend:    "join_resend",

	CTCPQueueDrop:      "tcp_send_queue_drop",
	CTCPWriteDrop:      "tcp_write_drop",
	CTCPFlush:          "tcp_flush",
	CTCPCoalescedFlush: "tcp_coalesced_flush",
	CTCPMalformedFrame: "tcp_malformed_frame",
	CTCPOversizeFrame:  "tcp_oversize_frame",

	CInboxDeposit:     "inbox_deposit",
	CInboxDepositDup:  "inbox_deposit_dup",
	CInboxDepositAck:  "inbox_deposit_ack",
	CInboxDeposited:   "inbox_deposited",
	CInboxClaim:       "inbox_claim",
	CInboxLeaseGrant:  "inbox_lease_grant",
	CInboxLeaseExpire: "inbox_lease_expire",
	CInboxReplay:      "inbox_replay",
	CInboxReplayed:    "inbox_replayed",
	CInboxLogCorrupt:  "inbox_log_corrupt",

	CInboxReplayFrame:     "inbox_replay_frame",
	CInboxReplaySelf:      "inbox_replay_self",
	CInboxHaveCleared:     "inbox_have_cleared",
	CInboxReplayMalformed: "inbox_replay_malformed",
	CInboxClaimOversize:   "inbox_claim_oversize",

	CTopicSub:         "topic_sub",
	CTopicUnsub:       "topic_unsub",
	CTopicPubRecv:     "topic_pub_recv",
	CTopicFanout:      "topic_fanout",
	CTopicDelivered:   "topic_delivered",
	CTopicRehome:      "topic_rehome",
	CTopicHandoff:     "topic_handoff",
	CTopicLeaseExpire: "topic_lease_expire",
	CTopicPurged:      "topic_purged",
	CTopicUnsubLate:   "topic_unsub_late",
	CTopicAckShared:   "topic_ack_shared",

	CSybilRejected:    "sybil_rejected",
	CSybilDiverted:    "sybil_diverted",
	CEclipseDisplaced: "eclipse_displaced",
	CPosRejected:      "pos_rejected",
	CStrengthClamped:  "strength_clamped",

	CAckBatchSent:      "ack_batch_sent",
	CAckCoalesced:      "ack_coalesced",
	CAckTTLDrop:        "ack_ttl_drop",
	CHeartbeatSuppress: "heartbeat_suppressed",
	CHeartbeatProbed:   "heartbeat_peer_probed",
	CIngressBatch:      "ingress_batch",

	CCadenceResetMiss:       "cadence_reset_miss",
	CCadenceResetDetector:   "cadence_reset_detector",
	CCadenceResetLink:       "cadence_reset_link",
	CCadenceResetRing:       "cadence_reset_ring",
	CCadenceResetMembership: "cadence_reset_membership",
	CCadenceResetRetry:      "cadence_reset_retry",
	CHeartbeatSweep:         "heartbeat_sweep",
	CHeartbeatSweepBase:     "heartbeat_sweep_base",
	CRingHeadChange:         "ring_head_change",
	CLinkProposalRefused:    "link_proposal_refused",
	CPublishOfflineSkip:     "publish_offline_skip",
	CAckOfflineDrop:         "ack_offline_drop",

	CPublishFrame:         "publish_frame",
	CPublishDestMalformed: "publish_dest_malformed",
	CAckLeafFlush:         "ack_leaf_flush",
	CAckBounceDrop:        "ack_bounce_drop",
	CAckPiggyback:         "ack_piggyback",

	CRouteDirect:         "route_direct",
	CRouteLookahead:      "route_lookahead",
	CRouteGreedy:         "route_greedy",
	CRouteWalk:           "route_walk",
	CPublishBounceDrop:   "publish_bounce_drop",
	CPublishHopMalformed: "publish_hop_malformed",
}

// String returns the counter's export name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// Hist is a fixed-bin histogram with atomic bins: concurrent Add with no
// locks, snapshot through internal/metrics for quantiles and printing.
type Hist struct {
	min, max float64
	bins     []atomic.Int64
}

// NewHist returns a histogram over [min,max) with the given bin count;
// out-of-range observations clamp to the edge bins (same contract as
// metrics.Histogram).
func NewHist(min, max float64, bins int) *Hist {
	if bins <= 0 || max <= min {
		panic(fmt.Sprintf("obs: bad histogram [%v,%v) x%d", min, max, bins))
	}
	return &Hist{min: min, max: max, bins: make([]atomic.Int64, bins)}
}

// Add records one observation. Safe for concurrent use; nil-safe.
func (h *Hist) Add(x float64) {
	if h == nil {
		return
	}
	i := int((x - h.min) / (h.max - h.min) * float64(len(h.bins)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i].Add(1)
}

// Snapshot copies the current bins into a metrics.Histogram, reusing its
// Total/Fractions/printing plumbing.
func (h *Hist) Snapshot() *metrics.Histogram {
	if h == nil {
		return nil
	}
	out := metrics.NewHistogram(h.min, h.max, len(h.bins))
	for i := range h.bins {
		out.Bins[i] = h.bins[i].Load()
	}
	return out
}

// Event is one entry of the bounded structured trace.
type Event struct {
	Kind string `json:"kind"`
	Peer int32  `json:"peer"`
	Seq  uint32 `json:"seq"`
}

// Metrics is one shared observability sink. The zero value is NOT ready:
// use New. A nil *Metrics is a valid no-op sink.
type Metrics struct {
	counters [numCounters]atomic.Int64

	// Hops records overlay hop counts of first-time deliveries; Latency
	// records end-to-end delivery latency in milliseconds (recorded by the
	// soak harness, which owns the wall clock).
	Hops    *Hist
	Latency *Hist

	// SendQueue records the TCP per-peer send-queue depth observed at each
	// enqueue; FlushBatch records how many frames each writer flush
	// coalesced into one syscall (DESIGN.md §10).
	SendQueue  *Hist
	FlushBatch *Hist

	// LoopLag records scheduled-fire vs actual-fire skew of timer-wheel
	// entries in milliseconds (DESIGN.md §11): a loaded shard drains its
	// mailbox instead of firing timers on time, and that overload shows up
	// here instead of as silent tail latency.
	LoopLag *Hist

	// Sojourn records per-envelope queueing delay in milliseconds —
	// transport enqueue to handler dispatch (DESIGN.md §11). It is the
	// shard runtime's primary health signal: sustained sojourn above the
	// protocol's retry backoff means acks return too late to cancel
	// retransmissions and the cluster is sliding toward congestion
	// collapse (the timer-shed counter rising says the governor is
	// holding it back).
	Sojourn *Hist

	// gauges are named point-in-time values (live goroutine count,
	// timer-wheel entries per shard) set by the runtime's monitor tick.
	// A map+mutex is fine off the hot path.
	gaugeMu sync.Mutex
	gauges  map[string]int64

	// RepairLink and RepairRing record time-to-repair in milliseconds:
	// from the first missed heartbeat of a link later declared dead to
	// the replacement — a new long link accepted (RepairLink) or the
	// local successor-list splice (RepairRing). Both are bounded by the
	// detector thresholds times the heartbeat period plus one
	// proposal round trip (DESIGN.md §9).
	RepairLink *Hist
	RepairRing *Hist

	// Restabilize records post-attack time-to-restabilize in
	// milliseconds: from the end of an adversarial window to the probe
	// round whose hop mean and delivery rate are back within the
	// recovery band of the pre-attack baseline (recorded by the soak
	// harness, which owns the baseline). The Feldmann-style
	// self-stabilization measurement of DESIGN.md §14.
	Restabilize *Hist

	// trace is a bounded ring; nil until EnableTrace.
	traceMu  sync.Mutex
	trace    []Event
	traceCap int
	traceLen int // total events ever recorded (ring may have wrapped)
	traceOff int // ring write cursor
}

// New returns an empty Metrics with standard hop and latency histograms
// (hops 0..16, latency 0..5000 ms in 10 ms bins).
func New() *Metrics {
	return &Metrics{
		Hops:        NewHist(0, 16, 16),
		Latency:     NewHist(0, 5000, 500),
		RepairLink:  NewHist(0, 2000, 200),
		RepairRing:  NewHist(0, 2000, 200),
		Restabilize: NewHist(0, 10000, 200),
		SendQueue:   NewHist(0, 512, 64),
		FlushBatch:  NewHist(0, 64, 64),
		LoopLag:     NewHist(0, 1000, 200),
		Sojourn:     NewHist(0, 1000, 200),
	}
}

// Inc adds 1 to counter c. Nil-safe, allocation-free.
func (m *Metrics) Inc(c Counter) {
	if m == nil {
		return
	}
	m.counters[c].Add(1)
}

// Addn adds n to counter c. Nil-safe; adding zero does not touch the
// counter's cache line, so a caller may report a tally that is usually
// empty without a guard of its own.
func (m *Metrics) Addn(c Counter, n int64) {
	if m == nil || n == 0 {
		return
	}
	m.counters[c].Add(n)
}

// Get returns the current value of counter c (0 on nil).
func (m *Metrics) Get(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// ObserveHops records a delivery hop count. Nil-safe.
func (m *Metrics) ObserveHops(h float64) {
	if m == nil {
		return
	}
	m.Hops.Add(h)
}

// ObserveLatencyMS records an end-to-end delivery latency. Nil-safe.
func (m *Metrics) ObserveLatencyMS(ms float64) {
	if m == nil {
		return
	}
	m.Latency.Add(ms)
}

// ObserveSendQueue records a TCP per-peer send-queue depth sample.
// Nil-safe.
func (m *Metrics) ObserveSendQueue(depth float64) {
	if m == nil {
		return
	}
	m.SendQueue.Add(depth)
}

// ObserveFlushBatch records how many frames one writer flush coalesced.
// Nil-safe.
func (m *Metrics) ObserveFlushBatch(frames float64) {
	if m == nil {
		return
	}
	m.FlushBatch.Add(frames)
}

// ObserveLoopLagMS records how late a timer-wheel entry fired relative
// to its scheduled deadline. Nil-safe.
func (m *Metrics) ObserveLoopLagMS(ms float64) {
	if m == nil {
		return
	}
	m.LoopLag.Add(ms)
}

// ObserveSojournMS records one envelope's transport-enqueue→dispatch
// queueing delay. Nil-safe.
func (m *Metrics) ObserveSojournMS(ms float64) {
	if m == nil {
		return
	}
	m.Sojourn.Add(ms)
}

// SetGauge records a named point-in-time value, overwriting the previous
// one. Nil-safe.
func (m *Metrics) SetGauge(name string, v int64) {
	if m == nil {
		return
	}
	m.gaugeMu.Lock()
	if m.gauges == nil {
		m.gauges = make(map[string]int64)
	}
	m.gauges[name] = v
	m.gaugeMu.Unlock()
}

// Gauge returns the last value set for name (0, false when never set).
// Nil-safe.
func (m *Metrics) Gauge(name string) (int64, bool) {
	if m == nil {
		return 0, false
	}
	m.gaugeMu.Lock()
	defer m.gaugeMu.Unlock()
	v, ok := m.gauges[name]
	return v, ok
}

// ObserveRepairLinkMS records the time-to-repair of a dead long link.
// Nil-safe.
func (m *Metrics) ObserveRepairLinkMS(ms float64) {
	if m == nil {
		return
	}
	m.RepairLink.Add(ms)
}

// ObserveRepairRingMS records the time-to-repair of a dead ring
// neighbor. Nil-safe.
func (m *Metrics) ObserveRepairRingMS(ms float64) {
	if m == nil {
		return
	}
	m.RepairRing.Add(ms)
}

// ObserveRestabilizeMS records one post-attack time-to-restabilize
// measurement. Nil-safe.
func (m *Metrics) ObserveRestabilizeMS(ms float64) {
	if m == nil {
		return
	}
	m.Restabilize.Add(ms)
}

// EnableTrace turns on the bounded structured event trace, keeping the
// most recent cap events. Call before the cluster starts; nil-safe.
func (m *Metrics) EnableTrace(cap int) {
	if m == nil || cap <= 0 {
		return
	}
	m.traceMu.Lock()
	m.trace = make([]Event, cap)
	m.traceCap = cap
	m.traceLen = 0
	m.traceOff = 0
	m.traceMu.Unlock()
}

// TraceEvent appends one event to the trace if tracing is enabled. The
// ring overwrites the oldest entries when full; nil-safe and free when
// tracing is off (one mutex acquisition when on).
func (m *Metrics) TraceEvent(kind string, peer int32, seq uint32) {
	if m == nil || m.traceCap == 0 {
		return
	}
	m.traceMu.Lock()
	if m.traceCap > 0 {
		m.trace[m.traceOff] = Event{Kind: kind, Peer: peer, Seq: seq}
		m.traceOff = (m.traceOff + 1) % m.traceCap
		m.traceLen++
	}
	m.traceMu.Unlock()
}

// Snapshot is a point-in-time copy of every counter, histogram, and the
// trace tail, suitable for JSON encoding.
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	// HopFractions is the share of deliveries per hop count (index = hops).
	HopFractions []float64 `json:"hop_fractions,omitempty"`
	// LatencyMS holds selected latency quantiles estimated from the
	// histogram (keys "p50", "p90", "p99").
	LatencyMS map[string]float64 `json:"latency_ms,omitempty"`
	// RepairLinkMS/RepairRingMS hold time-to-repair quantiles for dead
	// long links and dead ring neighbors (keys "p50", "p90", "p99").
	RepairLinkMS map[string]float64 `json:"repair_link_ms,omitempty"`
	RepairRingMS map[string]float64 `json:"repair_ring_ms,omitempty"`
	// RestabilizeMS holds post-attack time-to-restabilize quantiles
	// (keys "p50", "p90", "p99").
	RestabilizeMS map[string]float64 `json:"restabilize_ms,omitempty"`
	// SendQueueDepth/FlushBatchFrames hold TCP fast-path quantiles: queue
	// depth at enqueue and frames coalesced per flush.
	SendQueueDepth   map[string]float64 `json:"send_queue_depth,omitempty"`
	FlushBatchFrames map[string]float64 `json:"flush_batch_frames,omitempty"`
	// LoopLagMS holds timer-wheel fire-skew quantiles and SojournMS the
	// envelope enqueue→dispatch delay quantiles (keys "p50", "p90",
	// "p99"); Gauges holds the last value of every named gauge.
	LoopLagMS map[string]float64 `json:"loop_lag_ms,omitempty"`
	SojournMS map[string]float64 `json:"sojourn_ms,omitempty"`
	Gauges    map[string]int64   `json:"gauges,omitempty"`
	// Trace is the retained tail of the structured event trace, oldest
	// first, with TraceDropped counting evicted older events.
	Trace        []Event `json:"trace,omitempty"`
	TraceDropped int     `json:"trace_dropped,omitempty"`
}

// Snapshot captures the current state. Counters at zero are omitted so
// the export stays readable. Nil-safe (returns an empty snapshot).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}}
	if m == nil {
		return s
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := m.counters[c].Load(); v != 0 {
			s.Counters[c.String()] = v
		}
	}
	if h := m.Hops.Snapshot(); h != nil && h.Total() > 0 {
		s.HopFractions = h.Fractions()
	}
	quantiles := func(h *metrics.Histogram) map[string]float64 {
		if h == nil || h.Total() == 0 {
			return nil
		}
		return map[string]float64{
			"p50": histQuantile(h, 0.5),
			"p90": histQuantile(h, 0.9),
			"p99": histQuantile(h, 0.99),
		}
	}
	s.LatencyMS = quantiles(m.Latency.Snapshot())
	s.RepairLinkMS = quantiles(m.RepairLink.Snapshot())
	s.RepairRingMS = quantiles(m.RepairRing.Snapshot())
	s.RestabilizeMS = quantiles(m.Restabilize.Snapshot())
	s.SendQueueDepth = quantiles(m.SendQueue.Snapshot())
	s.FlushBatchFrames = quantiles(m.FlushBatch.Snapshot())
	s.LoopLagMS = quantiles(m.LoopLag.Snapshot())
	s.SojournMS = quantiles(m.Sojourn.Snapshot())
	m.gaugeMu.Lock()
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(m.gauges))
		for k, v := range m.gauges {
			s.Gauges[k] = v
		}
	}
	m.gaugeMu.Unlock()
	m.traceMu.Lock()
	if m.traceCap > 0 {
		kept := m.traceLen
		if kept > m.traceCap {
			kept = m.traceCap
			s.TraceDropped = m.traceLen - m.traceCap
		}
		s.Trace = make([]Event, 0, kept)
		start := 0
		if m.traceLen > m.traceCap {
			start = m.traceOff // oldest surviving entry
		}
		for i := 0; i < kept; i++ {
			s.Trace = append(s.Trace, m.trace[(start+i)%m.traceCap])
		}
	}
	m.traceMu.Unlock()
	return s
}

// histQuantile estimates quantile q from histogram bin midpoints.
func histQuantile(h *metrics.Histogram, q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	var cum int64
	width := (h.Max - h.Min) / float64(len(h.Bins))
	for i, b := range h.Bins {
		cum += b
		if cum > target {
			return h.Min + (float64(i)+0.5)*width
		}
	}
	return h.Max
}

// String renders the snapshot as aligned text, counters sorted by name.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%-22s %12d\n", k, s.Counters[k])
	}
	if s.LatencyMS != nil {
		fmt.Fprintf(&b, "%-22s p50=%.0fms p90=%.0fms p99=%.0fms\n", "delivery_latency",
			s.LatencyMS["p50"], s.LatencyMS["p90"], s.LatencyMS["p99"])
	}
	if s.RepairLinkMS != nil {
		fmt.Fprintf(&b, "%-22s p50=%.0fms p90=%.0fms p99=%.0fms\n", "time_to_repair_link",
			s.RepairLinkMS["p50"], s.RepairLinkMS["p90"], s.RepairLinkMS["p99"])
	}
	if s.RepairRingMS != nil {
		fmt.Fprintf(&b, "%-22s p50=%.0fms p90=%.0fms p99=%.0fms\n", "time_to_repair_ring",
			s.RepairRingMS["p50"], s.RepairRingMS["p90"], s.RepairRingMS["p99"])
	}
	if s.RestabilizeMS != nil {
		fmt.Fprintf(&b, "%-22s p50=%.0fms p90=%.0fms p99=%.0fms\n", "time_to_restabilize",
			s.RestabilizeMS["p50"], s.RestabilizeMS["p90"], s.RestabilizeMS["p99"])
	}
	if s.SendQueueDepth != nil {
		fmt.Fprintf(&b, "%-22s p50=%.0f p90=%.0f p99=%.0f\n", "send_queue_depth",
			s.SendQueueDepth["p50"], s.SendQueueDepth["p90"], s.SendQueueDepth["p99"])
	}
	if s.FlushBatchFrames != nil {
		fmt.Fprintf(&b, "%-22s p50=%.0f p90=%.0f p99=%.0f\n", "flush_batch_frames",
			s.FlushBatchFrames["p50"], s.FlushBatchFrames["p90"], s.FlushBatchFrames["p99"])
	}
	if s.LoopLagMS != nil {
		fmt.Fprintf(&b, "%-22s p50=%.0fms p90=%.0fms p99=%.0fms\n", "loop_lag",
			s.LoopLagMS["p50"], s.LoopLagMS["p90"], s.LoopLagMS["p99"])
	}
	if s.SojournMS != nil {
		fmt.Fprintf(&b, "%-22s p50=%.0fms p90=%.0fms p99=%.0fms\n", "sojourn",
			s.SojournMS["p50"], s.SojournMS["p90"], s.SojournMS["p99"])
	}
	gnames := make([]string, 0, len(s.Gauges))
	for k := range s.Gauges {
		gnames = append(gnames, k)
	}
	sort.Strings(gnames)
	for _, k := range gnames {
		fmt.Fprintf(&b, "%-22s %12d\n", "gauge:"+k, s.Gauges[k])
	}
	for h, f := range s.HopFractions {
		if f > 0.001 {
			fmt.Fprintf(&b, "hops=%-17d %11.1f%%\n", h, f*100)
		}
	}
	if len(s.Trace) > 0 {
		fmt.Fprintf(&b, "trace: %d events retained (%d dropped)\n", len(s.Trace), s.TraceDropped)
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
