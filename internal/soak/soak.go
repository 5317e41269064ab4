// Package soak drives the live node runtime through a fault-injected
// transport for a sustained churn + publication workload and measures
// what the paper's Fig. 6 claims for the simulator — notification
// availability under log-normal churn with CMA-driven link recovery — on
// real message passing.
//
// A soak run is reproducible end to end: the social graph, the overlay,
// the publication workload, and the entire fault timeline all derive
// from Config.Seed, and Report.FaultTrace is the canonical rendering of
// the injected schedule, so two runs with the same seed can be diffed
// event for event (DESIGN.md §7).
package soak

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"selectps/internal/churn"
	"selectps/internal/datasets"
	"selectps/internal/faultnet"
	"selectps/internal/growth"
	"selectps/internal/metrics"
	"selectps/internal/node"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/pubsub"
	"selectps/internal/selectcore"
	"selectps/internal/transport"
)

// Config parameterizes one soak run. The zero value is not runnable; use
// Default for a CI-sized chaos run and override from there.
type Config struct {
	// N is the cluster size; Seed drives graph, overlay, workload and
	// fault schedule alike.
	N    int
	Seed int64
	// Dataset names the social-graph generator (datasets.ByName).
	Dataset string
	// TCP switches the base transport from the in-memory switchboard to
	// real loopback sockets.
	TCP bool
	// Posts is the number of publications to drive.
	Posts int
	// PayloadSize is the notification payload in bytes (the paper's
	// 1.2 MB fragments by default).
	PayloadSize uint32

	// Fault is the failure model injected between the cluster and the
	// base transport. Tick/Steps default to cover the whole run.
	Fault faultnet.Config

	// Recovery enables SELECT's robustness machinery: heartbeats feeding
	// the accrual failure detector (§III-F) and the in-node autonomous
	// delivery-repair engine. Disabling it is the ablation arm of the
	// live Fig. 6 — the harness never drives repair by hand either way.
	Recovery bool
	// HeartbeatEvery/GossipEvery/MaintainEvery are the node protocol
	// periods when Recovery is on (MaintainEvery drives join retries,
	// Algorithm-2 identifier moves and Algorithm-5/6 link reassignment).
	HeartbeatEvery time.Duration
	GossipEvery    time.Duration
	MaintainEvery  time.Duration

	// Shards is the event-loop shard count handed to the node runtime
	// (0 = GOMAXPROCS; see node.Options.Shards).
	Shards int

	// BootstrapFrac, when in (0,1), starts only that fraction of peers
	// (growth-schedule join order) as converged ring members; the rest
	// join live through the join protocol before the workload starts.
	BootstrapFrac float64
	// LiveRejoin makes churn crashes real for the overlay: a peer
	// entering a crash window loses its volatile routing state
	// (Cluster.Crash) and walks the live join protocol again when the
	// window ends (Cluster.Rejoin). Requires a timed fault schedule.
	LiveRejoin bool
	// PostChurnPosts drives this many extra publications after the timed
	// fault schedule has run out and every peer has re-joined, measuring
	// the overlay quality the maintenance loop converged back to
	// (Report.PostChurnMeanHops). Zero skips the phase. PostChurnSettle
	// is how long to let gossip and maintenance re-converge the late
	// re-joiners before measuring (default 1s).
	PostChurnPosts  int
	PostChurnSettle time.Duration
	// RetryEvery is the delivery-repair engine's base backoff (RetryBase
	// on the nodes when Recovery is on); DeliverTimeout bounds how long
	// each publication may take before it is scored as is.
	RetryEvery     time.Duration
	DeliverTimeout time.Duration

	// OfflineFrac crashes this fraction of peers BEFORE the workload and
	// rejoins them after it: the store-and-forward scenario. Their owed
	// notifications are scored after the rejoin replay (Report.AllRate) —
	// with Inbox on, the durable tier must deliver them at-least-once.
	OfflineFrac float64
	// Inbox enables the durable delivery tier (node.Options.Inbox):
	// publications owed to offline subscribers are deposited on their
	// replica sets and replayed when they rejoin, instead of
	// dead-lettered. Requires Recovery.
	Inbox bool

	// Topics enables the named-topic flash-crowd arm: every peer
	// subscribes to TopicSubs Zipf-drawn topics (exponent TopicZipf over
	// Topics names — index 0, the hot hashtag, draws most of the mass)
	// and the workload publishes every post to a Zipf-drawn topic's
	// rendezvous tree instead of the publisher's friend feed. Combined
	// with churn this exercises rendezvous re-homing mid-flood. Requires
	// Recovery.
	Topics    int
	TopicZipf float64 // Zipf exponent (>1), default 1.2
	TopicSubs int     // subscriptions per peer, default 2

	// Defenses enables the hardened node defenses of DESIGN.md §14
	// (node.Options.Hardened): join admission rate limits and arc caps,
	// eviction-resistant ring lists with position cross-checks, and
	// mutual-count clamps. The adversarial arms (Fault.Attack != none)
	// run with it on and off to measure the defense margin; it is
	// harmless under honest faults.
	Defenses bool

	// TraceCap bounds the structured obs event trace (0 = off).
	TraceCap int
}

// Default returns a CI-sized chaos soak: 100 peers, 20 posts, 10% loss,
// churn-driven crashes, periodic partitions, recovery on.
func Default() Config {
	m := churn.DefaultModel()
	return Config{
		N: 100, Seed: 1, Dataset: "facebook", Posts: 20, PayloadSize: 1_200_000,
		Fault: faultnet.Config{
			DropProb: 0.10, DupProb: 0.02, ReorderProb: 0.02,
			DelayMin: 0, DelayMax: 2 * time.Millisecond,
			Tick: 20 * time.Millisecond, Steps: 3000,
			Churn:          &m,
			PartitionEvery: 400, PartitionFor: 50, PartitionFrac: 0.2,
		},
		Recovery:       true,
		HeartbeatEvery: 25 * time.Millisecond,
		GossipEvery:    50 * time.Millisecond,
		MaintainEvery:  25 * time.Millisecond,
		RetryEvery:     20 * time.Millisecond,
		DeliverTimeout: 3 * time.Second,
	}
}

// Report is the outcome of one soak run.
type Report struct {
	Config ConfigSummary `json:"config"`

	// Posts is the number of publications driven; Wanted/Delivered count
	// subscriber notifications (the availability of Fig. 6 is
	// Delivered/Wanted over eligible subscribers).
	Posts     int `json:"posts"`
	Wanted    int `json:"wanted"`
	Delivered int `json:"delivered"`
	// EligibleWanted/EligibleDelivered exclude subscribers that were
	// inside a crash window when their publication was scored — a crashed
	// phone cannot display a notification in any design.
	EligibleWanted    int `json:"eligible_wanted"`
	EligibleDelivered int `json:"eligible_delivered"`

	// DeliveryRate is EligibleDelivered/EligibleWanted; RawRate counts
	// every subscriber.
	DeliveryRate float64 `json:"delivery_rate"`
	RawRate      float64 `json:"raw_rate"`

	// Duplicates is the number of redundant arrivals absorbed by dedup;
	// DuplicateRate is per wanted notification.
	Duplicates    int64   `json:"duplicates"`
	DuplicateRate float64 `json:"duplicate_rate"`

	// LatencyMSP50/90/99 are per-publication completion latencies.
	LatencyMSP50 float64 `json:"latency_ms_p50"`
	LatencyMSP90 float64 `json:"latency_ms_p90"`
	LatencyMSP99 float64 `json:"latency_ms_p99"`
	// HopFractions is the distribution of delivery hop counts.
	HopFractions []float64 `json:"hop_fractions,omitempty"`

	// RecoveryActions aggregates detector-driven routing decisions
	// (dead-link skips + random-walk escapes); Retries counts the repair
	// engine's autonomous re-sends; DeadLetters counts publications that
	// exhausted their retry budget (and, with Inbox on, also failed to
	// deposit on any replica).
	RecoveryActions int64 `json:"recovery_actions"`
	Retries         int64 `json:"retries"`
	DeadLetters     int64 `json:"dead_letters"`

	// FramesPerDelivered is total transport sends per delivered
	// notification — the frame-economy figure of merit (DESIGN.md §15).
	FramesPerDelivered float64 `json:"frames_per_delivered_msg"`
	// RunSeconds is the wall time from the cluster's start to the counter
	// snapshot.
	RunSeconds float64 `json:"run_s"`

	// Offline-subscriber arm (OfflineFrac > 0): OfflineCount peers were
	// crashed through the whole workload and rejoined after it.
	// OfflineWanted/Delivered score only their owed notifications after
	// the rejoin replay; AllWanted/Delivered score EVERY subscriber of
	// every publication at the end — AllRate = 1.0 with Inbox on is the
	// at-least-once acceptance gate. DuplicateDeliveries counts app-level
	// double deliveries observed by the OnDeliver handlers (must be 0:
	// replay dedup is part of the contract); InboxDeposits/InboxReplayed
	// and InboxDepth surface the durable tier's work.
	OfflineCount        int     `json:"offline_count,omitempty"`
	OfflineWanted       int     `json:"offline_wanted,omitempty"`
	OfflineDelivered    int     `json:"offline_delivered,omitempty"`
	OfflineRate         float64 `json:"offline_rate,omitempty"`
	AllWanted           int     `json:"all_wanted,omitempty"`
	AllDelivered        int     `json:"all_delivered,omitempty"`
	AllRate             float64 `json:"all_rate,omitempty"`
	DuplicateDeliveries int64   `json:"duplicate_deliveries"`
	InboxDeposits       int64   `json:"inbox_deposits,omitempty"`
	InboxReplayed       int64   `json:"inbox_replayed,omitempty"`
	InboxDepth          int     `json:"inbox_depth,omitempty"`

	// LiveJoins counts peers admitted through the join protocol during
	// the bootstrap phase (BootstrapFrac < 1); Rejoins counts crashed
	// peers that completed the join protocol again (LiveRejoin).
	LiveJoins int `json:"live_joins,omitempty"`
	Rejoins   int `json:"rejoins,omitempty"`
	// RejoinedWanted/Delivered score notifications for subscribers that
	// had crashed and rejoined live by the time their publication was
	// scored; RejoinAvailability is their ratio — the churn-arm
	// acceptance metric.
	RejoinedWanted     int     `json:"rejoined_wanted,omitempty"`
	RejoinedDelivered  int     `json:"rejoined_delivered,omitempty"`
	RejoinAvailability float64 `json:"rejoin_availability,omitempty"`
	// MeanHops is the mean delivered hop count; MeanLinkCoverage is the
	// mean link-bucket coverage over ring members at the end of the run.
	// Together they are the overlay-quality signals the churn and
	// live-join arms watch converge back to the pre-churn baseline.
	MeanHops         float64 `json:"mean_hops"`
	MeanLinkCoverage float64 `json:"mean_link_coverage"`
	// PostChurnMeanHops is MeanHops over the publications driven after
	// the fault schedule expired and every peer re-joined (PostChurnPosts
	// > 0) — the converged-back overlay quality.
	PostChurnMeanHops float64 `json:"post_churn_mean_hops,omitempty"`
	// The ring invariant (node.Cluster.AuditRing), sampled after every
	// publication and once more when the run is over. SharedPositions is
	// the most members any sample found on a ring position another member
	// held too: it is zero at every instant, faults or not. OffCycle is how
	// many members the last sample's successor walk did not reach, and
	// RingFault that sample's first violation. RingSettled says the arm
	// ended behind its faults — live joins before the workload and no
	// timed faults, or a post-churn phase — and its ring was given up to
	// ringSettleMax to pass the audit: such an arm must read OffCycle 0; an
	// arm that ends mid-churn, or a second after Start with identifiers
	// still moving, only reports it.
	SharedPositions int    `json:"shared_positions"`
	OffCycle        int    `json:"off_cycle"`
	RingFault       string `json:"ring_fault,omitempty"`
	RingSettled     bool   `json:"ring_settled,omitempty"`

	// Topic arm (Topics > 0): the workload published to Zipf-popular
	// named topics, so DeliveryRate measures flash-crowd delivery to
	// live topic subscribers. HotTopicSubs is the hot hashtag's
	// subscriber count; TopicRehomes/TopicHandoffs count rendezvous
	// re-homing activity (nonzero under churn means re-homing was
	// exercised mid-flood); TopicFanoutCopies counts dissemination-tree
	// sends; TopicAckShared counts the subscriber acks a replica passed on
	// to its fellow replicas.
	Topics            int   `json:"topics,omitempty"`
	HotTopicSubs      int   `json:"hot_topic_subs,omitempty"`
	TopicRehomes      int64 `json:"topic_rehomes,omitempty"`
	TopicHandoffs     int64 `json:"topic_handoffs,omitempty"`
	TopicFanoutCopies int64 `json:"topic_fanout_copies,omitempty"`
	TopicAckShared    int64 `json:"topic_ack_shared,omitempty"`

	// Adversarial arm (Fault.Attack != none): AttackerCount byzantine
	// peers ran the named attack against AttackTarget between schedule
	// steps AttackStart and AttackStop. Attackers are excluded from
	// eligibility (a byzantine peer's own notifications are not the
	// service's promise); the victim stays eligible — that is the point.
	// AttackWanted/Delivered/Rate score eligible notifications whose
	// publication resolved inside the attack window — the degraded-window
	// availability the defense margin is measured on. AttackMeanHops is
	// the in-window delivered hop count (hop inflation vs MeanHops).
	// RestabilizeMS is how long after the window closed until the
	// victim's ring links agreed with the directory again (the
	// Feldmann-style recovery contract), RestabilizeTicks the same in
	// maintain periods. HeadOccupancy is the fraction of in-window
	// driver ticks on which an attacker held the victim's ring successor
	// or predecessor — the prize both ring attacks play for — and
	// ForgedOccupancy the fraction where that seat was held at a
	// position contradicting the directory's grant (a swallowed forgery,
	// vs a seat a friend earned legitimately under social placement):
	// the in-window damage gauges the defenses-off ablation degrades.
	// Both -1 when not measured. The defense counters echo obs.
	Attack           string  `json:"attack,omitempty"`
	Defenses         bool    `json:"defenses,omitempty"`
	AttackerCount    int     `json:"attacker_count,omitempty"`
	AttackTarget     int32   `json:"attack_target,omitempty"`
	AttackStart      int     `json:"attack_start,omitempty"`
	AttackStop       int     `json:"attack_stop,omitempty"`
	AttackWanted     int     `json:"attack_wanted,omitempty"`
	AttackDelivered  int     `json:"attack_delivered,omitempty"`
	AttackRate       float64 `json:"attack_rate,omitempty"`
	AttackMeanHops   float64 `json:"attack_mean_hops,omitempty"`
	RestabilizeMS    float64 `json:"restabilize_ms,omitempty"`
	RestabilizeTicks int     `json:"restabilize_ticks,omitempty"`
	HeadOccupancy    float64 `json:"attacker_head_occupancy"`
	ForgedOccupancy  float64 `json:"forged_head_occupancy"`
	SybilRejected    int64   `json:"sybil_rejected,omitempty"`
	SybilDiverted    int64   `json:"sybil_diverted,omitempty"`
	EclipseDisplaced int64   `json:"eclipse_displaced,omitempty"`
	PosRejected      int64   `json:"pos_rejected,omitempty"`
	StrengthClamped  int64   `json:"strength_clamped,omitempty"`

	// FaultTrace is the canonical injected-fault schedule; identical for
	// identical seeds. FaultEvents is its event count.
	FaultEvents int    `json:"fault_events"`
	FaultTrace  string `json:"-"`

	// Obs is the full counter/histogram snapshot.
	Obs obs.Snapshot `json:"obs"`
}

// ConfigSummary is the part of the config echoed into the report.
type ConfigSummary struct {
	N             int     `json:"n"`
	Seed          int64   `json:"seed"`
	Dataset       string  `json:"dataset"`
	TCP           bool    `json:"tcp"`
	Posts         int     `json:"posts"`
	Drop          float64 `json:"drop"`
	Recovery      bool    `json:"recovery"`
	BootstrapFrac float64 `json:"bootstrap_frac,omitempty"`
	LiveRejoin    bool    `json:"live_rejoin,omitempty"`
	OfflineFrac   float64 `json:"offline_frac,omitempty"`
	Inbox         bool    `json:"inbox,omitempty"`
	Topics        int     `json:"topics,omitempty"`
	TopicZipf     float64 `json:"topic_zipf,omitempty"`
	Attack        string  `json:"attack,omitempty"`
	Defenses      bool    `json:"defenses,omitempty"`
	GossipEveryMS float64 `json:"gossip_every_ms,omitempty"`
}

// String renders the report like the repo's other experiment harnesses.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: n=%d seed=%d dataset=%s tcp=%v recovery=%v drop=%.2f\n",
		r.Config.N, r.Config.Seed, r.Config.Dataset, r.Config.TCP, r.Config.Recovery, r.Config.Drop)
	fmt.Fprintf(&b, "publications: %d   notifications: %d/%d (%.2f%% raw)\n",
		r.Posts, r.Delivered, r.Wanted, 100*r.RawRate)
	fmt.Fprintf(&b, "availability (eligible subscribers): %d/%d = %.2f%%\n",
		r.EligibleDelivered, r.EligibleWanted, 100*r.DeliveryRate)
	fmt.Fprintf(&b, "duplicates absorbed: %d (%.3f per notification)\n", r.Duplicates, r.DuplicateRate)
	fmt.Fprintf(&b, "publication latency: p50=%.0fms p90=%.0fms p99=%.0fms\n",
		r.LatencyMSP50, r.LatencyMSP90, r.LatencyMSP99)
	fmt.Fprintf(&b, "recovery actions: %d (cma skips/walks) + %d engine retries (%d dead-lettered)\n",
		r.RecoveryActions, r.Retries, r.DeadLetters)
	if r.FramesPerDelivered > 0 {
		fmt.Fprintf(&b, "frames/delivered-msg: %.2f\n", r.FramesPerDelivered)
	}
	if c := r.Obs.Counters; c["publish_frame"] > 0 {
		// One frame per overlay link (DESIGN.md §10.3): how many copies —
		// first sends, relayed and retried — a publish frame carried, and
		// what the ack path did with the answers (§15.1).
		copies := c["publish_sent"] + c["publish_forwarded"] + c["retry_sent"]
		fmt.Fprintf(&b, "tree dissemination: %d copies in %d publish frames (%.2f per frame), %d malformed lists; acks: %d in %d frames, %d sent at once, %d rode other frames, %d bounce drops, %d ttl drops\n",
			copies, c["publish_frame"], float64(copies)/float64(c["publish_frame"]), c["publish_dest_malformed"],
			c["ack_coalesced"], c["ack_batch_sent"], c["ack_leaf_flush"], c["ack_piggyback"], c["ack_bounce_drop"], c["ack_ttl_drop"])
	}
	if c := r.Obs.Counters; c["route_direct"]+c["route_lookahead"]+c["route_greedy"]+c["route_walk"] > 0 {
		// Which rule of the routing pass chose the next hops of publication
		// copies and acks (DESIGN.md §10.3), and what the split horizon and
		// the TTL had to stop.
		fmt.Fprintf(&b, "routing: direct=%d lookahead=%d greedy=%d walk=%d; publish: %d bounce drops, %d ttl drops, %d dead ends, %d malformed hops\n",
			c["route_direct"], c["route_lookahead"], c["route_greedy"], c["route_walk"],
			c["publish_bounce_drop"], c["publish_ttl_drop"], c["publish_dead_end"], c["publish_hop_malformed"])
	}
	if c := r.Obs.Counters; c["heartbeat_sweep"] > 0 {
		// How quiet the control plane got, and what kept it awake
		// (DESIGN.md §15.2): under loss or churn nearly every sweep should
		// run at the base interval, in a calm cluster nearly none. Then
		// what the probes and exchanges cost: pings sent, probes a peer's
		// own ping stood in for, and exchanges per peer-second.
		fmt.Fprintf(&b, "liveness cadence: %d/%d heartbeat sweeps at the base interval (%.1f%%); resets: miss=%d detector=%d link=%d ring=%d membership=%d retry=%d; %d pings sent, %d stand-ins, %.2f exchanges per peer-second\n",
			c["heartbeat_sweep_base"], c["heartbeat_sweep"], 100*float64(c["heartbeat_sweep_base"])/float64(c["heartbeat_sweep"]),
			c["cadence_reset_miss"], c["cadence_reset_detector"], c["cadence_reset_link"], c["cadence_reset_ring"],
			c["cadence_reset_membership"], c["cadence_reset_retry"],
			c["heartbeat_sent"], c["heartbeat_peer_probed"], float64(c["gossip_sent"])/(float64(r.Config.N)*r.RunSeconds))
	}
	if c := r.Obs.Counters; c["gossip_sent"] > 0 && r.Config.GossipEveryMS > 0 {
		// The gossip back-off in every arm: exchanges per peer per second
		// against what a cluster that never backs off sends (§15.2).
		rate, base := float64(c["gossip_sent"])/(float64(r.Config.N)*r.RunSeconds), 1000/r.Config.GossipEveryMS
		fmt.Fprintf(&b, "gossip: %d exchanges in %.1fs, %.2f per node-second (%.2f at the base interval, %.1f%%); %d link proposals\n",
			c["gossip_sent"], r.RunSeconds, rate, base, 100*rate/base, c["link_proposal"])
	}
	if r.OfflineCount > 0 {
		fmt.Fprintf(&b, "offline subscribers: %d crashed through workload; after rejoin replay %d/%d owed = %.2f%% (all subscribers %d/%d = %.2f%%, %d app-level duplicates)\n",
			r.OfflineCount, r.OfflineDelivered, r.OfflineWanted, 100*r.OfflineRate,
			r.AllDelivered, r.AllWanted, 100*r.AllRate, r.DuplicateDeliveries)
		// Records against frames (DESIGN.md §12.4): a replay frame carries a
		// batch, a claim's have-digest clears copies unsent, and "self" is
		// what left on a drain no claim started.
		c := r.Obs.Counters
		fmt.Fprintf(&b, "durable tier: %d deposits persisted, %d replayed+cleared, %d left pending; replay: %d records in %d frames (%d self-initiated), %d cleared by digest, %d malformed frames, %d oversize claims\n",
			r.InboxDeposits, r.InboxReplayed, r.InboxDepth,
			c["inbox_replay"], c["inbox_replay_frame"], c["inbox_replay_self"],
			c["inbox_have_cleared"], c["inbox_replay_malformed"], c["inbox_claim_oversize"])
	}
	if r.LiveJoins > 0 || r.Rejoins > 0 {
		fmt.Fprintf(&b, "live joins: %d   rejoins: %d   rejoined availability: %d/%d = %.2f%%\n",
			r.LiveJoins, r.Rejoins, r.RejoinedDelivered, r.RejoinedWanted, 100*r.RejoinAvailability)
	}
	if r.Topics > 0 {
		fmt.Fprintf(&b, "topics: %d (hot hashtag %d subscribers)   rehomes: %d   handoffs: %d   tree copies: %d   acks shared: %d\n",
			r.Topics, r.HotTopicSubs, r.TopicRehomes, r.TopicHandoffs, r.TopicFanoutCopies, r.TopicAckShared)
	}
	if r.Attack != "" && r.Attack != "none" {
		fmt.Fprintf(&b, "attack: %s ×%d vs peer %d (steps %d-%d, defenses=%v)\n",
			r.Attack, r.AttackerCount, r.AttackTarget, r.AttackStart, r.AttackStop, r.Defenses)
		fmt.Fprintf(&b, "in-window availability: %d/%d = %.2f%% (mean hops %.2f)   restabilize: %.0fms ≈ %d maintain ticks\n",
			r.AttackDelivered, r.AttackWanted, 100*r.AttackRate, r.AttackMeanHops,
			r.RestabilizeMS, r.RestabilizeTicks)
		if r.HeadOccupancy >= 0 {
			forged := r.ForgedOccupancy
			if forged < 0 {
				forged = 0
			}
			fmt.Fprintf(&b, "attacker ring-head occupancy through window: %.1f%% (%.1f%% at forged positions)\n",
				100*r.HeadOccupancy, 100*forged)
		}
		fmt.Fprintf(&b, "defenses: sybil_rejected=%d sybil_diverted=%d eclipse_displaced=%d pos_rejected=%d strength_clamped=%d\n",
			r.SybilRejected, r.SybilDiverted, r.EclipseDisplaced, r.PosRejected, r.StrengthClamped)
	}
	fmt.Fprintf(&b, "overlay quality: mean hops %.2f, link-bucket coverage %.2f\n", r.MeanHops, r.MeanLinkCoverage)
	fmt.Fprintf(&b, "ring: shared_positions=%d off_cycle=%d", r.SharedPositions, r.OffCycle)
	switch {
	case r.RingFault != "":
		fmt.Fprintf(&b, " (%s)", r.RingFault)
	case r.RingSettled:
		b.WriteString(" (settled: one successor cycle through every member)")
	}
	b.WriteByte('\n')
	if r.PostChurnMeanHops > 0 {
		fmt.Fprintf(&b, "post-churn convergence: mean hops %.2f on the clean network\n", r.PostChurnMeanHops)
	}
	fmt.Fprintf(&b, "injected fault events: %d\n", r.FaultEvents)
	b.WriteString(r.Obs.String())
	return b.String()
}

// Run executes one soak and returns its report.
func Run(cfg Config) (*Report, error) {
	if cfg.N <= 0 || cfg.Posts <= 0 {
		return nil, fmt.Errorf("soak: need positive N and Posts")
	}
	if cfg.Dataset == "" {
		cfg.Dataset = "facebook"
	}
	if cfg.DeliverTimeout == 0 {
		cfg.DeliverTimeout = 3 * time.Second
	}
	if cfg.RetryEvery == 0 {
		cfg.RetryEvery = 20 * time.Millisecond
	}
	spec, err := datasets.ByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	g := spec.Generate(cfg.N, cfg.Seed)
	ov, err := pubsub.Build(pubsub.Select, g, pubsub.BuildOptions{}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}

	met := obs.New()
	if cfg.TraceCap > 0 {
		met.EnableTrace(cfg.TraceCap)
	}
	var base transport.Transport
	if cfg.TCP {
		t, err := transport.NewTCP(cfg.N, 4096)
		if err != nil {
			return nil, err
		}
		t.Obs = met
		base = t
	} else {
		sw := transport.NewSwitchboard(cfg.N, 4096)
		sw.Obs = met
		base = sw
	}
	fn := faultnet.Wrap(base, cfg.N, cfg.Fault, cfg.Seed+faultSeedOffset)
	fn.Obs = met

	nopts := node.Options{Graph: g, Overlay: ov, Transport: fn, Seed: cfg.Seed, Obs: met, Shards: cfg.Shards}
	nopts.Inbox = cfg.Inbox
	nopts.Hardened = cfg.Defenses
	if cfg.Topics > 0 {
		if !cfg.Recovery {
			return nil, fmt.Errorf("soak: Topics requires Recovery (rendezvous re-homing rides the repair engine)")
		}
		if cfg.TopicZipf == 0 {
			cfg.TopicZipf = 1.2
		}
		if cfg.TopicSubs == 0 {
			cfg.TopicSubs = 2
		}
		// Under churn a paused subscriber cannot refresh its lease; keep
		// registrations alive across the longest window the soak is still
		// willing to score so the rendezvous keeps repairing toward peers
		// that resume mid-deadline (the friend-feed arm gets the same
		// property from the publisher's retry budget).
		nopts.TopicLease = cfg.DeliverTimeout + 5*time.Second
	}
	if cfg.Recovery {
		nopts.HeartbeatEvery = cfg.HeartbeatEvery
		nopts.GossipEvery = cfg.GossipEvery
		nopts.MaintainEvery = cfg.MaintainEvery
		if nopts.MaintainEvery == 0 {
			nopts.MaintainEvery = 25 * time.Millisecond
		}
		// Autonomous repair: the nodes re-send on their own seeded backoff;
		// the harness only waits and scores. Cap the backoff tightly — the
		// soak scores delivery against a deadline, and retry density within
		// that window is what buys availability while the overlay is still
		// converging around live joiners — and give the budget enough
		// rounds to span the deadline: crash/partition windows can swallow
		// the whole early schedule, and a publication must keep repairing
		// for as long as the soak is willing to score it.
		nopts.RetryBase = cfg.RetryEvery
		nopts.RetryMax = 2 * cfg.RetryEvery
		nopts.RetryBudget = 16 + 2*int(cfg.DeliverTimeout/cfg.RetryEvery)
		// A patient failure detector: the soak's job is availability under
		// heavy injected faults (and the race detector's ~10x slowdown in
		// CI), where pong latency spikes are routine. Declaring links dead
		// on a short miss streak here would shred good links and cost far
		// more availability than slow failover does.
		nopts.Detector = selectcore.FailureDetector{
			SuspectAfter: 4,
			DeadAfter:    16,
			DeadCMA:      0.10,
			MinSamples:   16,
		}
	}
	// Live-join bootstrap arm: only the first BootstrapFrac of the growth
	// schedule's join order starts converged; everyone else joins live.
	var joiners []growth.Event
	if cfg.BootstrapFrac > 0 && cfg.BootstrapFrac < 1 {
		sched := growth.DefaultModel().Schedule(g, rand.New(rand.NewSource(cfg.Seed^0x9e37)))
		nBoot := int(float64(cfg.N) * cfg.BootstrapFrac)
		if nBoot < 2 {
			nBoot = 2
		}
		for _, e := range sched.Prefix(nBoot) {
			nopts.Bootstrap = append(nopts.Bootstrap, overlay.PeerID(e.User))
		}
		joiners = sched.Events[len(nopts.Bootstrap):]
	}
	cluster, err := node.Start(nopts)
	if err != nil {
		return nil, err
	}
	started := time.Now()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = cluster.Shutdown(ctx)
	}()

	// Duplicate-delivery watch: the durable tier's replay must never reach
	// the application twice. Count per-(subscriber, publication) arrivals
	// through the same OnDeliver push path the application would use.
	type delivKey struct {
		sub, pub int32
		seq      uint32
	}
	var dupMu sync.Mutex
	delivCount := make(map[delivKey]int)
	var dupDeliveries int64
	if cfg.Inbox {
		for _, nd := range cluster.Nodes {
			sid := int32(nd.ID())
			nd.OnDeliver(func(d node.Delivery) {
				k := delivKey{sub: sid, pub: int32(d.Publisher), seq: d.Seq}
				dupMu.Lock()
				delivCount[k]++
				if delivCount[k] > 1 {
					dupDeliveries++
				}
				dupMu.Unlock()
			})
		}
	}

	liveJoins := 0
	for _, e := range joiners {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := cluster.Join(ctx, overlay.PeerID(e.User), overlay.PeerID(e.Inviter))
		cancel()
		if err != nil {
			return nil, fmt.Errorf("soak: live join of %d: %w", e.User, err)
		}
		liveJoins++
	}

	// Live-rejoin churn driver: mirror the faultnet crash schedule onto
	// the overlay itself — a crash window really destroys the peer's
	// volatile routing state, and the end of the window walks it through
	// the join protocol again.
	var rj rejoinTracker
	rj.rejoined = make(map[overlay.PeerID]bool)
	stopDriver := make(chan struct{})
	driverCtx, driverCancel := context.WithCancel(context.Background())
	defer driverCancel()
	var driverWG sync.WaitGroup
	if cfg.LiveRejoin && fn.Schedule() != nil && cfg.Fault.Tick > 0 {
		driverWG.Add(1)
		go func() {
			defer driverWG.Done()
			crashed := make([]bool, cfg.N)
			tick := time.NewTicker(cfg.Fault.Tick)
			defer tick.Stop()
			for {
				select {
				case <-stopDriver:
					return
				case <-tick.C:
				}
				step := fn.Step()
				for p := 0; p < cfg.N; p++ {
					now := fn.CrashedAt(step, int32(p))
					switch {
					case now && !crashed[p]:
						crashed[p] = true
						cluster.Crash(overlay.PeerID(p))
					case !now && crashed[p]:
						crashed[p] = false
						pid := overlay.PeerID(p)
						driverWG.Add(1)
						go func() {
							defer driverWG.Done()
							ctx, cancel := context.WithTimeout(driverCtx, 15*time.Second)
							defer cancel()
							if cluster.Rejoin(ctx, pid, -1) == nil {
								rj.mu.Lock()
								rj.rejoined[pid] = true
								rj.rejoins++
								rj.mu.Unlock()
							}
						}()
					}
				}
			}
		}()
	}

	// Adversarial arm: lift the attack window out of the schedule, then
	// mirror it onto node adversary hooks — the attack is byzantine *peer*
	// behavior, so faultnet only decides who/when; the nodes act it out.
	attackers := make(map[overlay.PeerID]bool)
	var cohort []overlay.PeerID
	var attackStart, attackStop int
	attackKind := faultnet.AttackNone
	attackTarget := overlay.PeerID(-1)
	if s := fn.Schedule(); s != nil {
		for _, e := range s.Ev {
			switch e.Kind {
			case faultnet.EvAttackStart:
				attackKind = e.Attack
				attackStart, attackStop = e.Step, s.Steps
				attackTarget = overlay.PeerID(e.Peer)
				for _, a := range e.Side {
					attackers[overlay.PeerID(a)] = true
					cohort = append(cohort, overlay.PeerID(a))
				}
			case faultnet.EvAttackStop:
				attackStop = e.Step
			}
		}
	}
	var restabMu sync.Mutex
	restabilizeMS := -1.0
	headOccupancy := -1.0
	forgedOccupancy := -1.0
	if attackKind != faultnet.AttackNone && cfg.Fault.Tick > 0 {
		mode := node.AdvNone
		switch attackKind {
		case faultnet.AttackSybil:
			mode = node.AdvSybil
		case faultnet.AttackEclipse:
			mode = node.AdvEclipse
		case faultnet.AttackLiar:
			mode = node.AdvLiar
		}
		driverWG.Add(1)
		go func() {
			defer driverWG.Done()
			armed := false
			occHeld, occForged, occTicks := 0, 0, 0
			tick := time.NewTicker(cfg.Fault.Tick)
			defer tick.Stop()
			for {
				select {
				case <-stopDriver:
					return
				case <-tick.C:
				}
				_, _, _, active := fn.AttackAt(fn.Step())
				if active && armed {
					// Head-occupancy sample: does an attacker hold the
					// victim's ring successor or predecessor right now? This
					// is the prize both ring attacks play for (forged ε-flanks
					// for eclipse, arc-flood placements for sybil), and the
					// headline in-window damage the defenses-off ablation
					// measures — hardened correction keeps it near zero.
					occTicks++
					s, p := cluster.RingHeads(attackTarget)
					if attackers[s] || attackers[p] {
						occHeld++
						// A seat can be earned (friends are genuine ring
						// neighbors under social placement) or stolen; only a
						// view position contradicting the directory's grant
						// proves a swallowed forgery.
						if (attackers[s] && cluster.HeadForged(attackTarget, s)) ||
							(attackers[p] && cluster.HeadForged(attackTarget, p)) {
							occForged++
						}
					}
				}
				switch {
				case active && !armed:
					armed = true
					for _, a := range cohort {
						cluster.Nodes[a].SetAdversary(mode, attackTarget, cohort)
					}
				case !active && armed:
					armed = false
					stoppedAt := time.Now()
					restabMu.Lock()
					if occTicks > 0 {
						headOccupancy = float64(occHeld) / float64(occTicks)
						forgedOccupancy = float64(occForged) / float64(occTicks)
					}
					restabMu.Unlock()
					for _, a := range cohort {
						cluster.Nodes[a].SetAdversary(node.AdvNone, -1, nil)
					}
					// Sybil attackers may be stranded outside the ring
					// mid-cycle; walk them back through the join protocol
					// like churn rejoins so the network can re-converge.
					for _, a := range cohort {
						if cluster.Nodes[a].Joined() {
							continue
						}
						a := a
						driverWG.Add(1)
						go func() {
							defer driverWG.Done()
							ctx, cancel := context.WithTimeout(driverCtx, 30*time.Second)
							defer cancel()
							_ = cluster.Rejoin(ctx, a, -1)
						}()
					}
					// Restabilization probe: time from window close until
					// the victim's ring links agree with the directory
					// again — the recovery contract the report pins.
					driverWG.Add(1)
					go func() {
						defer driverWG.Done()
						deadline := time.Now().Add(60 * time.Second)
						for time.Now().Before(deadline) {
							select {
							case <-stopDriver:
								return
							default:
							}
							if cluster.RingConsistent(attackTarget) {
								ms := float64(time.Since(stoppedAt).Milliseconds())
								met.ObserveRestabilizeMS(ms)
								restabMu.Lock()
								restabilizeMS = ms
								restabMu.Unlock()
								return
							}
							time.Sleep(cfg.Fault.Tick)
						}
					}()
					return
				}
			}
		}()
	}

	// Offline-subscriber arm: crash the chosen fraction BEFORE any
	// publication goes out. They stay down through the whole workload —
	// every notification owed to them must cross the durable tier.
	offline := make(map[overlay.PeerID]bool)
	if cfg.OfflineFrac > 0 {
		orng := rand.New(rand.NewSource(cfg.Seed + offlineSeedOffset))
		want := int(cfg.OfflineFrac * float64(cfg.N))
		for _, p := range orng.Perm(cfg.N) {
			if len(offline) >= want {
				break
			}
			offline[overlay.PeerID(p)] = true
		}
		for p := range offline {
			cluster.Crash(p)
		}
	}

	// Topic flash-crowd arm: every live peer subscribes to TopicSubs
	// Zipf-drawn named topics before the flood. Topic 0 — the hot
	// hashtag — draws most of the probability mass, so its rendezvous
	// peers carry a flash crowd while churn keeps killing and re-homing
	// them mid-flood.
	var topicNames []string
	subsOf := make(map[string][]overlay.PeerID)
	var topicZipf *rand.Zipf
	if cfg.Topics > 0 {
		trng := rand.New(rand.NewSource(cfg.Seed + topicSeedOffset))
		topicZipf = rand.NewZipf(trng, cfg.TopicZipf, 1, uint64(cfg.Topics-1))
		topicNames = make([]string, cfg.Topics)
		for i := range topicNames {
			topicNames[i] = fmt.Sprintf("#topic-%d", i)
		}
		for p := 0; p < cfg.N; p++ {
			pid := overlay.PeerID(p)
			if offline[pid] {
				continue // crashed before the workload; cannot register
			}
			seen := make(map[string]bool, cfg.TopicSubs)
			for k := 0; k < cfg.TopicSubs; k++ {
				name := topicNames[topicZipf.Uint64()]
				if seen[name] {
					continue
				}
				seen[name] = true
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_, err := cluster.Nodes[p].Topic(name).Subscribe(ctx)
				cancel()
				if err != nil {
					return nil, fmt.Errorf("soak: subscribe %d to %s: %w", p, name, err)
				}
				subsOf[name] = append(subsOf[name], pid)
			}
		}
	}

	// Workload: seeded random publishers with at least one subscriber.
	wrng := rand.New(rand.NewSource(cfg.Seed + workloadSeedOffset))
	var latencies []float64
	wanted, delivered := 0, 0
	eligibleWanted, eligibleDelivered := 0, 0
	rejoinedWanted, rejoinedDelivered := 0, 0
	hopTotal, hopCount := 0, 0
	attackWanted, attackDelivered := 0, 0
	attackHopTotal, attackHopCount := 0, 0
	type pubRecord struct {
		pub  overlay.PeerID
		seq  uint32
		subs []overlay.PeerID
	}
	var posted []pubRecord
	sharedMax := 0
	for post := 0; post < cfg.Posts; post++ {
		var pub overlay.PeerID
		for attempt := 0; ; attempt++ {
			pub = overlay.PeerID(wrng.Intn(cfg.N))
			if g.Degree(pub) == 0 || offline[pub] || attackers[pub] {
				continue
			}
			// Prefer a currently-live publisher; after enough tries take
			// any (churn floors keep at least half the network online, so
			// this is a formality).
			if attempt > 10*cfg.N || !fn.CrashedAt(fn.Step(), int32(pub)) {
				break
			}
		}
		var subs []overlay.PeerID
		var seq uint32
		start := time.Now()
		if cfg.Topics > 0 {
			name := topicNames[topicZipf.Uint64()]
			for _, s := range subsOf[name] {
				if s != pub {
					subs = append(subs, s)
				}
			}
			var perr error
			seq, perr = cluster.Nodes[pub].Topic(name).Publish(nil, node.WithSize(cfg.PayloadSize))
			if perr != nil {
				return nil, fmt.Errorf("soak: topic publish %s from %d: %w", name, pub, perr)
			}
		} else {
			subs = g.Neighbors(pub)
			seq, _ = cluster.Nodes[pub].Topic(node.UserTopic(pub)).Publish(nil, node.WithSize(cfg.PayloadSize))
		}
		posted = append(posted, pubRecord{pub: pub, seq: seq, subs: subs})
		// The harness only waits — and only for subscribers that are up;
		// the offline set's copies are owed through the durable tier and
		// scored after the rejoin replay. Repair — if any — is the
		// publisher's own engine re-sending on its seeded backoff schedule.
		await := subs
		if len(offline) > 0 || len(attackers) > 0 {
			await = nil
			for _, s := range subs {
				if !offline[s] && !attackers[s] {
					await = append(await, s)
				}
			}
		}
		waitCtx, waitCancel := context.WithDeadline(context.Background(), start.Add(cfg.DeliverTimeout))
		cluster.AwaitDelivery(waitCtx, pub, seq, await)
		waitCancel()
		lat := float64(time.Since(start).Milliseconds())
		latencies = append(latencies, lat)
		met.ObserveLatencyMS(lat)
		scoreStep := fn.Step()
		sharedMax = max(sharedMax, cluster.AuditRing().SharedPositions)
		for _, s := range subs {
			hops, got := cluster.Nodes[s].Received(pub, seq)
			wanted++
			if got {
				delivered++
				hopTotal += int(hops)
				hopCount++
			}
			// A subscriber crashed at scoring time is not eligible: no
			// protocol can notify a dead phone. (Fig. 6 measures the
			// availability of the notification service, not of handsets.)
			// The deliberately-offline set is scored after its rejoin
			// replay instead, never here.
			// Attackers are excluded too — no availability promise is owed
			// to a byzantine peer. The victim stays eligible: that is the
			// promise under attack.
			if !fn.CrashedAt(scoreStep, int32(s)) && !offline[s] && !attackers[s] {
				eligibleWanted++
				if got {
					eligibleDelivered++
				}
				if attackKind != faultnet.AttackNone && scoreStep >= attackStart && scoreStep < attackStop {
					attackWanted++
					if got {
						attackDelivered++
						attackHopTotal += int(hops)
						attackHopCount++
					}
				}
				rj.mu.Lock()
				wasRejoined := rj.rejoined[s]
				rj.mu.Unlock()
				// The churn-arm acceptance metric: notifications owed to
				// subscribers that crashed, lost their overlay state, and
				// came back through the live join protocol.
				if wasRejoined {
					rejoinedWanted++
					if got {
						rejoinedDelivered++
					}
				}
			}
		}
	}

	// Offline-subscriber arm, second act: bring the offline set back
	// through the live join protocol and wait for the durable tier's
	// replay to deliver everything they were owed, then score EVERY
	// subscriber of every publication — the at-least-once gate.
	offlineWanted, offlineDelivered := 0, 0
	allWanted, allDelivered := 0, 0
	if len(offline) > 0 {
		for p := range offline {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := cluster.Rejoin(ctx, p, -1)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("soak: offline rejoin of %d: %w", p, err)
			}
		}
		// Replay drains highest-priority-first on the claim leases; wait
		// per publication like the workload did, now over all subscribers.
		replayDeadline := time.Now().Add(cfg.DeliverTimeout + time.Duration(len(offline))*time.Second)
		for _, pr := range posted {
			waitCtx, waitCancel := context.WithDeadline(context.Background(), replayDeadline)
			cluster.AwaitDelivery(waitCtx, pr.pub, pr.seq, pr.subs)
			waitCancel()
		}
		for _, pr := range posted {
			for _, s := range pr.subs {
				_, got := cluster.Nodes[s].Received(pr.pub, pr.seq)
				allWanted++
				if got {
					allDelivered++
				}
				if offline[s] {
					offlineWanted++
					if got {
						offlineDelivered++
					}
				}
			}
		}
	}

	// Post-churn phase: wait out the fault schedule (and, with LiveRejoin,
	// the last stragglers' re-joins), then measure what hop counts the
	// maintenance loop converged back to on a clean network.
	postHopTotal, postHopCount := 0, 0
	// settled marks an arm whose membership stopped changing before it
	// ended: the joins came before the workload and nothing crashes, or the
	// post-churn phase below ran behind the fault schedule.
	settled := liveJoins > 0 && fn.Schedule() == nil
	if cfg.PostChurnPosts > 0 && cfg.Fault.Tick > 0 && cfg.Fault.Steps > 0 {
		settled = true
		settle := time.Now().Add(30 * time.Second)
		for time.Now().Before(settle) {
			if fn.Step() >= cfg.Fault.Steps {
				joined := 0
				for _, nd := range cluster.Nodes {
					if nd.Joined() {
						joined++
					}
				}
				if !cfg.LiveRejoin || joined == cfg.N {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
		// Late re-joiners came back with empty strength tables and no
		// learned bitmaps; give the exchange and maintenance loops time to
		// rebuild their long links before judging overlay quality.
		if cfg.PostChurnSettle == 0 {
			cfg.PostChurnSettle = time.Second
		}
		time.Sleep(cfg.PostChurnSettle)
		for post := 0; post < cfg.PostChurnPosts; post++ {
			var pub overlay.PeerID
			for {
				pub = overlay.PeerID(wrng.Intn(cfg.N))
				if g.Degree(pub) > 0 {
					break
				}
			}
			subs := g.Neighbors(pub)
			seq, _ := cluster.Nodes[pub].Topic(node.UserTopic(pub)).Publish(nil, node.WithSize(cfg.PayloadSize))
			waitCtx, waitCancel := context.WithTimeout(context.Background(), cfg.DeliverTimeout)
			cluster.AwaitDelivery(waitCtx, pub, seq, subs)
			waitCancel()
			for _, s := range subs {
				if hops, ok := cluster.Nodes[s].Received(pub, seq); ok {
					postHopTotal += int(hops)
					postHopCount++
				}
			}
		}
	}

	close(stopDriver)
	driverCancel()
	driverWG.Wait()
	rj.mu.Lock()
	rejoins := rj.rejoins
	rj.mu.Unlock()

	// Overlay quality at the end of the run: mean link-bucket coverage
	// over peers currently in the ring.
	coverage, covered := 0.0, 0
	for _, nd := range cluster.Nodes {
		if nd.Joined() {
			coverage += nd.LinkCoverage()
			covered++
		}
	}
	if covered > 0 {
		coverage /= float64(covered)
	}

	// Restabilisation probe: a settled arm's ring must find its legitimate
	// state again — identifiers still move for a few seconds after the last
	// re-join — and gets ringSettleMax to do it; any other arm is sampled as
	// it stands.
	ringAudit := cluster.AuditRing()
	if settled {
		for deadline := time.Now().Add(ringSettleMax); ringAudit.First != "" && time.Now().Before(deadline); ringAudit = cluster.AuditRing() {
			time.Sleep(20 * time.Millisecond)
		}
	}
	snap := met.Snapshot()
	r := &Report{
		Config: ConfigSummary{
			N: cfg.N, Seed: cfg.Seed, Dataset: cfg.Dataset, TCP: cfg.TCP,
			Posts: cfg.Posts, Drop: cfg.Fault.DropProb, Recovery: cfg.Recovery,
			BootstrapFrac: cfg.BootstrapFrac, LiveRejoin: cfg.LiveRejoin,
			OfflineFrac: cfg.OfflineFrac, Inbox: cfg.Inbox,
			Topics: cfg.Topics, TopicZipf: cfg.TopicZipf,
			Attack: attackKind.String(), Defenses: cfg.Defenses,
			GossipEveryMS: float64(nopts.GossipEvery) / float64(time.Millisecond),
		},
		Posts: cfg.Posts, Wanted: wanted, Delivered: delivered,
		EligibleWanted: eligibleWanted, EligibleDelivered: eligibleDelivered,
		HeadOccupancy: -1, ForgedOccupancy: -1,
		LiveJoins: liveJoins, Rejoins: rejoins,
		RejoinedWanted: rejoinedWanted, RejoinedDelivered: rejoinedDelivered,
		MeanLinkCoverage: coverage,
		SharedPositions:  max(sharedMax, ringAudit.SharedPositions),
		OffCycle:         ringAudit.OffCycle,
		RingFault:        ringAudit.First,
		RingSettled:      settled,
		Duplicates:       met.Get(obs.CPublishDuplicate),
		LatencyMSP50:     metrics.Quantile(latencies, 0.5),
		LatencyMSP90:     metrics.Quantile(latencies, 0.9),
		LatencyMSP99:     metrics.Quantile(latencies, 0.99),
		HopFractions:     snap.HopFractions,
		RecoveryActions:  met.Get(obs.CCMADeadSkip) + met.Get(obs.CCMARandomWalk),
		Retries:          met.Get(obs.CRetrySent),
		DeadLetters:      met.Get(obs.CDeadLetter),
		Obs:              snap,
		RunSeconds:       time.Since(started).Seconds(),
	}
	if delivered > 0 {
		r.FramesPerDelivered = float64(met.Get(obs.CTransportSend)) / float64(delivered)
	}
	if len(offline) > 0 {
		dupMu.Lock()
		r.DuplicateDeliveries = dupDeliveries
		dupMu.Unlock()
		r.OfflineCount = len(offline)
		r.OfflineWanted, r.OfflineDelivered = offlineWanted, offlineDelivered
		r.AllWanted, r.AllDelivered = allWanted, allDelivered
		if offlineWanted > 0 {
			r.OfflineRate = float64(offlineDelivered) / float64(offlineWanted)
		}
		if allWanted > 0 {
			r.AllRate = float64(allDelivered) / float64(allWanted)
		}
		r.InboxDeposits = met.Get(obs.CInboxDeposit)
		r.InboxReplayed = met.Get(obs.CInboxReplayed)
		r.InboxDepth = cluster.InboxDepth()
	}
	if wanted > 0 {
		r.RawRate = float64(delivered) / float64(wanted)
		r.DuplicateRate = float64(r.Duplicates) / float64(wanted)
	}
	if eligibleWanted > 0 {
		r.DeliveryRate = float64(eligibleDelivered) / float64(eligibleWanted)
	}
	if rejoinedWanted > 0 {
		r.RejoinAvailability = float64(rejoinedDelivered) / float64(rejoinedWanted)
	}
	if hopCount > 0 {
		r.MeanHops = float64(hopTotal) / float64(hopCount)
	}
	if postHopCount > 0 {
		r.PostChurnMeanHops = float64(postHopTotal) / float64(postHopCount)
	}
	if cfg.Topics > 0 {
		r.Topics = cfg.Topics
		r.HotTopicSubs = len(subsOf[topicNames[0]])
		r.TopicRehomes = met.Get(obs.CTopicRehome)
		r.TopicHandoffs = met.Get(obs.CTopicHandoff)
		r.TopicFanoutCopies = met.Get(obs.CTopicFanout)
		r.TopicAckShared = met.Get(obs.CTopicAckShared)
	}
	if attackKind != faultnet.AttackNone {
		r.Attack = attackKind.String()
		r.Defenses = cfg.Defenses
		r.AttackerCount = len(cohort)
		r.AttackTarget = int32(attackTarget)
		r.AttackStart, r.AttackStop = attackStart, attackStop
		r.AttackWanted, r.AttackDelivered = attackWanted, attackDelivered
		if attackWanted > 0 {
			r.AttackRate = float64(attackDelivered) / float64(attackWanted)
		}
		if attackHopCount > 0 {
			r.AttackMeanHops = float64(attackHopTotal) / float64(attackHopCount)
		}
		restabMu.Lock()
		r.RestabilizeMS = restabilizeMS
		r.HeadOccupancy = headOccupancy
		r.ForgedOccupancy = forgedOccupancy
		restabMu.Unlock()
		if r.RestabilizeMS >= 0 && cfg.MaintainEvery > 0 {
			r.RestabilizeTicks = int(r.RestabilizeMS/float64(cfg.MaintainEvery.Milliseconds())) + 1
		}
		r.SybilRejected = met.Get(obs.CSybilRejected)
		r.SybilDiverted = met.Get(obs.CSybilDiverted)
		r.EclipseDisplaced = met.Get(obs.CEclipseDisplaced)
		r.PosRejected = met.Get(obs.CPosRejected)
		r.StrengthClamped = met.Get(obs.CStrengthClamped)
	}
	if s := fn.Schedule(); s != nil {
		r.FaultEvents = len(s.Ev)
		r.FaultTrace = s.Trace()
	}
	return r, nil
}

// ringSettleMax bounds the wait for a settled arm's ring to pass the audit
// at the end of a run. A 60-peer churn arm needs about three seconds.
const ringSettleMax = 15 * time.Second

// rejoinTracker records which peers completed the live join protocol
// again after a churn crash; shared between the churn driver's rejoin
// goroutines and the scoring loop.
type rejoinTracker struct {
	mu       sync.Mutex
	rejoined map[overlay.PeerID]bool
	rejoins  int
}

// Seed offsets keep the workload and fault streams independent of the
// graph/overlay stream while remaining pure functions of Config.Seed.
const (
	faultSeedOffset    = 1_000_003
	workloadSeedOffset = 2_000_003
	offlineSeedOffset  = 3_000_017
	topicSeedOffset    = 4_000_037
)
