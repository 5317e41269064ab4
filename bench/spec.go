package main

import "time"

// Cluster settings shared by every workload: the at-least-once
// configuration (repair on, durable inbox tier on, ack batching auto,
// heartbeat piggybacking on, Obs attached), never the RetryBase=0
// ablation arm the old livebench flood measured.
//
// The durable tier is on everywhere, not only under churn: without it a
// fault-free seed cluster dead-letters a few notifications in most runs
// (a (publisher, subscriber) pair whose copies loop until the retry
// budget is spent, a subscriber a stalled host made look dead), between
// 0 and 100 of 40–90 thousand, and a workload on which operations fail
// cannot be compared run against run. With it the copy that spent its
// direct budget is deposited and replayed, about five seconds late.
const (
	retryBase   = 50 * time.Millisecond
	payloadSize = 256 // bytes per publication body, verified on delivery
	mailbox     = 4096

	// topicLease replaces the default of 500 ms. A subscriber refreshes at
	// half the lease on the maintain tick, so at a 200 ms period the
	// default leaves 100 ms between a refresh and the expiry of the lease
	// it renews: one late tick unregisters the subscriber, and every
	// publication of the next tick never reaches it (1–16 per run on the
	// seed). Ten periods is the margin the soak's flash-crowd arm gives it.
	topicLease = 2 * time.Second

	// A fresh cluster is still converging: Algorithm-2 identifier moves
	// shift topic rendezvous sets (a thousand re-homes in the first seconds
	// at n=200) and lookahead caches fill one gossip exchange per friend
	// per round. Measured earlier than ~25 gossip rounds after Start, tail
	// latency and failures are decided by start-up, not by the layers
	// under test; settle + idle + warm-up is 8 s, 40 rounds at 200 ms.
	// setupRuns is how many times a run sets its cluster up; setup_s is
	// the median. One cold set-up takes 30–120 ms and spread by 30% of its
	// median over ten runs.
	setupRuns = 15

	settleTime = 2 * time.Second
	idleTime   = 4 * time.Second // started cluster, no publications: idle_cpu_cores
	warmTime   = 2 * time.Second // load on, untimed

	// lateLimit is the latency limit behind ontime_frac / late_frac.
	lateLimit = 100 * time.Millisecond
	// genLateLimit marks a run invalid: above it the numbers measure
	// the driver, not the program.
	genLateLimit = 5 * time.Millisecond

	// The drain ends ackGrace after the last owed notification. While
	// some are missing it goes on until nothing has arrived for drainQuiet —
	// longer than the direct retry budget (about 4.75 s at RetryBase 50 ms),
	// after which the durable tier replays — or until drainCap.
	drainQuiet = 7 * time.Second
	drainCap   = 20 * time.Second
	ackGrace   = 100 * time.Millisecond

	// sliceLen is the length of the slices the measured window is cut
	// into: the per-notification costs are medians over them.
	sliceLen = 1 * time.Second

	// Ladder: rungs at rate·ladderStep^k pub/s. From k = ladderFirst to
	// ladderLast every exponent gets a rung of ladderRung, which is the
	// resolution the knee is read at. Below ladderFirst only every
	// ladderApproach-th exponent gets one, of half the length: the fixed
	// rate is well under half the knee, so those rungs always pass, but
	// without them the load would jump 2.7× in one step, and that shock
	// alone (a burst of first-time dials and retries) failed the first
	// fine rung in half the runs.
	ladderRung     = 1 * time.Second
	ladderStep     = 1.08
	ladderApproach = 3
	ladderFirst    = 10
	ladderLast     = 20
	ladderGap      = 20 * time.Millisecond // between rungs: verdict of the previous rung is computed here
	// A rung fails when its p99 exceeds lateLimit — a notification not
	// delivered yet counts as slower than any delivered one, so losing 1%
	// fails it too — or when its backlog at the end of the rung exceeds one
	// second of offered load. The issue's third rule, fewer than 99.9%
	// delivered, is left out: at any load the seed's retry tail leaves
	// 0.1–0.3% of copies beyond half a second, and the rule tripped on
	// those, not on the knee. ladderDeadline only bounds what counts
	// toward a rung's delivered rate.
	ladderDeadline = 1 * time.Second

	// Churn (inbox-churn-tcp): churnOffline of the peers are kept
	// offline; every churnEvery the longest-offline peer rejoins and a
	// random online peer crashes.
	churnOffline = 0.30
	churnEvery   = 250 * time.Millisecond
	// A peer is not crashed again, and does not publish, for churnRest
	// after its planned rejoin: the join protocol needs a moment.
	churnRest = 2 * time.Second
)

// workload is one cluster shape plus one load shape. Rates are
// publications per second, calibrated on the seed commit to about half
// its knee and then frozen: a later change may not retune them.
type workload struct {
	name   string
	why    string
	n      int
	tcp    bool
	period time.Duration // heartbeat = gossip = maintain interval
	rate   float64
	topics int // > 0: named-topic publishes over this many Zipf(1.2) topics, 2 subscriptions per peer
	churn  bool
	ladder bool
}

var workloads = []workload{
	{
		name: "feed-tcp", n: 60, tcp: true, period: 200 * time.Millisecond, rate: 400, ladder: true,
		why: "friend feed over loopback TCP at one hop: codec, marshal-once fan-out, coalescing writers, bulk ingress and ack batching do the work; routing idles",
	},
	{
		name: "relay-mem", n: 400, period: 200 * time.Millisecond, rate: 150,
		why: "multi-hop friend feed on the in-memory switchboard: nextHop, directory reads, relays, detector and the timer wheel dominate; codec and TCP are bypassed",
	},
	{
		name: "topic-mem", n: 200, period: 200 * time.Millisecond, rate: 125, topics: 64,
		why: "named topics with Zipf popularity: rendezvous over ringMembers per publish, registry leases and fan-out trees up to ~100 wide; friend-feed layers idle",
	},
	{
		name: "inbox-churn-tcp", n: 60, tcp: true, period: 200 * time.Millisecond, rate: 125, churn: true,
		why: "friend feed while 30% of peers are crashed on a seeded schedule: the repair engine writes deposits to R=2 journals and replays them on each rejoin",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef declares one metric: BENCHMARK.json is checked against
// these tables by the tests, so the file and the program cannot drift.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd metrics are printed by an untraced run on every workload.
// Each is defined, and never zero, on all four workloads. What the issue
// scoped to a single workload (sustained_notif_per_s, catchup_p50_ms),
// let reach zero (late_frac, failed_frac) or what sets of ten
// seed-commit runs do not reproduce within the contract's widest bound
// (cpu_us_per_notif, notify_p50_ms, notify_p99_ms, idle_cpu_cores: all
// times, and the shared host's speed moves by 20% from hour to hour) is
// kept under its own name in perLayer, ungated — see README.md.
//
// Bounds are at least three times the widest inter-quartile spread seen
// over ten seeds on the seed commit, capped at the contract's 0.25: the
// per-notification counts repeat within 1–8% from run to run (the live
// maintenance loop leaves a slightly different overlay behind each time,
// and hop count decides frames and allocations alike), so a tighter
// bound would reject changes that did nothing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ontime_frac", "ratio", "higher", 0.03},
	{"delivered_frac", "ratio", "higher", 0.005},
	{"frames_per_notif", "count", "lower", 0.25},
	{"allocs_per_notif", "count", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer metrics are printed by a traced run. The first block is the
// informational end-to-end rows; the rest follow the module ladder.
var perLayer = []metricDef{
	{name: "notify_p50_ms", unit: "ms", better: "lower"},
	{name: "notify_p99_ms", unit: "ms", better: "lower"},
	{name: "cpu_us_per_notif", unit: "us", better: "lower"},
	{name: "idle_cpu_cores", unit: "cores", better: "lower"},
	{name: "late_frac", unit: "ratio", better: "lower"},
	{name: "failed_frac", unit: "ratio", better: "lower"},
	{name: "sustained_notif_per_s", unit: "1/s", better: "higher"},
	{name: "catchup_p50_ms", unit: "ms", better: "lower"},

	{name: "datasets.generate_ms", unit: "ms", better: "lower"},
	{name: "pubsub.build_select_ms", unit: "ms", better: "lower"},
	{name: "node.start_ms", unit: "ms", better: "lower"},
	{name: "node.subscribe_rtt_p50_ms", unit: "ms", better: "lower"},
	{name: "node.shutdown_ms", unit: "ms", better: "lower"},

	{name: "wire.marshal_publish_ns", unit: "ns", better: "lower"},
	{name: "wire.unmarshal_publish_ns", unit: "ns", better: "lower"},
	{name: "wire.marshal_publish_4k_ns", unit: "ns", better: "lower"},
	{name: "wire.marshal_ackbatch64_ns", unit: "ns", better: "lower"},
	{name: "wire.unmarshal_ackbatch64_ns", unit: "ns", better: "lower"},
	{name: "wire.patch_fanout_ns", unit: "ns", better: "lower"},
	{name: "wire.allocs_per_roundtrip", unit: "count", better: "lower"},
	{name: "wire.frame_bytes_publish", unit: "bytes", better: "lower"},

	{name: "transport.tcp_send_p50_ns", unit: "ns", better: "lower"},
	{name: "transport.tcp_send_p99_ns", unit: "ns", better: "lower"},
	{name: "transport.tcp_oneway_p50_us", unit: "us", better: "lower"},
	{name: "transport.tcp_pipe_frames_per_s", unit: "1/s", better: "higher"},
	{name: "transport.frames_per_flush", unit: "count", better: "higher"},
	{name: "transport.env_per_ingress_batch", unit: "count", better: "higher"},
	{name: "transport.tcp_conns", unit: "count", better: "lower"},
	{name: "transport.goroutines", unit: "count", better: "lower"},
	{name: "transport.switchboard_send_p50_ns", unit: "ns", better: "lower"},
	{name: "transport.frames_data_per_notif", unit: "count", better: "lower"},
	{name: "transport.frames_ack_per_notif", unit: "count", better: "lower"},
	{name: "transport.frames_control_per_notif", unit: "count", better: "lower"},
	{name: "transport.bytes_per_notif", unit: "bytes", better: "lower"},
	{name: "transport.drops", unit: "count", better: "lower"},

	{name: "sched.schedule_ns", unit: "ns", better: "lower"},
	{name: "sched.cancel_ns", unit: "ns", better: "lower"},
	{name: "sched.advance_ns_per_fired", unit: "ns", better: "lower"},
	{name: "sched.loop_lag_p99_ms", unit: "ms", better: "lower"},

	{name: "node.publish_call_p50_us", unit: "us", better: "lower"},
	{name: "node.publish_call_p99_us", unit: "us", better: "lower"},
	{name: "node.topic_publish_call_p50_us", unit: "us", better: "lower"},
	{name: "node.hops_mean", unit: "count", better: "lower"},
	{name: "node.hop_gap_p50_us", unit: "us", better: "lower"},
	{name: "node.sojourn_p99_ms", unit: "ms", better: "lower"},
	{name: "node.forwarded_per_notif", unit: "count", better: "lower"},
	{name: "node.dup_copies_per_notif", unit: "count", better: "lower"},
	{name: "node.dead_end_per_notif", unit: "count", better: "lower"},
	{name: "node.retry_per_notif", unit: "count", better: "lower"},
	{name: "node.dead_letters", unit: "count", better: "lower"},
	{name: "node.ack_ttl_drop", unit: "count", better: "lower"},
	{name: "node.acks_per_batch", unit: "count", better: "higher"},
	{name: "node.heartbeat_suppressed_frac", unit: "ratio", better: "higher"},
	{name: "node.timer_shed", unit: "count", better: "lower"},
	{name: "node.link_dead_evict", unit: "count", better: "lower"},
	{name: "node.ring_splice", unit: "count", better: "lower"},
	{name: "node.idle_frames_per_peer_s", unit: "1/s", better: "lower"},

	{name: "selectcore.rendezvous_ns_n200", unit: "ns", better: "lower"},
	{name: "selectcore.rendezvous_ns_n4000", unit: "ns", better: "lower"},
	{name: "selectcore.tree_branches_ns_s256", unit: "ns", better: "lower"},
	{name: "node.topic_fanout_per_notif", unit: "count", better: "lower"},
	{name: "node.topic_rehome", unit: "count", better: "lower"},
	{name: "node.topic_lease_expire", unit: "count", better: "lower"},
	{name: "node.topic_handoff", unit: "count", better: "lower"},

	{name: "selectcore.inbox_replicas_ns_n60", unit: "ns", better: "lower"},
	{name: "selectcore.inbox_replicas_ns_n4000", unit: "ns", better: "lower"},
	{name: "selectcore.backoff_delay_ns", unit: "ns", better: "lower"},
	{name: "inbox.deposit_ns", unit: "ns", better: "lower"},
	{name: "inbox.next_ack_ns", unit: "ns", better: "lower"},
	{name: "inbox.recover_ms_10k", unit: "ms", better: "lower"},
	{name: "inbox.compact_ms_10k", unit: "ms", better: "lower"},
	{name: "inbox.bytes_per_record", unit: "bytes", better: "lower"},
	{name: "node.inbox_deposits_per_owed", unit: "count", better: "lower"},
	{name: "node.inbox_replay_per_owed", unit: "count", better: "lower"},
	{name: "node.inbox_lease_expire_per_rejoin", unit: "count", better: "lower"},
	{name: "node.inbox_replay_rate_per_sub", unit: "1/s", better: "higher"},
	{name: "node.rejoin_call_p50_ms", unit: "ms", better: "lower"},
	{name: "node.crash_call_us", unit: "us", better: "lower"},

	{name: "obs.inc_ns", unit: "ns", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "runtime.gc_pause_p99_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_inuse_mb", unit: "MB", better: "lower"},
	{name: "runtime.goroutines", unit: "count", better: "lower"},

	{name: "bench.gen_late_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.gen_cpu_frac", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}
