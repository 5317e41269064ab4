package soak

import (
	"strings"
	"testing"
	"time"

	"selectps/internal/churn"
	"selectps/internal/faultnet"
)

// ciConfig is a seconds-scale chaos soak used by the CI smoke tests:
// drop/dup faults on every link, no timed faults, so delivery scoring is
// purely about loss recovery.
func ciConfig(seed int64, recovery bool) Config {
	return Config{
		N: 80, Seed: seed, Dataset: "facebook", Posts: 10, PayloadSize: 1000,
		Fault: faultnet.Config{
			DropProb: 0.20,
			DupProb:  0.03,
		},
		Recovery:       recovery,
		HeartbeatEvery: 20 * time.Millisecond,
		GossipEvery:    50 * time.Millisecond,
		RetryEvery:     15 * time.Millisecond,
		DeliverTimeout: 800 * time.Millisecond,
	}
}

// chaosConfig adds the full timed-fault schedule (churn crashes +
// partitions) on top of the probabilistic faults.
func chaosConfig(seed int64) Config {
	m := churn.DefaultModel()
	cfg := ciConfig(seed, true)
	cfg.N = 60
	cfg.Posts = 6
	cfg.Fault.DropProb = 0.05
	cfg.Fault.Tick = 10 * time.Millisecond
	cfg.Fault.Steps = 2000
	cfg.Fault.Churn = &m
	cfg.Fault.PartitionEvery = 150
	cfg.Fault.PartitionFor = 20
	cfg.Fault.PartitionFrac = 0.2
	cfg.DeliverTimeout = 1500 * time.Millisecond
	return cfg
}

// checkRing asserts the ring invariant on a report. No two members ever
// share a ring position, whatever the faults; an arm that ended on a
// convergence wait (settled) must also have every member on the one
// successor cycle, an arm that ended mid-churn only reports how many were
// not.
func checkRing(t *testing.T, r *Report, settled bool) {
	t.Helper()
	if r.SharedPositions != 0 {
		t.Errorf("%d members shared a ring position: %s", r.SharedPositions, r.RingFault)
	}
	if r.RingSettled != settled {
		t.Errorf("the run reports ring_settled=%v, want %v", r.RingSettled, settled)
	}
	switch {
	case settled && (r.OffCycle != 0 || r.RingFault != ""):
		t.Errorf("the settled ring is not one successor cycle: %d members off it (%s)", r.OffCycle, r.RingFault)
	case r.OffCycle != 0:
		t.Logf("ring at the end of the run: %d members off the successor cycle (%s)", r.OffCycle, r.RingFault)
	}
}

// TestSoakFaultTraceReproducible is the determinism acceptance test: two
// soak runs with the same seed must record byte-identical injected-fault
// traces; a different seed must not.
func TestSoakFaultTraceReproducible(t *testing.T) {
	cfg := chaosConfig(7)
	cfg.Posts = 2 // trace identity does not need a long workload
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultTrace == "" {
		t.Fatal("soak with timed faults recorded no fault trace")
	}
	if a.FaultTrace != b.FaultTrace {
		t.Fatalf("same seed produced different fault traces:\n--- run 1\n%s\n--- run 2\n%s", a.FaultTrace, b.FaultTrace)
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if c.FaultTrace == a.FaultTrace {
		t.Fatal("different seeds produced identical fault traces")
	}
	for _, r := range []*Report{a, b, c} {
		checkRing(t, r, false)
	}
}

// TestSoakRecoveryBeatsNoRecovery is the live Fig. 6: under the same
// seeded drop schedule, CMA recovery + publisher retries hold
// availability at >=99% while the ablated system measurably degrades.
func TestSoakRecoveryBeatsNoRecovery(t *testing.T) {
	on, err := Run(ciConfig(3, true))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(ciConfig(3, false))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("recovery on:  %.4f (%d/%d), retries=%d", on.DeliveryRate, on.EligibleDelivered, on.EligibleWanted, on.Retries)
	t.Logf("recovery off: %.4f (%d/%d)", off.DeliveryRate, off.EligibleDelivered, off.EligibleWanted)
	if on.DeliveryRate < 0.99 {
		t.Errorf("availability with recovery = %.4f, want >= 0.99", on.DeliveryRate)
	}
	if off.DeliveryRate >= on.DeliveryRate {
		t.Errorf("no-recovery availability %.4f not below recovery %.4f", off.DeliveryRate, on.DeliveryRate)
	}
	if off.DeliveryRate > 0.97 {
		t.Errorf("no-recovery availability %.4f suspiciously high for 20%% loss — are faults being injected?", off.DeliveryRate)
	}
	if on.Retries == 0 {
		t.Error("recovery arm performed no retries under 20% loss")
	}
	if off.Retries != 0 {
		t.Errorf("ablated arm performed %d retries", off.Retries)
	}
	// With recovery on, identifiers are still moving when ten posts are out.
	// Without it there is no maintenance either: the bootstrap ring stays put.
	checkRing(t, on, false)
	checkRing(t, off, false)
	if off.OffCycle != 0 {
		t.Errorf("the ablated arm's ring never moves, and is not one successor cycle: %s", off.RingFault)
	}
}

// TestSoakSmokeChaos runs the full failure model — loss, duplication,
// churn crashes, partitions — and checks the service stays available to
// eligible (non-crashed) subscribers with recovery on.
func TestSoakSmokeChaos(t *testing.T) {
	r, err := Run(chaosConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos soak: eligible %.4f raw %.4f, %d fault events, %d recovery actions, %d retries",
		r.DeliveryRate, r.RawRate, r.FaultEvents, r.RecoveryActions, r.Retries)
	if r.FaultEvents == 0 {
		t.Fatal("chaos config scheduled no fault events")
	}
	if r.DeliveryRate < 0.9 {
		t.Errorf("eligible availability %.4f under chaos, want >= 0.9", r.DeliveryRate)
	}
	if r.Obs.Counters["publish_delivered"] == 0 {
		t.Error("obs snapshot recorded no deliveries")
	}
	checkRing(t, r, false)
}

// TestSoakLiveJoinBootstrap bootstraps only a quarter of the peers from
// the converged overlay; the rest join the running cluster through the
// live join protocol before the workload, and availability must match
// the fully-bootstrapped arm.
func TestSoakLiveJoinBootstrap(t *testing.T) {
	cfg := ciConfig(13, true)
	cfg.N = 60
	cfg.Posts = 6
	cfg.GossipEvery = 15 * time.Millisecond
	cfg.MaintainEvery = 20 * time.Millisecond
	cfg.BootstrapFrac = 0.25
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live-join soak: joins=%d availability=%.4f mean hops=%.2f coverage=%.2f",
		r.LiveJoins, r.DeliveryRate, r.MeanHops, r.MeanLinkCoverage)
	if want := cfg.N - cfg.N/4; r.LiveJoins < want-2 {
		t.Errorf("only %d live joins, want ~%d", r.LiveJoins, want)
	}
	if r.DeliveryRate < 0.99 {
		t.Errorf("live-join availability %.4f, want >= 0.99", r.DeliveryRate)
	}
	if r.MeanLinkCoverage == 0 {
		t.Error("link-bucket coverage never left zero: the live Algorithm-5 pass built no links")
	}
	// The joins came before the workload: the ring has had the whole run to
	// settle around them.
	checkRing(t, r, true)
}

// TestSoakChurnRejoinAvailability is the churn-arm acceptance test:
// crashed peers lose their overlay state, re-join live when their churn
// window ends, and the notifications owed to those re-joined subscribers
// regain >=99% availability; overlay quality (hop counts, link-bucket
// coverage) stays near the pre-churn baseline from the same seed.
func TestSoakChurnRejoinAvailability(t *testing.T) {
	// Pre-churn baseline: same seed and faults minus the churn schedule.
	base := ciConfig(17, true)
	base.N = 60
	base.Posts = 6
	base.MaintainEvery = 20 * time.Millisecond
	base.Fault.DropProb = 0.05
	base.DeliverTimeout = 1500 * time.Millisecond
	r0, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	m := churn.DefaultModel()
	cfg := base
	cfg.Posts = 10
	cfg.Fault.Tick = 10 * time.Millisecond
	cfg.Fault.Steps = 300 // the schedule runs out mid-test: churn, then calm
	cfg.Fault.Churn = &m
	cfg.LiveRejoin = true
	cfg.PostChurnPosts = 5
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("churn arm: rejoins=%d rejoined availability=%.4f (%d/%d)",
		r.Rejoins, r.RejoinAvailability, r.RejoinedDelivered, r.RejoinedWanted)
	t.Logf("overlay quality: during-churn hops %.2f, post-churn hops %.2f vs baseline %.2f, coverage %.2f vs baseline %.2f",
		r.MeanHops, r.PostChurnMeanHops, r0.MeanHops, r.MeanLinkCoverage, r0.MeanLinkCoverage)
	if r.Rejoins == 0 {
		t.Fatal("churn schedule produced no live rejoins")
	}
	if r.RejoinedWanted == 0 {
		t.Fatal("no notifications were scored for re-joined subscribers")
	}
	if r.RejoinAvailability < 0.99 {
		t.Errorf("re-joined subscriber availability %.4f, want >= 0.99", r.RejoinAvailability)
	}
	// Overlay quality converges back toward the pre-churn baseline once
	// the schedule runs out: hop counts within 50% (plus a half-hop
	// floor), coverage within 0.25.
	if r.PostChurnMeanHops == 0 {
		t.Fatal("post-churn phase measured no deliveries")
	}
	if r.PostChurnMeanHops > r0.MeanHops*1.5+0.5 {
		t.Errorf("post-churn mean hops %.2f far above baseline %.2f", r.PostChurnMeanHops, r0.MeanHops)
	}
	if r.MeanLinkCoverage < r0.MeanLinkCoverage-0.25 {
		t.Errorf("churn-arm link coverage %.2f far below baseline %.2f", r.MeanLinkCoverage, r0.MeanLinkCoverage)
	}
	// The churn arm ends on the post-churn phase — every peer re-joined, a
	// settle, five more publications — and the restabilisation probe; the
	// baseline ends a second after it started, identifiers still moving.
	checkRing(t, r0, false)
	checkRing(t, r, true)
}

// TestSoakOfflineInboxReplay is the durable-tier acceptance test: a
// third of the peers are crashed before any publication goes out and
// stay down through the whole workload, so every notification owed to
// them must survive in their replica inboxes. After they rejoin, the
// claim/lease replay must deliver ALL of it — at-least-once to 100% of
// subscribers, zero dead letters, zero app-level duplicate deliveries.
func TestSoakOfflineInboxReplay(t *testing.T) {
	cfg := ciConfig(23, true)
	cfg.N = 60
	cfg.Posts = 6
	cfg.MaintainEvery = 20 * time.Millisecond
	cfg.OfflineFrac = 0.3
	cfg.Inbox = true
	cfg.DeliverTimeout = 1500 * time.Millisecond
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("offline arm: %d offline peers, owed %d/%d delivered after replay, all-subscriber %d/%d = %.4f",
		r.OfflineCount, r.OfflineDelivered, r.OfflineWanted, r.AllDelivered, r.AllWanted, r.AllRate)
	t.Logf("durable tier: %d deposits, %d replayed, %d pending, %d dead letters, %d app duplicates",
		r.InboxDeposits, r.InboxReplayed, r.InboxDepth, r.DeadLetters, r.DuplicateDeliveries)
	if r.OfflineCount == 0 || r.OfflineWanted == 0 {
		t.Fatal("offline arm scored no offline subscribers — the scenario never engaged")
	}
	if r.InboxDeposits == 0 {
		t.Error("no deposits reached the durable tier despite offline subscribers")
	}
	if r.AllRate != 1.0 {
		t.Errorf("all-subscriber delivery rate %.4f after rejoin replay, want 1.0", r.AllRate)
	}
	if r.DeadLetters != 0 {
		t.Errorf("%d publications dead-lettered; the durable tier must absorb offline subscribers", r.DeadLetters)
	}
	if r.DuplicateDeliveries != 0 {
		t.Errorf("%d app-level duplicate deliveries; replay dedup is part of the contract", r.DuplicateDeliveries)
	}
	checkRing(t, r, false)
}

// TestSoakOverTCP exercises the same harness over real loopback sockets:
// faultnet composes over the TCP transport unchanged.
func TestSoakOverTCP(t *testing.T) {
	cfg := ciConfig(9, true)
	cfg.N = 30
	cfg.Posts = 4
	cfg.TCP = true
	// The race detector slows the socket path by ~10x; give the protocol
	// room so the assertion stays about recovery, not about wall clock.
	cfg.HeartbeatEvery = 50 * time.Millisecond
	cfg.DeliverTimeout = 4 * time.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveryRate < 0.99 {
		t.Errorf("TCP soak availability %.4f, want >= 0.99", r.DeliveryRate)
	}
	if r.Obs.Counters["tcp_dial"] == 0 {
		t.Error("TCP soak dialed no connections")
	}
	checkRing(t, r, false)
}

// TestSoakReportExports sanity-checks the text and JSON renderings.
func TestSoakReportExports(t *testing.T) {
	cfg := ciConfig(11, true)
	cfg.N = 40
	cfg.Posts = 3
	cfg.TraceCap = 64
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	txt := r.String()
	for _, want := range []string{"availability", "duplicates absorbed", "recovery actions", "routing: direct=", "ring: shared_positions=0 off_cycle="} {
		if !strings.Contains(txt, want) {
			t.Errorf("report text missing %q:\n%s", want, txt)
		}
	}
	raw, err := r.Obs.JSON()
	if err != nil || len(raw) == 0 {
		t.Fatalf("obs JSON export: %v", err)
	}
	if len(r.Obs.Trace) == 0 {
		t.Error("structured trace enabled but empty")
	}
	checkRing(t, r, false)
}
