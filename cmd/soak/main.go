// Command soak runs the live availability soak (the live counterpart of
// the paper's Fig. 6): a cluster of node goroutines on a fault-injected
// transport, driven through a seeded churn + publication workload, with
// delivery rate, duplicate rate, latency/hop distributions and CMA
// recovery actions reported at the end.
//
// The entire failure schedule is a pure function of -seed: re-running
// with the same flags replays the exact same crashes, partitions and
// per-link loss decisions (print it with -trace).
//
//	soak -n 200 -posts 50 -drop 0.1 -churn
//	soak -n 100 -posts 20 -drop 0.2 -compare      # recovery on vs off
//	soak -n 60 -posts 10 -tcp -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"selectps/internal/churn"
	"selectps/internal/faultnet"
	"selectps/internal/soak"
)

func main() {
	var (
		n       = flag.Int("n", 100, "number of live peers")
		posts   = flag.Int("posts", 20, "publications to drive")
		seed    = flag.Int64("seed", 1, "seed for graph, workload and fault schedule")
		dataset = flag.String("dataset", "facebook", "social graph shape")
		useTCP  = flag.Bool("tcp", false, "real TCP loopback sockets instead of the in-memory switchboard")

		drop    = flag.Float64("drop", 0.10, "per-link message drop probability")
		dup     = flag.Float64("dup", 0.02, "per-link duplication probability")
		reorder = flag.Float64("reorder", 0.02, "per-link reorder probability")
		delay   = flag.Duration("delay-max", 2*time.Millisecond, "max injected per-message delay (0 disables)")

		churnOn  = flag.Bool("churn", false, "crash/restart peers from the log-normal session model")
		partEach = flag.Int("partition-every", 0, "schedule a partition every N steps (0 disables)")
		partFor  = flag.Int("partition-for", 50, "partition duration in steps")
		partFrac = flag.Float64("partition-frac", 0.2, "fraction of peers cut off per partition")
		tick     = flag.Duration("tick", 20*time.Millisecond, "real-time duration of one schedule step")
		steps    = flag.Int("steps", 3000, "schedule horizon in steps")

		recovery = flag.Bool("recovery", true, "CMA heartbeats + publisher retries (the Fig. 6 mechanism)")
		timeout  = flag.Duration("timeout", 3*time.Second, "per-publication delivery deadline")

		bootFrac   = flag.Float64("bootstrap-frac", 0, "fraction of peers bootstrapped from the converged overlay; the rest join live (0 or 1 = everyone)")
		liveRejoin = flag.Bool("live-rejoin", false, "churn crashes destroy overlay state; peers re-join through the live join protocol")
		postPosts  = flag.Int("post-churn-posts", 0, "extra publications measured after the fault schedule ends (overlay-quality convergence)")

		offlineFrac = flag.Float64("offline-frac", 0, "fraction of peers offline for the whole workload; they rejoin at the end and are scored on inbox replay")
		inboxOn     = flag.Bool("inbox", false, "durable delivery tier: deposit publications for offline subscribers on their inbox replicas")

		topics    = flag.Int("topics", 0, "flash-crowd arm: publish to this many Zipf-popular named topics instead of friend feeds (0 disables)")
		topicZipf = flag.Float64("topic-zipf", 1.2, "Zipf exponent for topic popularity (topic 0 is the hot hashtag)")
		topicSubs = flag.Int("topic-subs", 2, "topic subscriptions per peer")
		assertAll = flag.Bool("assert-all", false, "exit 1 unless every subscriber (offline included) was delivered with zero dead letters and zero duplicate app deliveries")

		attack       = flag.String("attack", "none", "adversarial arm: none, sybil, eclipse or liar")
		attackFrac   = flag.Float64("attack-frac", 0.05, "fraction of peers recruited as attackers")
		attackFrom   = flag.Int("attack-from", 0, "step the attack window opens (0 = Steps/4)")
		attackFor    = flag.Int("attack-for", 0, "attack window length in steps (0 = Steps/2)")
		attackTarget = flag.Int("attack-target", -1, "victim peer (-1 = drawn from the seed)")
		defenses     = flag.Bool("defenses", true, "hardened nodes: admission rate limits, arc caps, position cross-checks, strength clamps")
		minAvail     = flag.Float64("min-avail", 0, "exit 1 if eligible availability falls below this fraction (CI floor; 0 disables)")

		compare    = flag.Bool("compare", false, "run recovery on AND off over the same fault schedule")
		asJSON     = flag.Bool("json", false, "emit the obs snapshot as JSON")
		reportJSON = flag.Bool("report-json", false, "emit the full report as JSON (for bench assembly)")
		trace      = flag.Bool("trace", false, "print the injected fault schedule")
		traceCap   = flag.Int("trace-cap", 0, "retain the last N structured obs events (0 disables)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := soak.Config{
		N: *n, Seed: *seed, Dataset: *dataset, TCP: *useTCP,
		Posts: *posts, PayloadSize: 1_200_000,
		Fault: faultnet.Config{
			DropProb: *drop, DupProb: *dup, ReorderProb: *reorder,
			DelayMax: *delay,
			Tick:     *tick, Steps: *steps,
			PartitionEvery: *partEach, PartitionFor: *partFor, PartitionFrac: *partFrac,
		},
		Recovery:       *recovery,
		HeartbeatEvery: 25 * time.Millisecond,
		GossipEvery:    50 * time.Millisecond,
		MaintainEvery:  25 * time.Millisecond,
		RetryEvery:     20 * time.Millisecond,
		DeliverTimeout: *timeout,
		TraceCap:       *traceCap,
		BootstrapFrac:  *bootFrac,
		LiveRejoin:     *liveRejoin,
		PostChurnPosts: *postPosts,
		OfflineFrac:    *offlineFrac,
		Inbox:          *inboxOn,
		Topics:         *topics,
		TopicZipf:      *topicZipf,
		TopicSubs:      *topicSubs,
	}
	if *churnOn {
		m := churn.DefaultModel()
		cfg.Fault.Churn = &m
	}
	kind, ok := faultnet.ParseAttack(*attack)
	if !ok {
		fatal(fmt.Errorf("unknown -attack %q (want none, sybil, eclipse or liar)", *attack))
	}
	if kind != faultnet.AttackNone {
		cfg.Fault.Attack = kind
		cfg.Fault.AttackFrac = *attackFrac
		cfg.Fault.AttackFrom = *attackFrom
		cfg.Fault.AttackFor = *attackFor
		cfg.Fault.AttackTarget = int32(*attackTarget)
		cfg.Defenses = *defenses
		if cfg.PostChurnPosts == 0 {
			// The attack report needs the post-window recovery phase: keep
			// the run alive past EvAttackStop and measure what the overlay
			// converged back to.
			cfg.PostChurnPosts = 5
		}
	}
	if cfg.Fault.Churn == nil && *partEach == 0 && kind == faultnet.AttackNone {
		// No timed faults requested: skip schedule generation entirely.
		cfg.Fault.Tick, cfg.Fault.Steps = 0, 0
	}

	if *compare {
		on := run(cfg)
		off := cfg
		off.Recovery = false
		offR := run(off)
		fmt.Printf("=== recovery ON ===\n%s\n=== recovery OFF (same fault schedule) ===\n%s\n", on, offR)
		fmt.Printf("availability: %.2f%% with recovery vs %.2f%% without (Δ %.2f points)\n",
			100*on.DeliveryRate, 100*offR.DeliveryRate, 100*(on.DeliveryRate-offR.DeliveryRate))
		return
	}

	r := run(cfg)
	if *reportJSON {
		raw, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", raw)
	} else {
		fmt.Print(r)
	}
	if *trace && r.FaultTrace != "" {
		fmt.Printf("\n--- injected fault schedule ---\n%s", r.FaultTrace)
	}
	if *asJSON {
		raw, err := r.Obs.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s\n", raw)
	}
	if r.SharedPositions != 0 {
		// Not a floor but an invariant: no placement rule hands a ring
		// position out twice, whatever the faults.
		fmt.Fprintf(os.Stderr, "soak: %d members shared a ring position\n", r.SharedPositions)
		os.Exit(1)
	}
	if r.RingSettled && r.OffCycle != 0 {
		// The arm ended behind its faults and its ring was given time: it
		// must be one successor cycle through every member again.
		fmt.Fprintf(os.Stderr, "soak: %d members off the successor cycle after the run settled (%s)\n", r.OffCycle, r.RingFault)
		os.Exit(1)
	}
	if *assertAll {
		// CI gate for the durable tier: at-least-once to EVERY subscriber
		// (offline ones scored after rejoin replay), nothing dead-lettered,
		// nothing double-delivered to the app.
		ok := true
		if r.OfflineCount > 0 && r.AllRate < 1 {
			fmt.Fprintf(os.Stderr, "soak: all-subscriber delivery %.4f < 1.0\n", r.AllRate)
			ok = false
		}
		if r.OfflineCount == 0 && r.DeliveryRate < 1 {
			fmt.Fprintf(os.Stderr, "soak: delivery rate %.4f < 1.0\n", r.DeliveryRate)
			ok = false
		}
		if r.DeadLetters != 0 {
			fmt.Fprintf(os.Stderr, "soak: %d dead letters\n", r.DeadLetters)
			ok = false
		}
		if r.DuplicateDeliveries != 0 {
			fmt.Fprintf(os.Stderr, "soak: %d duplicate app deliveries\n", r.DuplicateDeliveries)
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
	}
	if *minAvail > 0 && r.DeliveryRate < *minAvail {
		fmt.Fprintf(os.Stderr, "soak: eligible availability %.4f < floor %.4f\n", r.DeliveryRate, *minAvail)
		os.Exit(1)
	}
}

func run(cfg soak.Config) *soak.Report {
	r, err := soak.Run(cfg)
	if err != nil {
		fatal(err)
	}
	return r
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soak:", err)
	os.Exit(2)
}
