package node

import (
	"testing"
	"time"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/socialgraph"
)

// attackOpts are the protocol periods the adversarial tests run at:
// fast ticks so attack windows and recovery fit in test time.
func attackOpts(hardened bool) (Options, *obs.Metrics) {
	met := obs.New()
	return Options{
		HeartbeatEvery: 20 * time.Millisecond,
		GossipEvery:    20 * time.Millisecond,
		MaintainEvery:  20 * time.Millisecond,
		Hardened:       hardened,
		Obs:            met,
	}, met
}

// cohortFor picks nAtk attackers: the victim's highest-degree graph
// friends first (the strongest position for sybil arc abuse), then any
// other peers.
func cohortFor(g *socialgraph.Graph, victim overlay.PeerID, n, nAtk int) []overlay.PeerID {
	var cohort []overlay.PeerID
	for _, q := range g.Neighbors(victim) {
		if len(cohort) == nAtk {
			return cohort
		}
		cohort = append(cohort, q)
	}
	for p := 0; p < n && len(cohort) < nAtk; p++ {
		q := overlay.PeerID(p)
		if q == victim || containsPeer(cohort, q) {
			continue
		}
		cohort = append(cohort, q)
	}
	return cohort
}

func containsPeer(list []overlay.PeerID, p overlay.PeerID) bool {
	for _, x := range list {
		if x == p {
			return true
		}
	}
	return false
}

func arm(c *Cluster, mode AdversaryMode, victim overlay.PeerID, cohort []overlay.PeerID) {
	for _, a := range cohort {
		c.Nodes[a].SetAdversary(mode, victim, cohort)
	}
}

func disarm(c *Cluster, cohort []overlay.PeerID) {
	for _, a := range cohort {
		c.Nodes[a].SetAdversary(AdvNone, -1, nil)
	}
}

// waitRingConsistent polls until the victim's short links agree with the
// directory again, returning how long it took (ok=false on timeout).
func waitRingConsistent(c *Cluster, p overlay.PeerID, timeout time.Duration) (time.Duration, bool) {
	start := time.Now()
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		if c.RingConsistent(p) {
			return time.Since(start), true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return timeout, false
}

// TestEclipseHardenedRecovers runs an eclipse window against a hardened
// victim and requires the ring to restabilize after the attackers stand
// down: the recovery contract the eclipse soak arm holds at soak scale.
func TestEclipseHardenedRecovers(t *testing.T) {
	const n = 60
	opts, met := attackOpts(true)
	g, c := buildCluster(t, n, 5, opts)
	defer shutdown(t, c)
	victim := topDegree(g)
	cohort := cohortFor(g, victim, n, 4)

	arm(c, AdvEclipse, victim, cohort)
	time.Sleep(2 * time.Second)
	disarm(c, cohort)

	if d, ok := waitRingConsistent(c, victim, 10*time.Second); !ok {
		t.Fatalf("victim ring links did not restabilize within 10s after eclipse window")
	} else {
		t.Logf("restabilized %v after disarm", d)
	}
	if met.Get(obs.CEclipseDisplaced)+met.Get(obs.CPosRejected) == 0 {
		t.Fatalf("hardened victim recorded no displaced/rejected forgeries — attack never landed?")
	}
}

// TestEclipseUnhardenedPoisons is the ablation: without defenses the
// same window must actually corrupt the victim's short-range links —
// otherwise the defense counters above measure nothing.
func TestEclipseUnhardenedPoisons(t *testing.T) {
	const n = 60
	opts, _ := attackOpts(false)
	g, c := buildCluster(t, n, 5, opts)
	defer shutdown(t, c)
	victim := topDegree(g)
	cohort := cohortFor(g, victim, n, 4)

	arm(c, AdvEclipse, victim, cohort)
	poisoned := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, p := c.Nodes[victim].RingNeighbors()
		if containsPeer(cohort, s) || containsPeer(cohort, p) {
			poisoned = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	disarm(c, cohort)
	if !poisoned {
		t.Fatalf("unhardened victim never adopted an attacker as a short link — eclipse arm is inert")
	}
}

// TestSybilHardenedRateLimits floods a hardened victim with join churn
// and checks the admission window throttles it while the network keeps
// delivering.
func TestSybilHardenedRateLimits(t *testing.T) {
	const n = 60
	opts, met := attackOpts(true)
	// The at-least-once configuration every soak arm runs: without the
	// repair engine the one publication below is never re-sent, and a
	// single copy lost in the post-attack churn fails the test.
	opts.RetryBase = 20 * time.Millisecond
	g, c := buildCluster(t, n, 5, opts)
	defer shutdown(t, c)
	victim := topDegree(g)
	cohort := cohortFor(g, victim, n, 6)

	arm(c, AdvSybil, victim, cohort)
	time.Sleep(2 * time.Second)
	disarm(c, cohort)

	if met.Get(obs.CSybilRejected) == 0 {
		t.Fatalf("hardened victim admitted every sybil join — rate limit never fired")
	}
	// An honest publication must still get through during recovery.
	var pub overlay.PeerID = -1
	for p := 0; p < n; p++ {
		q := overlay.PeerID(p)
		if q != victim && !containsPeer(cohort, q) && g.Degree(q) > 0 {
			pub = q
			break
		}
	}
	if pub < 0 {
		t.Skip("no honest publisher available")
	}
	var subs []overlay.PeerID
	for _, s := range g.Neighbors(pub) {
		if !containsPeer(cohort, s) {
			subs = append(subs, s)
		}
	}
	seq := publishSize(c.Nodes[pub], 1024)
	if delivered, ok := await(c, pub, seq, subs, 5*time.Second); !ok {
		for _, s := range subs {
			nd := c.Nodes[s]
			_, got := nd.Received(pub, seq)
			t.Logf("sub %d member=%v joined=%v delivered=%v", s, c.dir.isMember(s), nd.Joined(), got)
		}
		t.Logf("dead_letters=%d pub member=%v victim=%d cohort=%v", met.Get(obs.CDeadLetter), c.dir.isMember(pub), victim, cohort)
		t.Fatalf("post-sybil publication reached only %d/%d honest subscribers", delivered, len(subs))
	}
}

// TestLiarHardenedClampsStrength checks the count-sanity clamp fires on
// inflated exchange replies and honest exchanges stay unclamped.
func TestLiarHardenedClampsStrength(t *testing.T) {
	const n = 60
	opts, met := attackOpts(true)
	g, c := buildCluster(t, n, 5, opts)
	defer shutdown(t, c)
	victim := topDegree(g)
	cohort := cohortFor(g, victim, n, 4)

	arm(c, AdvLiar, victim, cohort)
	time.Sleep(2 * time.Second)
	disarm(c, cohort)

	if met.Get(obs.CStrengthClamped) == 0 {
		t.Fatalf("no strength claim was clamped during a liar window")
	}
	_ = g
}

// TestJoinCooldownPerIdentity exercises the hardened re-join cooldown
// directly: one identity re-requesting inside the window is served its
// cached position (no fresh placement) up to joinServeCap times and then
// dropped, a different identity — an honest newcomer arriving during the
// flood — gets a fresh placement immediately, and the cycler earns a
// fresh placement once its cooldown lapses.
func TestJoinCooldownPerIdentity(t *testing.T) {
	n := &Node{cfg: Options{Hardened: true, JoinRateWindow: 100 * time.Millisecond, Obs: obs.New()}}
	base := time.Now()
	sybil, honest := overlay.PeerID(7), overlay.PeerID(9)
	if _, cached, _ := n.cachedJoin(base, sybil); cached {
		t.Fatalf("first admission of an identity must be a fresh placement")
	}
	n.recordJoin(base, sybil, 0.25)
	for i := 0; i < joinServeCap; i++ {
		pos, cached, drop := n.cachedJoin(base.Add(10*time.Millisecond), sybil)
		if !cached || drop {
			t.Fatalf("repeat %d inside the cooldown must be served from the cache", i+1)
		}
		if pos != 0.25 {
			t.Fatalf("cached re-join position = %v, want the granted 0.25", pos)
		}
	}
	if _, _, drop := n.cachedJoin(base.Add(20*time.Millisecond), sybil); !drop {
		t.Fatalf("repeat past joinServeCap must be dropped")
	}
	if _, cached, _ := n.cachedJoin(base.Add(30*time.Millisecond), honest); cached {
		t.Fatalf("a different identity must get a fresh placement during the flood")
	}
	if _, cached, _ := n.cachedJoin(base.Add(150*time.Millisecond), sybil); cached {
		t.Fatalf("re-join after the cooldown lapsed must be a fresh placement")
	}
	if got := n.cfg.Obs.Get(obs.CSybilRejected); got != 1 {
		t.Fatalf("sybil_rejected = %d, want 1", got)
	}
}
