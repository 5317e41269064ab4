// Package selectsys implements SELECT, the paper's contribution (§III): a
// fully decentralized pub/sub overlay for decentralized online social
// networks that projects the social graph onto a ring ID space and keeps
// socially connected peers a hop or two apart.
//
// The package follows the paper's structure:
//
//   - Projection (Algorithm 1): joining peers are placed next to their
//     inviter, or at a uniform hash position when subscribing independently
//     (select.go, NewFromSchedule).
//   - Identifier reassignment (Algorithm 2) and the gossip peer-sampling
//     that feeds it (Algorithms 3–4): each round a peer moves to the ring
//     midpoint of its two highest-social-strength friends (gossip.go).
//   - Connection establishment (Algorithm 5) with the bucket picker
//     (Algorithm 6): friends' link bitmaps are LSH-indexed into K buckets
//     and one representative per bucket becomes a long-range link, subject
//     to a K-incoming-links cap with bandwidth-based eviction (gossip.go).
//   - Pub/sub routing with the Symphony-style lookahead set (§III-E)
//     (pubsub.go).
//   - The CMA-driven recovery mechanism (§III-F) (recovery.go).
//
// Ablation switches in Config disable individual mechanisms so the
// benchmarks can price each design choice separately.
package selectsys

import (
	"math"
	"math/rand"
	"sort"

	"selectps/internal/churn"
	"selectps/internal/growth"
	"selectps/internal/lsh"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
	"selectps/internal/socialgraph"
)

// Config parameterizes SELECT.
type Config struct {
	// K is the long-range link budget, the LSH bucket count |H| and the
	// incoming-link cap (the paper uses one knob for all three, §III-D).
	// The experiments set K = log2(N) (§IV-C).
	K int
	// MaxRounds bounds the gossip (default 64).
	MaxRounds int
	// MoveEps is the ring distance below which an identifier move counts
	// as "no change" for convergence (default 1e-4).
	MoveEps float64
	// RegionEps is the ring distance at which a peer considers itself
	// "arrived" at its Algorithm-2 target and stops reassigning (default
	// 0.005). Without this stop the synchronized midpoint dynamics on a
	// connected social graph contract the whole network to a single point,
	// destroying the ID space; with it, communities freeze as compact
	// regions spread over the ring — the Fig. 8 picture.
	RegionEps float64
	// CMAThreshold is the availability below which an unresponsive link is
	// replaced instead of kept (§III-F; default 0.5).
	CMAThreshold float64
	// Bandwidths optionally supplies per-peer upload bandwidth used by the
	// picker and the incoming-cap eviction. When nil, log-normal synthetic
	// values are drawn.
	Bandwidths []float64

	// Ablation switches (all default off = full SELECT).

	// DisableReassignment freezes identifiers after projection,
	// isolating the value of Algorithm 2.
	DisableReassignment bool
	// RandomLinks replaces LSH bucket selection with uniformly random
	// friend links, isolating Algorithm 5.
	RandomLinks bool
	// PickerIgnoresBandwidth makes the picker return the most-connected
	// candidate regardless of bandwidth, isolating Algorithm 6.
	PickerIgnoresBandwidth bool
	// CentroidAllFriends reassigns to the circular centroid of all friends
	// instead of the top-2 midpoint — the variant §III-C argues fails for
	// high-degree users.
	CentroidAllFriends bool
	// NaiveRecovery replaces every unresponsive link immediately,
	// ignoring CMA history, isolating §III-F.
	NaiveRecovery bool
	// DisableLookahead removes the Symphony-style lookahead set from
	// routing and dissemination, isolating §III-E's 2-hop delivery.
	DisableLookahead bool
}

func (c *Config) fill(n int) {
	if c.K <= 0 {
		c.K = int(math.Max(2, math.Log2(math.Max(2, float64(n)))))
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 64
	}
	if c.MoveEps == 0 {
		c.MoveEps = 1e-4
	}
	if c.RegionEps == 0 {
		c.RegionEps = 0.005
	}
	if c.CMAThreshold == 0 {
		c.CMAThreshold = 0.5
	}
}

// Overlay is a constructed SELECT network.
type Overlay struct {
	*overlay.Base
	g   *socialgraph.Graph
	cfg Config
	rng *rand.Rand

	bw []float64 // per-peer upload bandwidth (picker input)

	// hashers[p] is the per-peer LSH hasher over |C_p|-bit bitmaps. The
	// bitmap coordinate space of Algorithm 5 is the sorted friend list
	// C_p itself: a friend's coordinate is its index in g.Neighbors(p).
	hashers []*lsh.Hasher

	// tie[p][i] caches the symmetric tie strength of the friendship edge
	// (p, C_p[i]), aligned with g.Neighbors(p) — computed once per trial
	// (strength.go); the graph is immutable for the overlay's lifetime.
	tie [][]float64

	// scratch is the reusable Algorithm-5 working set (gossip.go).
	scratch linkScratch

	// samplers holds the per-peer swap samplers of the RandomLinks
	// ablation (lazy — the default LSH path never allocates them);
	// samplerSeed is the base stream drawn once from rng at first use.
	samplers    []*selectcore.Sampler
	samplerSeed int64

	// longLinks[p] is R_p^l: the K long-range links (subset of Base links;
	// Base also holds the two ring links R_p^s).
	longLinks [][]overlay.PeerID
	// shortLinks[p] is R_p^s: ring successor and predecessor.
	shortLinks [][2]overlay.PeerID
	// incomingFrom[u] lists peers holding a long link to u (for the
	// K-incoming cap).
	incomingFrom [][]overlay.PeerID

	// tracker records each peer's observed availability (CMA, §III-F).
	tracker *churn.Tracker

	iterations int
}

// New builds a SELECT overlay for social graph g: it synthesizes a growth
// schedule with the default model, projects peers (Algorithm 1) and runs
// the gossip to convergence. Deterministic in rng.
func New(g *socialgraph.Graph, cfg Config, rng *rand.Rand) *Overlay {
	sched := growth.DefaultModel().Schedule(g, rng)
	return NewFromSchedule(g, sched, cfg, rng)
}

// NewFromSchedule builds a SELECT overlay using an explicit join schedule
// (the experiments reuse one schedule across systems and snapshots).
func NewFromSchedule(g *socialgraph.Graph, sched growth.Schedule, cfg Config, rng *rand.Rand) *Overlay {
	n := g.NumNodes()
	cfg.fill(n)
	o := &Overlay{
		Base:         overlay.NewBase("select", n),
		g:            g,
		cfg:          cfg,
		rng:          rng,
		hashers:      make([]*lsh.Hasher, n),
		longLinks:    make([][]overlay.PeerID, n),
		incomingFrom: make([][]overlay.PeerID, n),
		tracker:      churn.NewTracker(n),
	}
	o.bw = cfg.Bandwidths
	if o.bw == nil {
		o.bw = make([]float64, n)
		for i := range o.bw {
			o.bw[i] = 1e6 * math.Exp(rng.NormFloat64())
		}
	}
	for p := 0; p < n; p++ {
		pid := overlay.PeerID(p)
		buckets := cfg.K
		if buckets < 1 {
			buckets = 1
		}
		o.hashers[p] = lsh.NewHasher(g.Degree(pid), buckets, 0, rng)
	}
	o.buildStrengthCache()
	o.project(sched)
	o.runGossip()
	return o
}

// project assigns initial identifiers per Algorithm 1: invited users land
// next to their inviter (minimizing d_I to the inviting peer), independent
// users at a uniform hash position.
func (o *Overlay) project(sched growth.Schedule) {
	placed := make([]bool, o.N())
	// Invited peers minimize their distance to the inviter (Algorithm 1
	// line 3) by landing inside the inviter's currently free clockwise arc:
	// the invitee becomes the inviter's closest ring neighbor, invitation
	// subtrees grow into contiguous regions, and the ring stays fully
	// covered — the Fig. 8 picture of "small groups within regions without
	// losing connectivity between regions". (Placing invitees at a fixed
	// tiny offset instead would collapse the whole network onto the first
	// seed's position.)
	occupied := make([]ring.ID, 0, o.N())
	insert := func(id ring.ID) {
		i := sort.Search(len(occupied), func(i int) bool { return occupied[i] >= id })
		occupied = append(occupied, 0)
		copy(occupied[i+1:], occupied[i:])
		occupied[i] = id
	}
	for _, e := range sched.Events {
		var pos ring.ID
		if e.Inviter >= 0 && placed[e.Inviter] && len(occupied) > 1 {
			inv := o.Position(e.Inviter)
			succ := occupied[ring.Successor(occupied, inv)]
			pos = selectcore.PlaceJoin(inv, ring.Clockwise(inv, succ),
				1.0/float64(len(occupied)+1), o.rng.Float64(), uint64(e.User))
		} else {
			pos = selectcore.PlaceIndependent(uint64(e.User))
		}
		o.SetPosition(e.User, pos)
		placed[e.User] = true
		insert(pos)
	}
	// Any user missing from the schedule (defensive) gets a uniform hash.
	for p := 0; p < o.N(); p++ {
		if !placed[p] {
			o.SetPosition(overlay.PeerID(p), selectcore.PlaceIndependent(uint64(p)))
		}
	}
}

// Iterations implements overlay.Iterative: gossip rounds until neither
// identifiers nor link sets changed.
func (o *Overlay) Iterations() int { return o.iterations }

// K returns the effective link budget.
func (o *Overlay) K() int { return o.cfg.K }

// Bandwidth returns peer p's modeled upload bandwidth.
func (o *Overlay) Bandwidth(p overlay.PeerID) float64 { return o.bw[p] }

// LongLinks returns R_p^l (shared slice; do not mutate).
func (o *Overlay) LongLinks(p overlay.PeerID) []overlay.PeerID { return o.longLinks[p] }

// Tracker exposes the availability tracker (the simulation folds churn
// probes into it between repairs).
func (o *Overlay) Tracker() *churn.Tracker { return o.tracker }

// Graph returns the underlying social graph.
func (o *Overlay) Graph() *socialgraph.Graph { return o.g }
