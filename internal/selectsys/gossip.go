package selectsys

import (
	"sort"

	"selectps/internal/overlay"
	"selectps/internal/par"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
)

// runGossip executes the construction gossip (the vertex-centric model of
// §IV): the identifier-reassignment rounds of Algorithms 2–4 followed by
// connection-establishment rounds of Algorithm 5, until both stabilize.
// Iterations() reports the total, the Fig. 5 metric.
//
// The peer-sampling exchange of Algorithms 3–4 is what, in a deployment,
// delivers the neighbor sets and bitmaps each peer needs; the simulator
// grants direct read access to the same information, which equals the
// gossip's converged knowledge.
func (o *Overlay) runGossip() {
	n := o.N()
	if n == 0 {
		return
	}
	// Phase 1: identifier reassignment (region formation + placement).
	if !o.cfg.DisableReassignment {
		o.iterations = o.reassignPositions()
	}
	o.rewireRing()
	// Phase 2: connection establishment rounds until the link sets
	// stabilize. The 1% slack absorbs boundary peers whose bucket picks
	// flip between equivalent representatives, and the plateau check stops
	// the phase when changes stop shrinking (a handful of peers can trade
	// equivalent links indefinitely as their friends' bitmaps co-evolve).
	threshold := n / 50
	if threshold < 1 {
		threshold = 1
	}
	minChanged, sinceMin := n+1, 0
	for round := 1; round <= o.cfg.MaxRounds; round++ {
		linkChanged := 0
		for p := 0; p < n; p++ {
			// Parity alternation: peers refresh their links every other
			// round, breaking the two-peer drop/refill cycles that mutual
			// coverage decisions can otherwise sustain indefinitely.
			if (p+round)%2 != 0 {
				continue
			}
			if o.createLinks(overlay.PeerID(p)) {
				linkChanged++
			}
		}
		if gossipDebug {
			debugLog.Printf("link round %d changed %d", round, linkChanged)
		}
		o.iterations++
		if linkChanged <= threshold {
			break
		}
		// Plateau: once the change count stops reaching new lows the
		// remaining churn is a standing oscillation, not progress.
		if linkChanged < minChanged {
			minChanged, sinceMin = linkChanged, 0
		} else {
			sinceMin++
			if sinceMin >= 2 {
				break
			}
		}
	}
	o.syncBaseLinks()
}

// The identifier-reassignment phase. Algorithm 2's geometric intent —
// every peer relocates toward its strongest social ties until socially
// connected peers share a ring region — is realized in two steps that a
// gossiping peer can perform with exactly the information Algorithms 3–4
// exchange:
//
//  1. Region formation: each peer repeatedly adopts the region label that
//     its friends support most strongly, weighting each friend's vote by
//     tie strength (strength-weighted label propagation). This is the
//     gossip analogue of "move to the midpoint of your two strongest
//     friends": a peer ends up in the region where its strong ties are.
//     Running the literal synchronized midpoint dynamics instead
//     contracts the entire connected graph onto one ring position and
//     destroys the ID space — label propagation reaches the same social
//     co-location without the collapse.
//  2. Placement: regions receive disjoint ring arcs proportional to their
//     population (ordered by region hash, so placement is uniform and
//     deterministic), and members spread evenly inside their arc. The
//     ring stays fully covered, identifiers stay unique, and communities
//     become the compact contiguous groups of Fig. 8.
//
// Each superstep reads only the previous round's labels, so the peer loop
// is sharded across par workers: every peer's decision is a pure function
// of (labels, tie cache, round parity), each worker owns a contiguous
// span of peers with private vote-tally scratch, and the per-shard change
// counts are summed in shard order — bit-identical to the sequential pass
// for any worker count (parallel_test.go asserts this under -race).
//
// reassignPositions returns the number of label-propagation rounds used.
func (o *Overlay) reassignPositions() int {
	n := o.N()
	if n == 0 {
		return 0
	}
	labels := make([]int32, n)
	for p := range labels {
		labels[p] = int32(p)
	}
	maxRounds := o.cfg.MaxRounds / 2
	if maxRounds < 1 {
		maxRounds = 1
	}
	rounds := 0
	// A handful of boundary peers can keep flipping between equally
	// supported regions; they do not change the macro structure, so the
	// phase stops once changes fall under 2%.
	stopAt := n / 50
	next := make([]int32, n)
	// Per-shard vote-tally scratch. Labels are always existing peer ids —
	// a peer only ever adopts a label already carried by a friend — so
	// they stay dense in [0,n) and a flat slice replaces the old
	// map[int32]float64: O(1) unhashed accumulation, cleared via the
	// touched-label list (every vote weight is strictly positive, so
	// tally[l] == 0 marks an untouched label).
	shards := par.Shards(n)
	tallies := make([][]float64, shards)
	touchedBy := make([][]int32, shards)
	changedBy := make([]int, shards)
	for r := 0; r < maxRounds; r++ {
		rounds++
		// Synchronous superstep: decisions read the previous round's labels
		// only — sequential in-place updates would let one label telescope
		// through the whole graph in a single pass. A peer switches only
		// when the challenger's support strictly exceeds its current
		// label's support (hysteresis against oscillation).
		round := r
		clear(changedBy)
		par.For(n, func(shard, lo, hi int) {
			if tallies[shard] == nil {
				tallies[shard] = make([]float64, n)
			}
			tally, touched := tallies[shard], touchedBy[shard][:0]
			changed := 0
			for p := lo; p < hi; p++ {
				pid := overlay.PeerID(p)
				next[p] = labels[p]
				// Parity alternation: only half the peers may switch per
				// round, which breaks the two-cycles synchronous label
				// propagation is prone to (pairs of peers swapping labels
				// forever).
				if (p+round)%2 != 0 {
					continue
				}
				friends := o.g.Neighbors(pid)
				if len(friends) == 0 {
					continue
				}
				touched = touched[:0]
				row := o.tie[p]
				for i, f := range friends {
					w := row[i]
					if o.cfg.CentroidAllFriends {
						// Ablation (§III-C): all friends pull equally, the
						// "centroid of all friends" policy. High-degree hubs
						// then drag unrelated users into one region.
						w = 1
					}
					l := labels[f]
					if tally[l] == 0 {
						touched = append(touched, l)
					}
					tally[l] += w
				}
				cur := tally[labels[p]]
				best, bestW := labels[p], cur
				for _, l := range touched {
					w := tally[l]
					if w > bestW && w > cur {
						best, bestW = l, w
					} else if w == bestW && w > cur && l < best {
						best = l
					}
				}
				for _, l := range touched {
					tally[l] = 0
				}
				if best != labels[p] {
					next[p] = best
					changed++
				}
			}
			touchedBy[shard], changedBy[shard] = touched, changed
		})
		changed := 0
		for _, c := range changedBy {
			changed += c
		}
		labels, next = next, labels
		if changed <= stopAt {
			break
		}
		if gossipDebug {
			distinct := make(map[int32]int)
			for _, l := range labels {
				distinct[l]++
			}
			max := 0
			for _, c := range distinct {
				if c > max {
					max = c
				}
			}
			debugLog.Printf("lpa round %d changed %d labels %d maxsize %d",
				r+1, changed, len(distinct), max)
		}
	}
	o.placeByRegions(labels)
	return rounds
}

// placeByRegions assigns each region a ring arc proportional to its
// population and spreads members evenly inside it. Region labels are
// renumbered densely in first-seen order so membership lives in flat
// slices; arcs are still ordered by the hash of the *original* label,
// keeping placement uniform and independent of the renumbering.
func (o *Overlay) placeByRegions(labels []int32) {
	n := o.N()
	denseOf := make([]int32, n)
	for i := range denseOf {
		denseOf[i] = -1
	}
	var regionLabel []int32 // dense id -> original label
	var members [][]overlay.PeerID
	for p := 0; p < n; p++ {
		l := labels[p]
		d := denseOf[l]
		if d < 0 {
			d = int32(len(members))
			denseOf[l] = d
			regionLabel = append(regionLabel, l)
			members = append(members, nil)
		}
		members[d] = append(members[d], overlay.PeerID(p))
	}
	order := make([]int32, len(members))
	hash := make([]ring.ID, len(members))
	for d := range members {
		order[d] = int32(d)
		hash[d] = ring.HashUint64(uint64(uint32(regionLabel[d])))
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := order[i], order[j]
		if hash[di] != hash[dj] {
			return hash[di] < hash[dj]
		}
		return regionLabel[di] < regionLabel[dj]
	})
	var start float64
	for _, d := range order {
		ms := members[d]
		width := float64(len(ms)) / float64(n)
		for i, p := range ms {
			// Even spread with a deterministic sub-slot jitter keeps
			// identifiers unique and ordering stable.
			frac := (float64(i) + 0.5) / float64(len(ms))
			o.SetPosition(p, ring.Norm(start+width*frac))
		}
		start += width
	}
}

// topTieFriends returns p's two friends with the strongest symmetric ties
// (used by the Algorithm-2 anchor choice and by tests) — the shared
// selectcore.Top2 over the cached strength row.
func (o *Overlay) topTieFriends(p overlay.PeerID) (best, second overlay.PeerID) {
	return selectcore.Top2(o.g.Neighbors(p), o.tie[p])
}

// rewireRing refreshes the two short-range links R_p^s (successor and
// predecessor in the current identifier order).
func (o *Overlay) rewireRing() {
	n := o.N()
	if n < 2 {
		return
	}
	order := o.SortedByPosition()
	if o.shortLinks == nil {
		o.shortLinks = make([][2]overlay.PeerID, n)
	}
	for i, p := range order {
		succ := order[(i+1)%n]
		pred := order[(i-1+n)%n]
		o.shortLinks[p] = [2]overlay.PeerID{succ, pred}
	}
}

// syncBaseLinks publishes shortLinks + longLinks + incoming long links
// into the generic link sets used by routing and the experiments. The
// routing view is symmetric: connections are reliable TCP channels
// (§III-A) and carry messages in both directions, so a peer forwards over
// links it initiated and links initiated toward it; the K-incoming cap
// governs connection acceptance, not traffic direction.
func (o *Overlay) syncBaseLinks() {
	n := o.N()
	for p := 0; p < n; p++ {
		pid := overlay.PeerID(p)
		o.SetLinks(pid, nil)
		if o.shortLinks != nil {
			for _, q := range o.shortLinks[p] {
				if q != pid {
					o.AddLink(pid, q)
				}
			}
		}
		for _, q := range o.longLinks[p] {
			o.AddLink(pid, q)
		}
		for _, q := range o.incomingFrom[p] {
			o.AddLink(pid, q)
		}
	}
}

// linkScratch is the reusable working set of the Algorithm-5 LSH pass.
// One gossip round used to allocate a fresh bitmap per (peer, friend),
// a hash table and two maps per peer; the scratch turns that into zero
// steady-state allocations. The gossip mutates one overlay from one
// goroutine, so a single scratch per overlay suffices. The bucket index
// itself is the shared selectcore.Indexer, so the live runtime hashes
// friendship bitmaps with exactly this code.
type linkScratch struct {
	idx    selectcore.Indexer
	coords []int   // bitmap coordinate scratch per friend
	linked []int32 // bucket members already long-linked
	uncov  []int32 // friends not covered by any current link
	pos    []int32 // pos[q]: 1+index of q in C_p, 0 when q ∉ C_p
}

// indexFriends rebuilds p's Algorithm-5 LSH view into the scratch: each
// friend's friendship bitmap (Algorithm 4, constructFriendshipBitmap —
// bit j set when the friend long-links the j-th member of C_p) is hashed
// to one of the K buckets, and its popcount recorded as the friend's
// connection count. A friend's own bitmap coordinate is just its index in
// the sorted C_p (the self bit: without it every first-round bitmap is
// all-zero and the whole neighborhood hashes into one bucket); long-link
// coordinates resolve through sc.pos, an n-sized index filled with C_p on
// entry and zeroed again on exit — 2|C_p| writes in place of one binary
// search per long link, which was the single hottest operation of the
// construction profile.
func (o *Overlay) indexFriends(p overlay.PeerID, friends []overlay.PeerID) {
	sc := &o.scratch
	if len(sc.pos) < o.N() {
		sc.pos = make([]int32, o.N())
	}
	for i, f := range friends {
		sc.pos[f] = int32(i + 1)
	}
	defer func() {
		for _, f := range friends {
			sc.pos[f] = 0
		}
	}()
	sc.idx.Begin(o.hashers[p], len(friends))
	for i, u := range friends {
		coords := append(sc.coords[:0], i) // self bit
		for _, l := range o.longLinks[u] {
			if j := int(sc.pos[l]) - 1; j >= 0 {
				coords = append(coords, j)
			}
		}
		sc.idx.Add(int32(i), coords)
		sc.coords = coords[:0]
	}
}

// createLinks is Algorithm 5: index the friends' bitmaps into the K LSH
// buckets, keep one picker-chosen representative per bucket as a long-range
// link, and drop redundant links to other peers of the same bucket. It
// reports whether p's long-link set changed.
func (o *Overlay) createLinks(p overlay.PeerID) bool {
	friends := o.g.Neighbors(p)
	if len(friends) == 0 {
		return false
	}
	if o.cfg.RandomLinks {
		return o.createRandomLinks(p, friends)
	}
	o.indexFriends(p, friends)
	sc := &o.scratch
	changed := false
	for b := range sc.idx.Buckets {
		bucket := sc.idx.Buckets[b]
		if len(bucket) == 0 {
			continue
		}
		// Hysteresis: when the bucket already holds linked peers, keep the
		// picker-best among them instead of re-picking from scratch — the
		// paper's recovery rationale ("not create a chain of connections
		// reassignment", §III-F) applied to steady-state maintenance.
		linked := sc.linked[:0]
		for _, i := range bucket {
			if o.hasLong(p, friends[i]) {
				linked = append(linked, i)
			}
		}
		sc.linked = linked[:0]
		keep := overlay.PeerID(-1)
		switch len(linked) {
		case 0:
			pick := friends[o.pickIdx(bucket, friends)]
			if o.establish(p, pick) {
				changed = true
				keep = pick
			}
		case 1:
			keep = friends[linked[0]]
		default:
			keep = friends[o.pickIdx(linked, friends)]
		}
		if keep < 0 {
			continue
		}
		// Drop redundant same-bucket links (Algorithm 5 lines 12–16) — but
		// only when the kept representative actually covers them ("similar
		// connections" must mean the message still reaches the dropped peer
		// through the representative in one hop). Friends with empty
		// bitmaps hash together without being mutually reachable; dropping
		// those would silently disconnect them from the routing tree.
		for _, i := range bucket {
			v := friends[i]
			if v != keep && o.hasLong(p, v) && o.hasLong(keep, v) {
				o.dropLong(p, v)
				changed = true
			}
		}
	}
	// Enforce the K budget: shed covered links first, then the weakest
	// ties.
	for len(o.longLinks[p]) > o.cfg.K {
		victim := o.budgetVictim(p)
		o.dropLong(p, victim)
		changed = true
	}
	// Spend remaining budget on friends no current link can reach in one
	// forward, weakest ties first: strong ties live in the same community
	// region and stay reachable through the ring and the lookahead set,
	// while weak cross-community ties have no alternative path — linking
	// them is what keeps "the maximum number of each social user's
	// neighborhood" within 1–2 hops (§III-A).
	if len(o.longLinks[p]) < o.cfg.K {
		uncovered := sc.uncov[:0]
		for i, u := range friends {
			if !o.hasLong(p, u) && !o.coveredBy(p, u) {
				uncovered = append(uncovered, int32(i))
			}
		}
		row := o.tie[p]
		sort.Slice(uncovered, func(a, b int) bool {
			si, sj := row[uncovered[a]], row[uncovered[b]]
			if si != sj {
				return si < sj
			}
			return uncovered[a] < uncovered[b]
		})
		for _, i := range uncovered {
			u := friends[i]
			if len(o.longLinks[p]) >= o.cfg.K {
				// At budget: a redundant link (one whose peer another link
				// already covers) may be evicted in favor of the lone
				// friend — the "drop link overlap" intent of Algorithm 5.
				victim, ok := o.coveredVictim(p)
				if !ok {
					break
				}
				o.dropLong(p, victim)
				changed = true
			}
			if o.establish(p, u) {
				changed = true
			}
		}
		sc.uncov = uncovered[:0]
	}
	return changed
}

// coveredVictim returns a long link of p whose peer is covered by another
// long link (reachable in two hops anyway), weakest tie first; ok=false
// when every link is the sole path to its peer.
func (o *Overlay) coveredVictim(p overlay.PeerID) (overlay.PeerID, bool) {
	victim := overlay.PeerID(-1)
	var victimTie float64
	for _, v := range o.longLinks[p] {
		cov := false
		for _, w := range o.longLinks[p] {
			if w != v && o.hasLong(w, v) {
				cov = true
				break
			}
		}
		if !cov {
			continue
		}
		tie := o.tieStrength(p, v)
		if victim < 0 || tie < victimTie {
			victim, victimTie = v, tie
		}
	}
	return victim, victim >= 0
}

// coveredBy reports whether some long link of p links u (u is reachable in
// two hops through p's routing table).
func (o *Overlay) coveredBy(p, u overlay.PeerID) bool {
	for _, w := range o.longLinks[p] {
		if o.hasLong(w, u) {
			return true
		}
	}
	return false
}

// budgetVictim picks the long link to shed when over budget: a link whose
// peer is covered by another link if possible, the weakest tie otherwise.
func (o *Overlay) budgetVictim(p overlay.PeerID) overlay.PeerID {
	victim, covered := overlay.PeerID(-1), false
	var victimTie float64
	for _, v := range o.longLinks[p] {
		cov := false
		for _, w := range o.longLinks[p] {
			if w != v && o.hasLong(w, v) {
				cov = true
				break
			}
		}
		tie := o.tieStrength(p, v)
		switch {
		case victim < 0,
			cov && !covered,
			cov == covered && tie < victimTie:
			victim, covered, victimTie = v, cov, tie
		}
	}
	return victim
}

// createRandomLinks is the Algorithm-5 ablation: fill the K-link budget
// with uniformly random friends, no similarity bucketing. Candidates come
// from the shared PeerSwap-style swap sampler (selectcore.Sampler — the
// same stream discipline the live runtime's gossip exchange uses), so one
// round of draws covers every friend exactly once instead of sampling
// with replacement.
func (o *Overlay) createRandomLinks(p overlay.PeerID, friends []overlay.PeerID) bool {
	if o.samplers == nil {
		o.samplers = make([]*selectcore.Sampler, o.N())
		o.samplerSeed = int64(o.rng.Uint64())
	}
	s := o.samplers[p]
	if s == nil {
		pool := make([]int32, len(friends))
		for i, f := range friends {
			pool[i] = int32(f)
		}
		s = selectcore.NewSampler(pool, selectcore.SamplerSeed(o.samplerSeed, int32(p)))
		o.samplers[p] = s
	}
	changed := false
	for attempts := 0; len(o.longLinks[p]) < o.cfg.K && attempts < o.cfg.K*8; attempts++ {
		ui, ok := s.Next()
		if !ok {
			break
		}
		u := overlay.PeerID(ui)
		if !o.hasLong(p, u) && o.establish(p, u) {
			changed = true
		}
	}
	return changed
}

// pickIdx is Algorithm 6 over friend indices — the shared selectcore.Pick
// (connection count descending, bandwidth runner-up upgrade). C_p is
// sorted, so ascending index order is ascending PeerID order and
// tie-breaks match the PeerID-based picker exactly.
func (o *Overlay) pickIdx(cand []int32, friends []overlay.PeerID) int32 {
	return selectcore.Pick(cand, o.scratch.idx.Conn,
		func(i int32) float64 { return o.bw[friends[i]] },
		o.cfg.PickerIgnoresBandwidth)
}

func (o *Overlay) hasLong(p, u overlay.PeerID) bool {
	for _, x := range o.longLinks[p] {
		if x == u {
			return true
		}
	}
	return false
}

// establish creates the long-range link p→u, honoring u's K-incoming cap:
// a full peer accepts the new connection only when it has better bandwidth
// than the worst current one, which is then evicted (§III-D).
func (o *Overlay) establish(p, u overlay.PeerID) bool {
	if p == u {
		return false
	}
	if len(o.incomingFrom[u]) >= o.cfg.K {
		worst := overlay.PeerID(-1)
		wi := -1
		for i, x := range o.incomingFrom[u] {
			if worst < 0 || o.bw[x] < o.bw[worst] {
				worst, wi = x, i
			}
		}
		if worst < 0 || o.bw[p] <= o.bw[worst] {
			return false
		}
		// Evict the worst-bandwidth incoming link.
		o.incomingFrom[u][wi] = o.incomingFrom[u][len(o.incomingFrom[u])-1]
		o.incomingFrom[u] = o.incomingFrom[u][:len(o.incomingFrom[u])-1]
		o.removeLongOut(worst, u)
	}
	o.longLinks[p] = append(o.longLinks[p], u)
	o.incomingFrom[u] = append(o.incomingFrom[u], p)
	return true
}

// dropLong removes the long link p→u (both directions of bookkeeping).
func (o *Overlay) dropLong(p, u overlay.PeerID) {
	o.removeLongOut(p, u)
	in := o.incomingFrom[u]
	for i, x := range in {
		if x == p {
			in[i] = in[len(in)-1]
			o.incomingFrom[u] = in[:len(in)-1]
			break
		}
	}
}

func (o *Overlay) removeLongOut(p, u overlay.PeerID) {
	l := o.longLinks[p]
	for i, x := range l {
		if x == u {
			l[i] = l[len(l)-1]
			o.longLinks[p] = l[:len(l)-1]
			return
		}
	}
}
