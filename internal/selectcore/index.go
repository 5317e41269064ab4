package selectcore

import (
	"selectps/internal/bitset"
	"selectps/internal/lsh"
)

// Indexer is the Algorithm-5 LSH view of one peer's neighborhood: each
// friend's friendship bitmap (which members of C_p that friend is
// long-linked to, plus its own self bit) is hashed into one of the K
// buckets, and its popcount is recorded as the friend's connection count
// (Algorithm 6's input). The zero value is not usable; call NewIndexer.
//
// The simulator rebuilds the index from direct reads of every friend's
// long-link set; the live runtime rebuilds it from the friendship bitmaps
// carried by Algorithm-4 exchange replies. Both feed the same coordinates
// into Add, so a bucket assignment live is the bucket assignment the
// simulator would compute from the same knowledge.
type Indexer struct {
	h  *lsh.Hasher
	bm *bitset.Set

	// Buckets holds friend indices (into C_p) per LSH bucket; Conn[i] is
	// friend i's connection count (bitmap popcount).
	Buckets [][]int32
	Conn    []int
}

// Begin resets the index for a pass over nFriends friends under hasher h
// (whose dimension must be nFriends). Previously allocated buckets and
// scratch are reused, so one Indexer serves every peer of an overlay in
// turn with zero steady-state allocations.
func (x *Indexer) Begin(h *lsh.Hasher, nFriends int) {
	x.h = h
	nb := x.h.NumBuckets()
	if cap(x.Buckets) < nb {
		x.Buckets = make([][]int32, nb)
	}
	x.Buckets = x.Buckets[:nb]
	for b := range x.Buckets {
		x.Buckets[b] = x.Buckets[b][:0]
	}
	if cap(x.Conn) < nFriends {
		x.Conn = make([]int, nFriends)
	}
	x.Conn = x.Conn[:nFriends]
	if x.bm == nil {
		x.bm = bitset.New(nFriends)
	} else {
		x.bm.Reshape(nFriends)
	}
}

// Add indexes friend i (an index into the sorted C_p) whose friendship
// bitmap has exactly the given coordinates set. Coordinates must include
// the friend's own self bit (i): a friend trivially reaches itself, and
// without the self bit every first-round bitmap would be all-zero,
// hashing the whole neighborhood into a single bucket. Coordinates may
// contain duplicates; they set the same bit. It returns the bucket the
// friend landed in.
func (x *Indexer) Add(i int32, coords []int) int {
	set := 0
	for _, j := range coords {
		if !x.bm.Test(j) {
			x.bm.Set(j)
			set++
		}
	}
	x.Conn[i] = set
	b := x.h.Bucket(x.bm)
	x.Buckets[b] = append(x.Buckets[b], i)
	for _, j := range coords {
		if x.bm.Test(j) {
			x.bm.Clear(j)
		}
	}
	return b
}

// Pick is Algorithm 6 over friend indices: rank the candidate bucket by
// connection count (descending — "the maximum number of social
// connections"), break ties by bandwidth (descending) then index
// (ascending), and when the runner-up has strictly better bandwidth than
// the leader, prefer the runner-up ("enough bandwidth to serve the
// connections"). ignoreBandwidth disables the runner-up upgrade (the
// Algorithm-6 ablation). conn is the Indexer's Conn slice; bw maps a
// friend index to its peer's modeled upload bandwidth. The order is total,
// so one pass that keeps the leader and the runner-up finds the two a sort
// would put first, and allocates nothing. cand must not be empty.
func Pick(cand []int32, conn []int, bw func(i int32) float64, ignoreBandwidth bool) int32 {
	before := func(i, j int32) bool {
		if conn[i] != conn[j] {
			return conn[i] > conn[j]
		}
		if bi, bj := bw(i), bw(j); bi != bj {
			return bi > bj
		}
		return i < j
	}
	lead, runner := cand[0], int32(-1)
	for _, i := range cand[1:] {
		switch {
		case before(i, lead):
			lead, runner = i, lead
		case runner < 0 || before(i, runner):
			runner = i
		}
	}
	if !ignoreBandwidth && runner >= 0 && bw(lead) < bw(runner) {
		return runner
	}
	return lead
}
