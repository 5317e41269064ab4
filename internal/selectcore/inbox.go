package selectcore

import (
	"sort"

	"selectps/internal/overlay"
	"selectps/internal/ring"
)

// RingMember pairs a peer with its current ring identifier — the input
// row both the simulator (direct overlay reads) and the runtime (the
// converged position registry) feed to the inbox placement rule.
type RingMember struct {
	ID  overlay.PeerID
	Pos ring.ID
}

// InboxReplicas is the replica-placement rule of the durable delivery
// tier (DESIGN.md §12): a subscriber's inbox lives on the first r live
// peers clockwise from its ring position — the same r-deep successor
// neighborhood the ring-splice repair maintains, so replica identity
// needs no extra state and every peer that can compute the ring can
// compute the replica set. The subscriber itself is excluded (it cannot
// hold its own offline inbox); ties on a shared position break by peer
// id so every caller derives the identical set.
func InboxReplicas(sub overlay.PeerID, subPos ring.ID, members []RingMember, live func(overlay.PeerID) bool, r int) []overlay.PeerID {
	return AppendInboxReplicas(nil, sub, subPos, members, live, r)
}

// AppendInboxReplicas is InboxReplicas into caller storage: the set is
// appended to dst, and with room in dst for r more nothing is allocated.
func AppendInboxReplicas(dst []overlay.PeerID, sub overlay.PeerID, subPos ring.ID, members []RingMember, live func(overlay.PeerID) bool, r int) []overlay.PeerID {
	return clockwiseSuccessors(dst, subPos, sub, members, live, r)
}

// LeaseOrder is the claim-scheduling rule: the order in which a rejoined
// subscriber leases its replicas for replay, one at a time. The order is
// a splitmix64-keyed ranking of (sub, epoch, replica) — deterministic
// for a given claim cycle (a crash-and-retry replays the identical
// hand-off sequence, which the fault tests pin), yet varying with the
// epoch so repeated cycles spread the first-lease load across the
// replica set instead of hammering the nearest successor every time.
// Ties (a rank collision) break by peer id. The input slice is not
// mutated.
func LeaseOrder(sub overlay.PeerID, epoch uint32, replicas []overlay.PeerID) []overlay.PeerID {
	out := append([]overlay.PeerID(nil), replicas...)
	rank := func(p overlay.PeerID) uint64 {
		z := splitmix64(0xA5B35705 + 0x9E3779B97F4A7C15*uint64(uint32(sub)+1))
		z = splitmix64(z + 0xBF58476D1CE4E5B9*uint64(epoch+1))
		return splitmix64(z + 0x94D049BB133111EB*uint64(uint32(p)+1))
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank(out[i]), rank(out[j])
		if ri != rj {
			return ri < rj
		}
		return out[i] < out[j]
	})
	return out
}
