package node

import (
	"math"
	"slices"

	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/ring"
	"selectps/internal/selectcore"
	"selectps/internal/wire"
)

// This file is the forwarding step of the friend feed (DESIGN.md §10.3):
// routeBatch resolves the next hop of every destination a frame names in
// one pass over the node's routing state, and fanOut — the only sender of
// KindPublish frames — turns the verdicts into one frame per next hop.

// route is routeBatch's verdict on one destination.
type route uint8

const (
	routeOK route = iota
	// routeDeadEnd: no live link leads anywhere.
	routeDeadEnd
	// routeOffline: the destination is not a ring member. Nothing routes to
	// it — a greedy walk toward a position nobody holds only ends when the
	// TTL does — so the copy is not sent at all: the publisher's repair
	// tick hands the subscriber to the durable tier, and an ack for a
	// crashed publisher is moot (it re-sends after it rejoins).
	routeOffline
	// routeBounce: the only usable link is the peer that just handed this
	// node the frame (routeBatch's from).
	routeBounce
)

// noHop renders a verdict other than routeOK as a next-hop value; a next
// hop is a peer id, so every negative value is free for it.
func noHop(r route) overlay.PeerID { return -overlay.PeerID(r) }

// verdictOf is noHop's inverse.
func verdictOf(hop overlay.PeerID) route {
	if hop >= 0 {
		return routeOK
	}
	return route(-hop)
}

// countUnroutable accounts for a publication copy or ack that routeBatch
// refused, under the counter of the reason: dead_end keeps meaning "no
// live link".
func (n *Node) countUnroutable(r route, kind wire.Kind, seq uint32) {
	switch {
	case r == routeBounce && kind == wire.KindAck:
		n.cfg.Obs.Inc(obs.CAckBounceDrop)
	case r == routeBounce:
		n.cfg.Obs.Inc(obs.CPublishBounceDrop)
	case r == routeDeadEnd:
		n.cfg.Obs.Inc(obs.CPublishDeadEnd)
		n.cfg.Obs.TraceEvent("dead_end", int32(n.id), seq)
	case kind == wire.KindAck:
		n.cfg.Obs.Inc(obs.CAckOfflineDrop)
	default:
		n.cfg.Obs.Inc(obs.CPublishOfflineSkip)
		n.cfg.Obs.TraceEvent("offline_skip", int32(n.id), seq)
	}
}

// routeLinksMax is the link-set size one routing pass holds on its stack:
// two ring links and K long links each way stay far below it, and a set
// configured past it spills to the heap.
const routeLinksMax = 32

// appendUnique appends q to out unless it is no peer, self, or there
// already.
func appendUnique(out []overlay.PeerID, self, q overlay.PeerID) []overlay.PeerID {
	if q < 0 || q == self || slices.Contains(out, q) {
		return out
	}
	return append(out, q)
}

// appendLinks appends R_p (short ∪ longOut ∪ longIn, deduplicated) to
// out, which must be empty.
func (n *Node) appendLinks(out []overlay.PeerID) []overlay.PeerID {
	out = appendUnique(out, n.id, n.shortSucc)
	out = appendUnique(out, n.id, n.shortPred)
	for _, q := range n.longOut {
		out = appendUnique(out, n.id, q)
	}
	for _, q := range n.longIn {
		out = appendUnique(out, n.id, q)
	}
	return out
}

// linkAlive is the accrual verdict on link q as an intermediate
// hop (§III-F, selectcore.FailureDetector): links the detector marks
// suspect or dead are avoided — a responsive peer (no current miss
// streak) is always usable, whatever its history.
func (n *Node) linkAlive(q overlay.PeerID) bool {
	c, ok := n.cma[q]
	if !ok {
		return true
	}
	return n.cfg.Detector.Classify(n.miss[q], c.Samples(), c.Value()) == selectcore.LinkAlive
}

// routeBatch resolves dests[i] to its next hop in hops[i] (or to
// noHop(verdict)) using only local knowledge, for every destination of
// one frame — or every entry of one ack batch — in a single pass: the
// link set is read once, each link's lookahead list is looked
// up once and searched in place, and the detector verdicts and ring
// positions of the links are computed once, and only if some destination
// gets as far as the greedy step. Nothing is allocated. Per destination
// the decision is: a direct link (always tried — the message can only be
// for that peer); the first link, in link order, whose cached routing
// table holds the destination, if the detector calls it alive; the live
// link greedily closest to the destination's identifier; at a local
// minimum a random live link — a TTL-bounded random walk that escapes
// the dead region, so that retries explore different paths. Which rule
// served how many destinations is counted once per pass (route_*).
//
// from ≥ 0 is the split horizon, for publication frames and ack batches
// alike: the peer that handed this node the frame is not a candidate — it
// has no better route to the destination than this node, or it would not
// have sent the frame here — and a lookahead entry that says otherwise is
// stale and is dropped. Where that peer was the only way out the verdict
// is routeBounce. from is -1 only where this node originates: its own
// publication, a retry of it, its own ack.
func (n *Node) routeBatch(dests, hops []overlay.PeerID, from overlay.PeerID) {
	var (
		linkBuf  [routeLinksMax]overlay.PeerID
		lookBuf  [routeLinksMax][]overlay.PeerID
		aliveBuf [routeLinksMax]bool
		posBuf   [routeLinksMax]ring.ID
	)
	links := n.appendLinks(linkBuf[:0])
	bounced := false
	if i := slices.Index(links, from); from >= 0 && i >= 0 {
		links = slices.Delete(links, i, i+1)
		bounced = true
	}
	// Filled when the first destination needs them.
	look, alive, pos := lookBuf[:0], aliveBuf[:0], posBuf[:0]
	var own ring.ID
	live, dead := 0, int64(0)
	var direct, viaLook, greedy, walk int64

	for i, t := range dests {
		tpos, member := n.dir.memberPos(t)
		if !member {
			hops[i] = noHop(routeOffline)
			continue
		}
		if slices.Contains(links, t) {
			hops[i] = t
			direct++
			continue
		}
		if bounced {
			n.dropLookahead(from, t)
		}
		if len(look) == 0 {
			for _, q := range links {
				look = append(look, n.lookahead[q])
			}
		}
		via := overlay.PeerID(-1)
		for j, rt := range look {
			if slices.Contains(rt, t) {
				via = links[j]
				break
			}
		}
		if via >= 0 {
			if n.linkAlive(via) {
				hops[i] = via
				viaLook++
				continue
			}
			// §III-F recovery in action: the lookahead route exists but its
			// relay looks dead — fall through to the greedy live links.
			n.cfg.Obs.Inc(obs.CCMADeadSkip)
		}
		if len(alive) == 0 && len(links) > 0 {
			own = n.dir.position(n.id)
			pos = n.dir.appendPositions(pos, links)
			for _, q := range links {
				a := n.linkAlive(q)
				alive = append(alive, a)
				if a {
					live++
				} else {
					dead++
				}
			}
		}
		n.cfg.Obs.Addn(obs.CCMADeadSkip, dead)
		best, bestD := overlay.PeerID(-1), ring.Distance(own, tpos)
		for j, q := range links {
			if !alive[j] {
				continue
			}
			if d := ring.Distance(pos[j], tpos); d < bestD {
				best, bestD = q, d
			}
		}
		switch {
		case best >= 0:
			hops[i] = best
			greedy++
		case live > 0:
			walk++
			k := n.rng.Intn(live)
			for j, q := range links {
				if alive[j] {
					if k == 0 {
						hops[i] = q
						break
					}
					k--
				}
			}
		case bounced:
			hops[i] = noHop(routeBounce)
		default:
			hops[i] = noHop(routeDeadEnd)
		}
	}
	// Addn of zero touches nothing, so a pass pays for the rules it used.
	n.cfg.Obs.Addn(obs.CRouteDirect, direct)
	n.cfg.Obs.Addn(obs.CRouteLookahead, viaLook)
	n.cfg.Obs.Addn(obs.CRouteGreedy, greedy)
	n.cfg.Obs.Addn(obs.CRouteWalk, walk)
	n.cfg.Obs.Addn(obs.CCMARandomWalk, walk)
}

// dropLookahead removes t from the cached routing table of q.
func (n *Node) dropLookahead(q, t overlay.PeerID) {
	rt := n.lookahead[q]
	if i := slices.Index(rt, t); i >= 0 {
		n.lookahead[q] = slices.Delete(rt, i, i+1)
	}
}

// grouped marks a destination fanOut has already put in a frame.
const grouped = overlay.PeerID(math.MinInt32)

// fanOut sends the publication in tmpl one hop toward every peer in
// dests: it is the one place a KindPublish frame is made — the
// publisher's first send, a relay's forward and the repair engine's retry
// all end here (DESIGN.md §10.3). Destinations are routed together, at
// most wire.MaxPublishDests at a time, and grouped by next hop; each
// group leaves as one frame naming its first member in To and the others
// in RoutingTable, so a link carries a publication once however many
// subscribers lie beyond it, and a frame with one destination is the
// frame the per-subscriber fan-out used to send. Groups keep the order
// of dests, which makes the group holding a relayed frame's To keep it
// as To. A destination routeBatch refuses is counted and skipped — the
// publisher's ack accounting will notice.
//
// from is the peer that handed this node the frame being forwarded (-1:
// the publication, or the retry, is this node's own), and no group goes
// back to it (routeBatch). Every frame that leaves is stamped with this
// node as the hop it comes from, which is how the next relay knows: From
// stays the publisher (DESIGN.md §10.3). The groups are built in the
// node's own list storage (n.group) and leave through send, so nothing is
// allocated.
func (n *Node) fanOut(tmpl wire.Message, dests []overlay.PeerID, from overlay.PeerID) {
	tmpl.SetHopFrom(int32(n.id))
	var hopBuf [wire.MaxPublishDests]overlay.PeerID
	for len(dests) > 0 {
		chunk := dests[:min(len(dests), wire.MaxPublishDests)]
		dests = dests[len(chunk):]
		hops := hopBuf[:len(chunk)]
		n.routeBatch(chunk, hops, from)
		for i, hop := range hops {
			if hop < 0 {
				if hop != grouped {
					n.countUnroutable(verdictOf(hop), wire.KindPublish, tmpl.Seq)
				}
				continue
			}
			group := n.group[:0]
			for j := i; j < len(hops); j++ {
				if hops[j] == hop {
					group = append(group, int32(chunk[j]))
					hops[j] = grouped
				}
			}
			n.cfg.Obs.Inc(obs.CPublishFrame)
			tmpl.To, tmpl.RoutingTable = group[0], group[1:]
			n.send(int32(hop), &tmpl)
		}
	}
}
