package node

import (
	"time"

	"selectps/internal/obs"
	"selectps/internal/selectcore"
)

// This file drives the liveness cadence (DESIGN.md §15.2): the heartbeat
// and gossip timers fire every base<<level, selectcore.Cadence deciding
// the level — the heartbeat's up while the neighbourhood is quiet, the
// gossip's at the cap once a sampler pass has told every friend the
// current table, either at zero after an event that concerns it — and an
// event also pulls a backed-off timer in, so the node looks again within
// one base interval of whatever woke it.

// cadenceTimer is one stability-scaled periodic wheel entry of a node.
type cadenceTimer struct {
	selectcore.Cadence
	kind uint64        // tkHeartbeat or tkGossip
	base time.Duration // Options.HeartbeatEvery / GossipEvery
	// anchor is the deadline of the latest fire. Pull-ins land on
	// anchor + k·base, the grid every back-off level shares, so the phase
	// stagger scheduleNode spread the fleet with survives them.
	anchor time.Time
}

var cadenceResetCounter = [selectcore.NumCadenceEvents]obs.Counter{
	selectcore.CadenceMiss:       obs.CCadenceResetMiss,
	selectcore.CadenceDetector:   obs.CCadenceResetDetector,
	selectcore.CadenceLink:       obs.CCadenceResetLink,
	selectcore.CadenceRing:       obs.CCadenceResetRing,
	selectcore.CadenceMembership: obs.CCadenceResetMembership,
	selectcore.CadenceRetry:      obs.CCadenceResetRetry,
}

// cadenceEvent records that something in the node's neighbourhood
// changed: the heartbeat drops to its base interval, and so does gossip
// when the event changed this node's own routing table; a timer that was
// backed off is pulled in to its next base-grid point.
func (n *Node) cadenceEvent(ev selectcore.CadenceEvent) {
	n.cfg.Obs.Inc(cadenceResetCounter[ev])
	// Whatever the pulled-in heartbeat fire finds, it is a sweep of its
	// own, not the fold point of the backed-off one before it.
	n.hbFold = false
	n.resetTimer(&n.hb)
	if ev.TableChanged() {
		n.resetTimer(&n.gs)
	}
}

func (n *Node) resetTimer(t *cadenceTimer) {
	backedOff := t.Level() > 0
	t.Cadence = t.Event()
	if backedOff && n.sh != nil && t.base > 0 {
		n.sh.scheduleAt(timerID(int32(n.id), t.kind), nextPeriodic(t.anchor, time.Now(), t.base))
	}
}

// heartbeatFire is the tkHeartbeat wheel entry: it runs the sweep —
// unless the shard shed it or the node is paused (run false) — and
// returns the entry's next deadline.
//
// A sweep that ran backed off is followed by a fold point one base
// interval later, not one backed-off interval later: if every probe was
// answered by then the timer sleeps out the rest of the interval,
// otherwise the fold point becomes a sweep, which folds the misses and
// so drops the node to the base cadence. A silent peer therefore costs a
// fully calm node at most 2^CadenceMaxLevel intervals until it is probed
// and DeadAfter more until it is declared dead.
func (n *Node) heartbeatFire(at, now time.Time, run bool) time.Time {
	fold := n.hbFold
	n.hbFold = false
	if fold && len(n.pendingPings) == 0 {
		run = false
	}
	if run {
		n.sendHeartbeats()
	}
	n.hb.anchor = at
	if fold && !run && n.hbSweepAt.After(now) {
		return n.hbSweepAt
	}
	if every := n.hb.Interval(n.hb.base); every > n.hb.base {
		n.hbFold = true
		n.hbSweepAt = at.Add(every)
	}
	return nextPeriodic(at, now, n.hb.base)
}

// gossipFire is the tkGossip wheel entry: one exchange, then the next
// deadline at the current back-off.
func (n *Node) gossipFire(at, now time.Time, run bool) time.Time {
	if run {
		n.sendExchange()
	}
	n.gs.anchor = at
	return nextPeriodic(at, now, n.gs.Interval(n.gs.base))
}
