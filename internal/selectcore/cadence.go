package selectcore

import "time"

// This file holds the liveness-cadence rule of the live runtime
// (DESIGN.md §15.2): heartbeat sweeps and gossip exchanges run at
// base<<level. The heartbeat level rises while a node's neighbourhood
// stays quiet; gossip has two speeds, the base interval while a pass is
// telling friends a new table and the cap once a pass has told them all.
// Any event drops a timer to zero. It is a pure state machine — no clock,
// no randomness — so the table test pins exactly when a node may go quiet
// and what wakes it.

// CadenceEvent names what woke a node's control plane up: a change in its
// own links, ring or liveness evidence. Every event drops the heartbeat
// to the base interval; only a change to the node's own routing table
// (TableChanged) drops gossip too. The runtime counts them by cause (obs
// cadence_reset_*). What an exchange teaches a node — a friend's tie
// strength, bitmap or routing table — is no event: it changes what the
// node knows, never what its own exchanges carry.
type CadenceEvent uint8

// Cadence events.
const (
	// CadenceMiss: a heartbeat probe went unanswered.
	CadenceMiss CadenceEvent = iota
	// CadenceDetector: the failure detector promoted a link to suspect or
	// evicted it as dead.
	CadenceDetector
	// CadenceLink: a long link was accepted, dropped, evicted or pruned.
	CadenceLink
	// CadenceRing: a ring head changed, or this node moved its own
	// identifier (Algorithm 2).
	CadenceRing
	// CadenceMembership: an IDAnnounce, JoinRequest, JoinReply or Leave was
	// handled, or a departed peer was pruned from the ring view.
	CadenceMembership
	// CadenceRetry: a publication reached its second consecutive retry —
	// the data path asks for a probe now.
	CadenceRetry

	NumCadenceEvents
)

// TableChanged reports whether the event changed the node's own routing
// table — the one thing its exchanges carry — and so wakes gossip as well
// as the heartbeat.
func (ev CadenceEvent) TableChanged() bool {
	return ev == CadenceLink || ev == CadenceRing
}

const (
	// CadenceMaxLevel caps the back-off: a fully calm node probes and
	// gossips every 1<<CadenceMaxLevel base intervals.
	CadenceMaxLevel = 3
	// HeartbeatCalmRounds is how many consecutive event-free sweeps raise
	// the heartbeat level by one.
	HeartbeatCalmRounds = 2
)

// Cadence is one timer's stability state. The zero value is the base
// cadence with no calm history — what a fresh or rejoining node starts
// from. Methods return the successor state.
type Cadence struct {
	level uint8
	calm  uint8
	// dirty marks an event since the last Round or Pass: the round it
	// lands in does not count as calm.
	dirty bool
}

// Level is the current back-off exponent (0..CadenceMaxLevel).
func (c Cadence) Level() int { return int(c.level) }

// Interval is the timer's current period for the given base.
func (c Cadence) Interval(base time.Duration) time.Duration { return base << c.level }

// Event drops to the base interval and forfeits the calm streak.
func (c Cadence) Event() Cadence { return Cadence{dirty: true} }

// Round closes one heartbeat sweep: quiet sweeps accumulate, and
// HeartbeatCalmRounds of them in a row raise the level by one, up to the
// cap. A sweep an event landed in restarts the streak.
func (c Cadence) Round() Cadence {
	if c.dirty {
		return Cadence{level: c.level}
	}
	c.calm++
	if c.calm >= HeartbeatCalmRounds {
		c.calm = 0
		if c.level < CadenceMaxLevel {
			c.level++
		}
	}
	return c
}

// Pass closes one gossip round, a full pass of the peer sampler (every
// friend exchanged with once). A pass no event landed in has told every
// friend the current table, so gossip drops straight to the cap; a pass
// an event landed in may have told some friends the old one, so the next
// pass runs at the base interval.
func (c Cadence) Pass() Cadence {
	if c.dirty {
		return Cadence{}
	}
	return Cadence{level: CadenceMaxLevel}
}
