package selectcore

import "time"

// This file holds the liveness-cadence rule of the live runtime
// (DESIGN.md §15.2): heartbeat sweeps and gossip exchanges run at
// base<<level, the level rising while a node's neighbourhood stays quiet
// and dropping to zero the moment anything changes. It is a pure state
// machine — no clock, no randomness — so the table test pins exactly
// when a node may go quiet and what wakes it.

// CadenceEvent names what woke a node's control plane up: a change in its
// own links, ring or liveness evidence. Every event drops both timers to
// the base interval; the runtime counts them by cause (obs
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
	// CadenceLink: a long link was accepted, dropped or evicted.
	CadenceLink
	// CadenceRing: a ring head changed, or this node moved its own
	// identifier (Algorithm 2).
	CadenceRing
	// CadenceMembership: an IDAnnounce, JoinRequest, JoinReply or Leave was
	// handled, or a departed peer was pruned from the routing state.
	CadenceMembership
	// CadenceRetry: a publication reached its second consecutive retry —
	// the data path asks for a probe now.
	CadenceRetry

	NumCadenceEvents
)

const (
	// CadenceMaxLevel caps the back-off: a fully calm node probes and
	// gossips every 1<<CadenceMaxLevel base intervals.
	CadenceMaxLevel = 3
	// HeartbeatCalmRounds is how many consecutive event-free sweeps raise
	// the heartbeat level by one.
	HeartbeatCalmRounds = 2
	// GossipCalmRounds is the same for gossip, where a round is one full
	// pass of the peer sampler (every friend exchanged with once).
	GossipCalmRounds = 1
)

// Cadence is one timer's stability state. The zero value is the base
// cadence with no calm history — what a fresh or rejoining node starts
// from. Methods return the successor state.
type Cadence struct {
	level uint8
	calm  uint8
	// dirty marks an event since the last Round: the round it lands in
	// does not count as calm.
	dirty bool
}

// Level is the current back-off exponent (0..CadenceMaxLevel).
func (c Cadence) Level() int { return int(c.level) }

// Interval is the timer's current period for the given base.
func (c Cadence) Interval(base time.Duration) time.Duration { return base << c.level }

// Event drops to the base interval and forfeits the calm streak.
func (c Cadence) Event() Cadence { return Cadence{dirty: true} }

// Round closes one round (a heartbeat sweep, a sampler pass): quiet
// rounds accumulate, and need of them in a row raise the level by one,
// up to the cap. A round an event landed in restarts the streak.
func (c Cadence) Round(need int) Cadence {
	if c.dirty {
		return Cadence{level: c.level}
	}
	c.calm++
	if int(c.calm) >= need {
		c.calm = 0
		if c.level < CadenceMaxLevel {
			c.level++
		}
	}
	return c
}
