// Package faultnet is a fault-injecting transport middleware: it wraps
// any transport.Transport (the in-memory switchboard or the TCP loopback
// transport) and subjects traffic to a deterministic, seeded failure
// model — per-link message loss, duplication, delay and reorder,
// bidirectional network partitions with heal times, and peer
// crash/restart driven by the log-normal churn session model of §IV
// (internal/churn).
//
// Determinism contract (DESIGN.md §7): all *timed* faults — crashes,
// restarts, partitions — are precomputed into a Schedule that is a pure
// function of (n, Config, seed); the same seed always yields the same
// Schedule.Trace(). Per-message *probabilistic* faults (drop, duplicate,
// delay) are drawn from a dedicated RNG per directed link, seeded from
// (seed, from, to), so each link sees the same decision stream whenever
// it carries the same message sequence — concurrency between links never
// perturbs another link's fate.
package faultnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"selectps/internal/churn"
	"selectps/internal/obs"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// Config parameterizes the failure model.
type Config struct {
	// DropProb is the per-message loss probability on every directed link.
	DropProb float64
	// DupProb duplicates a message (the copy is independently delayed).
	DupProb float64
	// ReorderProb holds a message back by ReorderDelay beyond its drawn
	// delay, letting later traffic on the link overtake it.
	ReorderProb float64
	// DelayMin/DelayMax bound the uniform per-message delivery delay
	// (both zero = no injected delay).
	DelayMin, DelayMax time.Duration
	// ReorderDelay is the extra hold applied to reordered messages
	// (default 2*DelayMax, or 2 ms when no delay is configured).
	ReorderDelay time.Duration
	// Kinds restricts probabilistic faults to the listed message kinds
	// (nil = all kinds). Timed faults (crash, partition) always apply:
	// a dead peer is dead for pings and publications alike.
	Kinds []wire.Kind

	// Tick is the real-time duration of one schedule step (0 disables all
	// timed faults).
	Tick time.Duration
	// Steps is the schedule horizon; past it the network runs clean.
	Steps int
	// Churn drives crash/restart events from log-normal sessions (nil =
	// no crashes).
	Churn *churn.Model
	// PartitionEvery opens a partition every so many steps (0 = none),
	// lasting PartitionFor steps, cutting off a PartitionFrac fraction of
	// peers (default 0.3).
	PartitionEvery int
	PartitionFor   int
	PartitionFrac  float64

	// Attack schedules one adversarial arm (AttackNone = honest faults
	// only). The schedule picks the attacker set and victim
	// deterministically from the seed and emits EvAttackStart /
	// EvAttackStop events; enacting the behavior is the driver's job —
	// it mirrors the window onto node adversary hooks
	// (node.Node.SetAdversary), because these are byzantine *peers*,
	// not transport faults.
	Attack AttackKind
	// AttackFrac is the fraction of peers recruited as attackers
	// (default 0.05, at least one, never the victim).
	AttackFrac float64
	// AttackFrom is the step the attack starts (default Steps/4) and
	// AttackFor its duration in steps (default Steps/2, clamped to the
	// horizon).
	AttackFrom int
	AttackFor  int
	// AttackTarget is the victim peer; negative draws one from the seed
	// stream.
	AttackTarget int32
}

// enabled reports whether any probabilistic fault is configured.
func (c *Config) probabilistic() bool {
	return c.DropProb > 0 || c.DupProb > 0 || c.ReorderProb > 0 || c.DelayMax > 0
}

type connKey struct{ from, to int32 }

// linkRNG is one directed link's private decision stream.
type linkRNG struct {
	mu sync.Mutex
	r  *rand.Rand
}

// Net is the fault-injecting middleware. It implements
// transport.Transport and composes over any inner transport; Inbox and
// message framing pass through untouched.
type Net struct {
	inner transport.Transport
	cfg   Config
	seed  int64

	// Obs, when set before traffic starts, receives per-fault counters.
	Obs *obs.Metrics

	sched *Schedule
	comp  compiled
	start time.Time

	mu   sync.Mutex
	rngs map[connKey]*linkRNG

	wg     sync.WaitGroup
	closed atomic.Bool

	// stepNow overrides the wall-clock step computation (tests).
	stepNow func() int
}

// Wrap builds the deterministic fault schedule for n peers from (cfg,
// seed) and returns a transport that injects it on top of inner. The
// schedule clock starts immediately.
func Wrap(inner transport.Transport, n int, cfg Config, seed int64) *Net {
	if cfg.ReorderDelay == 0 {
		if cfg.DelayMax > 0 {
			cfg.ReorderDelay = 2 * cfg.DelayMax
		} else {
			cfg.ReorderDelay = 2 * time.Millisecond
		}
	}
	f := &Net{
		inner: inner,
		cfg:   cfg,
		seed:  seed,
		rngs:  make(map[connKey]*linkRNG),
		start: time.Now(),
	}
	if cfg.Tick > 0 && cfg.Steps > 0 {
		f.sched = BuildSchedule(n, cfg, seed)
		f.comp = f.sched.compile()
	}
	return f
}

// Schedule returns the precomputed fault timeline (nil when timed faults
// are disabled). Its Trace() is the reproducibility artifact.
func (f *Net) Schedule() *Schedule { return f.sched }

// Step returns the current schedule step (0 when timed faults are off).
func (f *Net) Step() int {
	if f.sched == nil {
		return 0
	}
	if f.stepNow != nil {
		return f.stepNow()
	}
	return int(time.Since(f.start) / f.cfg.Tick)
}

// CrashedAt reports whether peer is inside a crash window at step.
func (f *Net) CrashedAt(step int, peer int32) bool {
	if f.sched == nil {
		return false
	}
	return f.comp.crashedAt(step, peer)
}

// PartitionedAt reports whether a and b are on opposite sides of an
// active partition at step.
func (f *Net) PartitionedAt(step int, a, b int32) bool {
	if f.sched == nil {
		return false
	}
	return f.comp.partitionedAt(step, a, b)
}

// AttackAt returns the adversarial window active at step: the arm, the
// victim, and the sorted attacker set. ok is false outside any window.
func (f *Net) AttackAt(step int) (kind AttackKind, target int32, attackers []int32, ok bool) {
	if f.sched == nil {
		return AttackNone, -1, nil, false
	}
	return f.comp.attackAt(step)
}

// link returns the decision stream for (from → to), creating it
// deterministically from (seed, from, to) on first use.
func (f *Net) link(from, to int32) *linkRNG {
	key := connKey{from, to}
	f.mu.Lock()
	lr := f.rngs[key]
	if lr == nil {
		lr = &linkRNG{r: rand.New(rand.NewSource(mixSeed(f.seed, from, to)))}
		f.rngs[key] = lr
	}
	f.mu.Unlock()
	return lr
}

// mixSeed derives a well-separated per-link seed (splitmix64 finalizer).
func mixSeed(seed int64, from, to int32) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(uint32(from)+1) + 0xBF58476D1CE4E5B9*uint64(uint32(to)+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// decision is one message's drawn fate.
type decision struct {
	drop, dup bool
	delay     time.Duration
	dupDelay  time.Duration
}

// decide draws the message's fate from the link stream. Draw order is
// fixed (drop, dup, reorder, delay, dup-delay) so the stream stays
// deterministic per link regardless of which faults are enabled.
func (f *Net) decide(lr *linkRNG) decision {
	var d decision
	lr.mu.Lock()
	defer lr.mu.Unlock()
	r := lr.r
	d.drop = r.Float64() < f.cfg.DropProb
	d.dup = r.Float64() < f.cfg.DupProb
	reorder := r.Float64() < f.cfg.ReorderProb
	span := f.cfg.DelayMax - f.cfg.DelayMin
	drawDelay := func() time.Duration {
		delay := f.cfg.DelayMin
		if span > 0 {
			delay += time.Duration(r.Int63n(int64(span)))
		}
		return delay
	}
	if f.cfg.DelayMax > 0 {
		d.delay = drawDelay()
	}
	if reorder {
		d.delay += f.cfg.ReorderDelay
	}
	if d.dup {
		d.dupDelay = d.delay
		if f.cfg.DelayMax > 0 {
			d.dupDelay = drawDelay()
		}
	}
	return d
}

// kindSubject reports whether probabilistic faults apply to kind k.
func (f *Net) kindSubject(k wire.Kind) bool {
	if len(f.cfg.Kinds) == 0 {
		return true
	}
	for _, want := range f.cfg.Kinds {
		if k == want {
			return true
		}
	}
	return false
}

// Send implements transport.Transport. Injected losses return nil — the
// message was accepted by the (faulty) network; only inner-transport
// errors on the immediate path propagate.
func (f *Net) Send(to int32, m *wire.Message) error {
	// Timed faults first: crashed endpoints and partition cuts kill the
	// message regardless of kind.
	if f.sched != nil {
		step := f.Step()
		if f.comp.crashedAt(step, m.From) || f.comp.crashedAt(step, to) {
			f.Obs.Inc(obs.CFaultCrashDrop)
			return nil
		}
		if f.comp.partitionedAt(step, m.From, to) {
			f.Obs.Inc(obs.CFaultPartitionDrop)
			return nil
		}
	}
	if !f.cfg.probabilistic() || !f.kindSubject(m.Kind) {
		return f.inner.Send(to, m)
	}
	d := f.decide(f.link(m.From, to))
	if d.drop {
		f.Obs.Inc(obs.CFaultDrop)
		return nil
	}
	if d.dup {
		f.Obs.Inc(obs.CFaultDuplicate)
		// The copy must be deep: receivers mutate TTL/HopCount in place,
		// and the original pointer is about to live in another inbox.
		f.sendAfter(to, m.Clone(), d.dupDelay)
	}
	if d.delay > 0 {
		f.Obs.Inc(obs.CFaultDelayed)
		f.sendAfter(to, m, d.delay)
		return nil
	}
	return f.inner.Send(to, m)
}

// sendAfter delivers m to the inner transport after delay (immediately
// when delay is 0), dropping it if the middleware closed in between.
func (f *Net) sendAfter(to int32, m *wire.Message, delay time.Duration) {
	if f.closed.Load() {
		return
	}
	f.wg.Add(1)
	if delay <= 0 {
		defer f.wg.Done()
		_ = f.inner.Send(to, m)
		return
	}
	time.AfterFunc(delay, func() {
		defer f.wg.Done()
		if f.closed.Load() {
			return
		}
		_ = f.inner.Send(to, m)
	})
}

// Inbox implements transport.Transport (pass-through).
func (f *Net) Inbox(owner int32) <-chan transport.Envelope { return f.inner.Inbox(owner) }

// BindInboxBatch implements transport.BatchInboxMux by forwarding to the
// inner transport and reporting its capability — wrapping a transport
// that cannot bind must not advertise binding, or bound peers would
// silently never receive. Faults are injected on Send and the receive
// side is pass-through, so a wrapped cluster drains the inner transport's
// bulk ingress exactly as an unwrapped one does.
func (f *Net) BindInboxBatch(owner int32, ch chan *[]transport.Envelope) bool {
	if mux, ok := f.inner.(transport.BatchInboxMux); ok {
		return mux.BindInboxBatch(owner, ch)
	}
	return false
}

// Close implements transport.Transport: it stops injecting, waits for
// in-flight delayed deliveries, and closes the inner transport.
func (f *Net) Close() {
	if f.closed.Swap(true) {
		return
	}
	f.wg.Wait()
	f.inner.Close()
}

var (
	_ transport.Transport     = (*Net)(nil)
	_ transport.BatchInboxMux = (*Net)(nil)
)
