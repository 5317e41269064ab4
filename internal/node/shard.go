package node

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selectps/internal/inbox"
	"selectps/internal/obs"
	"selectps/internal/sched"
	"selectps/internal/selectcore"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// This file is the sharded event-loop runtime (DESIGN.md §11). The old
// runtime gave every node its own goroutine, three time.Tickers and a
// retry time.Timer — 5n runtime objects that drown the Go scheduler a
// couple hundred live peers in. Here the cluster runs S shard goroutines
// (S ≈ GOMAXPROCS): each shard owns one hashed timer wheel holding every
// deadline of every node pinned to it, and one shared mailbox all those
// nodes' transport inboxes multiplex into, drained by a single select.
//
// Shard affinity is the only concurrency rule of a node: its messages are
// handled, its timers fired and its exported API served on its shard's
// goroutine and nowhere else, so node state, the wheel and the per-node
// queues need no lock. An API call reaches the loop as a command — a
// closure handed over by post (enqueue and return) or do (enqueue and
// wait) and run between envelopes (DESIGN.md §11).

// Timer-wheel entry ids encode (peer, kind) in one uint64: pid<<3|kind.
// tkMonitor is shard-owned (the "pid" is the shard index) and never
// collides with node entries because no node arms that kind.
const (
	tkHeartbeat = iota
	tkGossip
	tkMaintain
	tkRepair
	tkMonitor
	tkAckFlush
)

func timerID(pid int32, kind uint64) uint64 { return uint64(uint32(pid))<<3 | kind }

// monitorEvery is the cadence of the per-shard runtime-scale gauges.
const monitorEvery = time.Second

// drainMax bounds how many envelopes one wakeup handles before the loop
// checks its stop channel again.
const drainMax = 256

// cmdBacklog is the queued-command level past which post stops returning
// at once: an outside caller that finds this many commands waiting waits
// for its own to run, so callers that outrun the loop are slowed to its
// pace instead of growing the queue without bound.
const cmdBacklog = 1024

// ingestCap bounds how many envelopes sit in the shard's internal
// per-node queues. Past it the loop stops pulling from the mailbox, the
// mailbox fills, and the transport sheds load by dropping (counted) —
// the same backpressure point the mailbox alone provided.
const ingestCap = 8192

// shedBacklog is the queued-envelope level past which a shard skips the
// bodies of its periodic timer fires (see fire): ~10ms of handler work,
// i.e. "this loop is saturated", well before ingestCap declares "this
// loop is drowning".
const shedBacklog = 256

// splitmix64 is the node→shard hash (and the phase-stagger stream):
// cheap, stateless, and well-mixed even for the sequential peer ids the
// cluster assigns.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func shardOf(pid int32, shards int) int {
	return int(splitmix64(uint64(uint32(pid))) % uint64(shards))
}

// shard is one event loop: a timer wheel, a shared mailbox, and the
// goroutine that drains both.
type shard struct {
	idx   int
	c     *Cluster
	wheel *sched.Wheel
	// mailbox is the shard's only ingress (DESIGN.md §15): the transport
	// delivers pooled envelope slices here (transport.BatchInboxMux), so
	// a flood burst costs one channel op instead of one per frame.
	mailbox chan *[]transport.Envelope
	// cmds is the command queue, a lock-free stack: callers push, the loop
	// takes the whole stack at once and runs it oldest first, which keeps
	// every caller's commands in the order it issued them. It never drops
	// and pushing never blocks. cmdDepth counts what is queued; kick wakes
	// a parked loop after a push.
	cmds     atomic.Pointer[command]
	cmdDepth atomic.Int64
	kick     chan struct{}
	// idle holds one token once the loop has exited: a command that arrives
	// after that runs on its caller's goroutine, and the token makes such
	// callers take turns.
	idle chan struct{}
	// inCallback is set while the loop runs an application callback. Code
	// in there may call Publish, so a caller that sees the flag on any shard
	// may be a loop goroutine and is never made to wait (submit).
	inCallback atomic.Bool
	// moved is set by every Schedule or Cancel a handler, timer body or
	// command makes: the loop re-reads the wheel's earliest deadline before
	// it serves the next envelope or parks.
	moved bool
	obs   *obs.Metrics
	// ibx is this shard's durable-tier journal store (nil when the inbox
	// tier is off): every replica pinned to this shard persists its
	// deposits here, keyed by replica id (inbox.go, DESIGN.md §12). sweep
	// is the list of targets one node's inbox sweep reads from it.
	ibx   *inbox.Store
	sweep []int32

	// Fair queueing. The old runtime's per-node goroutines gave every
	// node processor sharing: one node's message backlog never delayed a
	// shard-mate's acks or pongs. A single FIFO mailbox loses that — a
	// gossip burst aimed at one node adds its full sojourn to every
	// other node's latency — so the loop drains the mailbox into
	// per-node queues and serves them round-robin, one message per turn.
	// queues is indexed by peer id (only this shard's nodes ever
	// populate theirs); active is the round-robin ring of node ids with
	// pending messages; queued is the total across queues, capped at
	// ingestCap.
	queues []nodeq
	active idring
	queued int
	// fired is the loop's reused list of due wheel entries.
	fired []sched.Fired
	// gauges are the names monitorTick publishes under.
	gauges shardGauges
}

// shardGauges names a shard's runtime-scale gauges, built once when the
// shard starts rather than on every monitor tick.
type shardGauges struct {
	wheel, cmds, inbox string
	// hb and gs name the per-level node counts of the heartbeat and
	// gossip cadences.
	hb, gs [selectcore.CadenceMaxLevel + 1]string
}

func newShardGauges(idx int) shardGauges {
	shard := "_shard_" + strconv.Itoa(idx)
	g := shardGauges{wheel: "wheel_entries" + shard, cmds: "cmds_queued" + shard, inbox: "inbox_depth" + shard}
	for l := range g.hb {
		g.hb[l] = "cadence_level_" + strconv.Itoa(l) + shard
		g.gs[l] = "cadence_gossip_level_" + strconv.Itoa(l) + shard
	}
	return g
}

// nodeq is one node's pending-message stack: newest first (adaptive
// LIFO). Under backlog, serving the freshest message keeps live causal
// chains — a publish and the ack racing its retry timer — at near-zero
// sojourn no matter how deep the queue is, which is what breaks the
// congestion feedback loop (late acks → spurious retries → more load →
// later acks) that FIFO service falls into once the loop saturates.
// When the queue is shallow LIFO and FIFO are indistinguishable. The
// reordering this introduces under backlog is already part of the
// network model: handlers tolerate duplication and reordering (faultnet
// injects both), and stale backlog is exactly the traffic whose
// ordering has stopped mattering.
type nodeq struct {
	buf    []transport.Envelope
	onRing bool
}

func (q *nodeq) push(e transport.Envelope) { q.buf = append(q.buf, e) }

func (q *nodeq) pop() transport.Envelope {
	i := len(q.buf) - 1
	e := q.buf[i]
	q.buf[i] = transport.Envelope{}
	q.buf = q.buf[:i]
	return e
}

func (q *nodeq) len() int { return len(q.buf) }

// idring is the round-robin ring of node ids awaiting service.
type idring struct {
	buf  []int32
	head int
}

func (r *idring) push(id int32) { r.buf = append(r.buf, id) }

func (r *idring) pop() (int32, bool) {
	if r.head == len(r.buf) {
		return 0, false
	}
	id := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	}
	return id, true
}

func newShard(idx int, c *Cluster, opts *Options) *shard {
	return &shard{
		idx:     idx,
		c:       c,
		wheel:   sched.NewWheel(time.Millisecond, 512, time.Now()),
		mailbox: make(chan *[]transport.Envelope, opts.ShardMailbox),
		kick:    make(chan struct{}, 1),
		idle:    make(chan struct{}, 1),
		obs:     opts.Obs,
		queues:  make([]nodeq, len(c.Nodes)),
		gauges:  newShardGauges(idx),
	}
}

// pull moves every immediately-available mailbox envelope into the
// per-node queues, stopping at ingestCap so the mailbox (and behind it
// the transport's counted drops) stays the backpressure point.
func (s *shard) pull() {
	for s.queued < ingestCap {
		select {
		case nb := <-s.mailbox:
			s.enqueueBatch(nb)
		default:
			return
		}
	}
}

// enqueueBatch drains one mailbox slice into the per-node queues —
// a whole burst crosses into the fair-queueing structures in one pass —
// and recycles the slice. ingestCap may overshoot by one batch; the next
// pull iteration stops, which is the same backpressure point.
func (s *shard) enqueueBatch(nb *[]transport.Envelope) {
	for _, env := range *nb {
		s.enqueue(env)
	}
	transport.PutEnvelopeBatch(nb)
}

func (s *shard) enqueue(env transport.Envelope) {
	if env.Msg == nil || env.To < 0 || int(env.To) >= len(s.queues) {
		wire.PutMessage(env.Msg)
		return
	}
	q := &s.queues[env.To]
	q.push(env)
	s.queued++
	if !q.onRing {
		q.onRing = true
		s.active.push(env.To)
	}
}

// serve handles one message from the next node in the round-robin ring.
func (s *shard) serve() {
	id, ok := s.active.pop()
	if !ok {
		return
	}
	q := &s.queues[id]
	env := q.pop()
	s.queued--
	if q.len() > 0 {
		s.active.push(id)
	} else {
		q.onRing = false
	}
	s.deliver(env)
}

// scheduleNode arms the node's periodic wheel entries. The first fire of
// each kind is staggered deterministically within one interval so
// thousands of nodes sharing an interval don't all fire on the same tick
// (the thundering herd the per-node Tickers created at Start).
func (s *shard) scheduleNode(n *Node, start time.Time) {
	pid := int32(n.id)
	arm := func(kind uint64, every time.Duration) time.Time {
		if every <= 0 {
			return time.Time{}
		}
		off := time.Duration(splitmix64(uint64(uint32(pid))<<3|kind) % uint64(every))
		s.wheel.Schedule(timerID(pid, kind), start.Add(off))
		return start.Add(off)
	}
	n.hb.anchor = arm(tkHeartbeat, n.cfg.HeartbeatEvery)
	n.gs.anchor = arm(tkGossip, n.cfg.GossipEvery)
	arm(tkMaintain, n.cfg.MaintainEvery)
}

// command is one API call waiting for the loop: a closure, or a
// Publish call (pub) when fn is nil. Commands are pooled; the loop
// recycles one once it has run.
type command struct {
	fn   func()
	pub  publishCmd
	done chan struct{} // closed once the call has run, when the caller waits
	next *command
}

func (c *command) run() {
	if c.fn != nil {
		c.fn()
	} else {
		c.pub.run()
	}
}

var commandPool = sync.Pool{New: func() any { return new(command) }}

func putCommand(c *command) {
	*c = command{}
	commandPool.Put(c)
}

// cmdsClosed is what the queue holds once the loop has exited.
var cmdsClosed command

// submit hands fn to the loop; see push.
func (s *shard) submit(fn func(), wait bool) {
	c := commandPool.Get().(*command)
	c.fn = fn
	s.push(c, wait)
}

// push hands c, a pooled command, to the loop. With wait set it returns
// once c has run, otherwise at once — unless the queue is past cmdBacklog
// and the caller cannot be a loop goroutine, which then waits too. After
// the loop has exited c runs on the caller's goroutine. c is the loop's
// from the call on: the caller waits on its own copy of done.
func (s *shard) push(c *command, wait bool) {
	var done chan struct{}
	if wait || (s.cmdDepth.Load() >= cmdBacklog && !s.c.inCallback()) {
		done = make(chan struct{})
		c.done = done
	}
	for {
		old := s.cmds.Load()
		if old == &cmdsClosed {
			<-s.idle
			c.run()
			s.idle <- struct{}{}
			putCommand(c)
			return
		}
		c.next = old
		if s.cmds.CompareAndSwap(old, c) {
			break
		}
	}
	s.cmdDepth.Add(1)
	select {
	case s.kick <- struct{}{}:
	default:
	}
	if done != nil {
		<-done
	}
}

// runCommands runs everything queued, oldest first. Commands run whether
// or not their node is paused: they are API calls, not network input.
func (s *shard) runCommands() {
	if s.cmds.Load() == nil {
		return
	}
	var oldest *command
	n := int64(0)
	for c := s.cmds.Swap(nil); c != nil; n++ {
		next := c.next
		c.next, oldest = oldest, c
		c = next
	}
	s.cmdDepth.Add(-n)
	for c := oldest; c != nil; {
		next := c.next
		c.run()
		if c.done != nil {
			close(c.done)
		}
		putCommand(c)
		c = next
	}
}

// post runs fn on the node's loop and does not wait for it; do does. A
// node without a shard (white-box unit tests) runs both inline.
func (n *Node) post(fn func()) {
	if n.sh == nil {
		fn()
		return
	}
	n.sh.submit(fn, false)
}

func (n *Node) do(fn func()) {
	if n.sh == nil {
		fn()
		return
	}
	n.sh.submit(fn, true)
}

// postPublish runs p on the node's loop, as post does, in a pooled
// command instead of a closure.
func (n *Node) postPublish(p publishCmd) {
	if n.sh == nil {
		p.run()
		return
	}
	c := commandPool.Get().(*command)
	c.pub = p
	n.sh.push(c, false)
}

// scheduleAt upserts wheel entry id to fire at `at`.
func (s *shard) scheduleAt(id uint64, at time.Time) {
	s.wheel.Schedule(id, at)
	s.moved = true
}

// scheduleRepair upserts (or cancels) the node's repair deadline.
func (s *shard) scheduleRepair(n *Node) {
	if at, ok := n.nextRepairAt(); ok {
		s.scheduleAt(timerID(int32(n.id), tkRepair), at)
	} else {
		s.wheel.Cancel(timerID(int32(n.id), tkRepair))
		s.moved = true
	}
}

// scheduleAckFlush arms the node's ack-flush deadline. The wheel's
// Schedule is an upsert, so the caller only ever pulls it in
// (armAckFlush) — pushing it out would starve the buffer under sustained
// traffic.
func (s *shard) scheduleAckFlush(n *Node, at time.Time) {
	s.scheduleAt(timerID(int32(n.id), tkAckFlush), at)
}

// run is the shard loop. One reused timer sleeps until the wheel's
// earliest deadline. The wheel is touched ONLY when a deadline is actually
// due or something moved one — mailbox traffic costs a channel receive, a
// time.Now comparison, and the handler, which is what keeps a flooded
// shard from paying an O(slots) scan per message.
func (s *shard) run() {
	defer s.c.wg.Done()
	defer s.exit()
	s.moved = true // Start armed the nodes' entries
	if s.obs != nil {
		s.wheel.Schedule(timerID(int32(s.idx), tkMonitor), time.Now().Add(monitorEvery))
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var armed time.Time // deadline the timer is currently set for; zero = parked
	rearm := func() {
		now := time.Now()
		s.fired = s.wheel.AdvanceAppend(s.fired[:0], now)
		for _, f := range s.fired {
			if lag := now.Sub(f.At); lag > 0 {
				s.obs.ObserveLoopLagMS(float64(lag) / float64(time.Millisecond))
			}
			s.fire(f, now)
		}
		s.moved = false
		next, ok := s.wheel.Next()
		if !ok {
			next = time.Time{}
		}
		if next.Equal(armed) {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if ok {
			// Entries already due (firing took long enough for more to
			// lapse) re-enter via an immediate timer instead of looping
			// here, so a backlogged shard still interleaves its mailbox.
			d := time.Until(next)
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
		} else {
			timer.Reset(time.Hour)
		}
		armed = next
	}
	// due services timers mid-drain. A saturated mailbox must not starve
	// due deadlines: the main select picks among ready cases at random,
	// so under flood the timer would wait O(bursts). Instead every
	// handled envelope pays one time.Now comparison against the cached
	// deadline and one look at the moved flag — both far cheaper than a
	// select — bounding timer and re-arm service latency to ONE handler,
	// not a whole burst (repair deadlines are latency-sensitive; a
	// 256-message burst of slow handlers would blow them; moved deadlines
	// matter too because handlers themselves schedule new ones, e.g. an
	// ack re-arms the publisher's retry).
	due := func() {
		if s.moved || (!armed.IsZero() && !time.Now().Before(armed)) {
			rearm() // rearm stops and drains the expired timer itself
		}
	}
	for {
		// Commands first, and again before every envelope below: a backlog
		// of network input never delays an API call by more than one
		// handler.
		s.runCommands()
		if s.moved {
			rearm()
		}
		// Pending queued work: serve it round-robin without blocking,
		// re-checking stop, fresh arrivals, commands and due deadlines
		// between every handled message (drainMax per pass keeps the stop
		// check frequent under sustained load).
		if s.queued > 0 {
			select {
			case <-s.c.stop:
				return
			default:
			}
			for i := 0; i < drainMax && s.queued > 0; i++ {
				s.pull()
				s.runCommands()
				due()
				s.serve()
			}
			continue
		}
		select {
		case <-s.c.stop:
			return
		case nb := <-s.mailbox:
			s.enqueueBatch(nb)
		case <-s.kick:
		case <-timer.C:
			armed = time.Time{} // consumed: force the re-arm comparison
			rearm()
		}
	}
}

// exit closes the command queue behind the last command and hands the
// shard's nodes to whoever calls their API next. The queue is closed only
// when it is seen empty, so a command that is queued is always run, and
// run here, never beside the loop.
func (s *shard) exit() {
	for !s.cmds.CompareAndSwap(nil, &cmdsClosed) {
		s.runCommands()
	}
	s.idle <- struct{}{}
}

// deliver dispatches one envelope (enqueue checked it) to its owning
// node's handler, and then recycles its Message: the transport handed the
// shard a Message of its own, and nothing of it outlives the handler.
func (s *shard) deliver(env transport.Envelope) {
	// A paused peer is unresponsive: it drops everything.
	if n := s.c.Nodes[env.To]; !n.paused.Load() {
		if s.obs != nil && !env.At.IsZero() {
			s.obs.ObserveSojournMS(float64(time.Since(env.At)) / float64(time.Millisecond))
		}
		n.handle(env.Msg)
	}
	wire.PutMessage(env.Msg)
}

// fire runs one due wheel entry. Periodic kinds skip their body while the
// node is paused but keep their cadence — exactly what the per-node
// Tickers did — so Resume needs no re-arming. The repair kind re-arms
// from the engine's own earliest deadline (repair.go).
func (s *shard) fire(f sched.Fired, now time.Time) {
	kind := f.ID & 7
	if kind == tkMonitor {
		s.monitorTick()
		s.wheel.Schedule(f.ID, now.Add(monitorEvery))
		return
	}
	pid := int32(uint32(f.ID >> 3))
	n := s.c.Nodes[pid]
	// Congestion governor: a backlogged shard skips the BODY of periodic
	// fires (cadence continues) so control traffic yields to draining the
	// data queue. Timer fires preempt queue service in this loop — due()
	// runs before every served envelope — so without shedding, a
	// saturated shard keeps generating heartbeat/gossip load at full
	// cadence while acks rot in the backlog, and the spurious retries
	// those late acks trigger push the loop further over capacity
	// (measured as full congestion collapse: ~500ms sojourn, mass
	// mailbox drops). The old per-node runtime shed implicitly — a busy
	// node's ticker dropped ticks while its goroutine drained the inbox —
	// and this reproduces that pressure valve explicitly. Skips are
	// counted (timer_shed): redundant periodic traffic degrades first,
	// never silently.
	// Repair fires are exempt: they are the reliability path — feed and
	// topic repair, deposits, claim leases and replay re-sends — already
	// bounded by the retry budget and backoff, and by the
	// one-outstanding-replay-batch-per-target and lease contracts.
	run := func() bool {
		if s.queued >= shedBacklog {
			s.obs.Inc(obs.CTimerShed)
			return false
		}
		return !n.paused.Load()
	}
	switch kind {
	case tkHeartbeat:
		// Heartbeat and gossip re-arm at base<<level (cadence.go).
		s.wheel.Schedule(f.ID, n.heartbeatFire(f.At, now, run()))
	case tkGossip:
		s.wheel.Schedule(f.ID, n.gossipFire(f.At, now, run()))
	case tkMaintain:
		if run() {
			n.maintainTick()
		}
		s.wheel.Schedule(f.ID, nextPeriodic(f.At, now, n.cfg.MaintainEvery))
	case tkRepair:
		n.repairTick()
		if at, ok := n.nextRepairAt(); ok {
			s.wheel.Schedule(f.ID, at)
		}
	case tkAckFlush:
		// Shed-exempt: acks ARE the reliability feedback — delaying a
		// flush under backlog turns into spurious retries, the exact load
		// spiral shedding exists to break. The wheel pops an entry in its
		// deadline's tick, so the body reads the clock as at least the
		// deadline; it re-arms for the buckets not yet due.
		if now.Before(f.At) {
			now = f.At
		}
		n.flushAcks(now)
	}
}

// nextPeriodic computes a periodic entry's next deadline, skipping whole
// periods arithmetically when the shard fell behind. Re-anchoring at
// now+every (the old behavior) would collapse the splitmix64 phase
// stagger scheduleNode spread the fleet with: after any shard stall,
// every entry that lapsed during it would re-synchronize into the same
// tick and fire as one thundering herd forever after. Preserving
// at+k*every keeps each (node, kind) on its own phase through stalls.
func nextPeriodic(at, now time.Time, every time.Duration) time.Time {
	next := at.Add(every)
	if !next.After(now) {
		next = at.Add(every * (now.Sub(at)/every + 1))
	}
	return next
}

// monitorTick publishes the runtime-scale gauges: wheel entries and
// queued commands per shard, how many of the shard's nodes sit at each
// heartbeat and gossip back-off level (cadence.go), and (from shard 0)
// the live goroutine count the budget gate watches.
func (s *shard) monitorTick() {
	g := &s.gauges
	s.obs.SetGauge(g.wheel, int64(s.wheel.Len()))
	s.obs.SetGauge(g.cmds, s.cmdDepth.Load())
	if s.ibx != nil {
		s.obs.SetGauge(g.inbox, int64(s.ibx.Depth()))
	}
	var hb, gs [selectcore.CadenceMaxLevel + 1]int64
	for _, n := range s.c.Nodes {
		if n.sh == s {
			hb[n.hb.Level()]++
			gs[n.gs.Level()]++
		}
	}
	for l := range hb {
		s.obs.SetGauge(g.hb[l], hb[l])
		s.obs.SetGauge(g.gs[l], gs[l])
	}
	if s.idx == 0 {
		s.obs.SetGauge("goroutines", int64(runtime.NumGoroutine()))
		s.obs.SetGauge("shards", int64(len(s.c.shards)))
	}
}
