// Package transport moves wire messages between live peers. Two
// implementations stand in for the paper's WebRTC data channels
// (DESIGN.md §2): an in-process switchboard with optional emulated latency
// (the default for experiments — deterministic and fast), and real TCP
// sockets on the loopback interface (demonstrating that the node runtime
// speaks an actual network protocol): one listener for the process and
// one connection per receiving mailbox, every frame prefixed with the
// next hop it is for (DESIGN.md §10.2).
//
// Both implementations publish their drop/redial accounting through an
// optional obs.Metrics sink, and both compose under faultnet.Wrap for
// chaos testing (DESIGN.md §7).
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"selectps/internal/obs"
	"selectps/internal/wire"
)

// Envelope is a received message. To is the peer the envelope was
// delivered to — on a shared (multiplexed) inbox it is what routes the
// message to the owning node, since Msg.To may name a final destination
// further along the forwarding path.
type Envelope struct {
	Msg *wire.Message
	To  int32
	// At is the enqueue instant; receivers derive queueing delay
	// (obs sojourn histogram) from it. Zero when a transport doesn't
	// stamp it.
	At time.Time
}

// Transport delivers messages between peers. Implementations must be safe
// for concurrent use.
//
// Drop semantics: Send is best-effort and asynchronous. A non-nil error
// means the message was definitely not sent (unknown peer, transport
// closed, connection failure after retry). A nil error means the message
// was accepted by the network, NOT that it was delivered: implementations
// silently drop messages when the receiver's mailbox is full (congestion)
// or when delivery races a Close. Every silent drop is accounted in the
// implementation's obs.Metrics sink (CDropFullMailbox, CDropClosed) when
// one is attached — there are no unobservable losses.
type Transport interface {
	// Send delivers m to peer `to` asynchronously. See the interface
	// comment for the error and drop contract.
	Send(to int32, m *wire.Message) error
	// Inbox returns the receive channel for peer `owner`. The channel is
	// closed when the transport shuts down.
	Inbox(owner int32) <-chan Envelope
	// Close shuts the transport down and closes all inboxes. Messages
	// still in flight (e.g. on a latency timer) are dropped and counted.
	Close()
}

// FrameSender is the optional raw-frame path (DESIGN.md §10.3):
// transports whose wire format IS the marshaled frame (TCP) accept a
// pre-encoded frame directly, so a sender marshals into a buffer it
// reuses — the publish fan-out and the ack flush, one frame per next hop
// — or marshals once and patches To and Seq per recipient (the heartbeat
// sweep, wire.PatchTo) instead of building a Message per frame. The frame
// must be a full self-delimited wire frame (length prefix included);
// `from` is the peer sending it, which the frame's From field does not
// name when a relay passes a publication on. The transport copies the
// frame before returning, so the caller may reuse the buffer at once.
//
// The switchboard deliberately does not implement FrameSender — it hands
// receivers the *wire.Message pointer itself, each recipient needs its
// own instance, and Switchboard-based tests stay byte-deterministic.
// Fault middleware (faultnet) doesn't either, so wrapped transports fall
// back to the per-message path and every copy stays subject to injection.
type FrameSender interface {
	SendFrame(from, to int32, frame []byte) error
}

// InboxMux has no implementation left; it stays declared because the
// frozen bench/trace.go names the type in a runtime assertion.
type InboxMux interface {
	BindInbox(owner int32, ch chan Envelope) bool
}

// BatchInboxMux is the multiplexable form of inbox registration (DESIGN.md
// §11, §15): a receiver that owns many peers — a shard of the event-loop
// runtime — binds them all to ONE shared channel and drains it from a
// single select, instead of holding one goroutine per Inbox channel.
// The transport delivers *[]Envelope slices — pooled via GetEnvelopeBatch /
// PutEnvelopeBatch — so a burst of inbound frames costs one channel send
// and one receiver wakeup instead of one per frame. Envelopes carry To so
// the receiver can dispatch to the owning peer; the receiver owns a
// delivered batch and must return it with PutEnvelopeBatch once drained.
//
// BindInboxBatch must be called before traffic for `owner` starts and
// returns false when this transport cannot deliver in bulk. A bound
// channel is never closed by the transport — it is owned by the binder,
// which must keep draining it (or accept counted full-mailbox drops) until
// the transport closes. Every transport in the repo implements it — fault
// middleware (faultnet) forwards to its inner transport and reports that
// transport's capability, since faults are injected on Send — and the
// node runtime takes no other ingress path.
type BatchInboxMux interface {
	BindInboxBatch(owner int32, ch chan *[]Envelope) bool
}

// ingressBatchMax caps how many envelopes one bulk-ingress batch
// carries; it mirrors sendBatchMax on the TCP write side.
const ingressBatchMax = 64

var envBatchPool = sync.Pool{New: func() any {
	s := make([]Envelope, 0, ingressBatchMax)
	return &s
}}

// GetEnvelopeBatch returns a pooled, zero-length envelope slice for bulk
// ingress. Return it with PutEnvelopeBatch once every envelope has been
// consumed.
func GetEnvelopeBatch() *[]Envelope {
	return envBatchPool.Get().(*[]Envelope)
}

// PutEnvelopeBatch recycles a batch obtained from GetEnvelopeBatch,
// clearing the entries so pooled slices never pin Message memory.
func PutEnvelopeBatch(b *[]Envelope) {
	if b == nil || cap(*b) > 4*ingressBatchMax {
		return
	}
	for i := range *b {
		(*b)[i] = Envelope{}
	}
	*b = (*b)[:0]
	envBatchPool.Put(b)
}

// swBox is one peer's mailbox with its own close state: senders to
// different peers share nothing, so fan-out to distinct receivers no
// longer serializes on a transport-global mutex. The per-peer channel is
// allocated lazily on the first Inbox call — a peer bound to a shared
// shard channel (BindInboxBatch) never allocates one, which is what keeps
// a 4000-peer switchboard from holding 4000 buffered channels nobody
// reads.
type swBox struct {
	mu          sync.Mutex
	ch          chan Envelope    // lazily allocated by Inbox
	sharedBatch chan *[]Envelope // set by BindInboxBatch; takes precedence over ch
	closed      bool
}

// Switchboard is the in-memory transport: per-peer buffered mailboxes,
// optional per-message latency, deterministic when Latency is nil. The
// mailbox set is immutable after construction (peers 0..n-1), so Send
// reaches a mailbox by slice index and takes only that mailbox's lock.
type Switchboard struct {
	boxes  []*swBox
	buffer int
	closed atomic.Bool
	// timerMu serializes latency-timer registration against Close's
	// wg.Wait (the only remaining cross-peer lock, off the synchronous
	// path entirely).
	timerMu sync.Mutex
	// inflight counts latency-delayed deliveries not yet completed —
	// the switchboard's transport-owned concurrency (each one briefly
	// becomes a timer goroutine when it fires), reported by InFlight
	// for runtime-scale goroutine budgets.
	inflight atomic.Int64
	// Latency, when set, returns the delivery delay for a message from →
	// to; delivery happens on a timer goroutine.
	Latency func(from, to int32) time.Duration
	// Obs, when set before traffic starts, receives send/drop counters.
	Obs *obs.Metrics
	wg  sync.WaitGroup
}

// NewSwitchboard creates mailboxes for peers 0..n-1 with the given buffer
// size per mailbox. Per-peer channels are allocated on first use (Inbox);
// peers bound to a shared channel never allocate one.
func NewSwitchboard(n, buffer int) *Switchboard {
	s := &Switchboard{boxes: make([]*swBox, n), buffer: buffer}
	for i := range s.boxes {
		s.boxes[i] = &swBox{}
	}
	return s
}

// deliver pushes m into box, counting instead of panicking when it loses
// the race with Close or finds the mailbox full. The per-box mutex (not a
// recover) is what makes the closed-channel send impossible: a box is
// only closed under its own lock with closed=true, and deliver never
// touches the channel once the flag is set.
func (s *Switchboard) deliver(box *swBox, owner int32, m *wire.Message) {
	box.mu.Lock()
	defer box.mu.Unlock()
	if box.closed || s.closed.Load() {
		// Lost the race with Close (the global flag catches latency
		// timers firing during the drain, before boxes close): a dropped
		// packet, not a crash — real networks drop packets too. Counted,
		// never silent.
		s.Obs.Inc(obs.CDropClosed)
		return
	}
	if bch := box.sharedBatch; bch != nil {
		// Bulk-bound receiver: the switchboard delivers synchronously, so
		// each send is a batch of one — the uniform *[]Envelope mailbox is
		// what lets the shard drain switchboard and TCP traffic through
		// the same bulk path.
		nb := GetEnvelopeBatch()
		*nb = append(*nb, Envelope{Msg: m, To: owner, At: time.Now()})
		select {
		case bch <- nb:
			s.Obs.Inc(obs.CIngressBatch)
		default:
			PutEnvelopeBatch(nb)
			s.Obs.Inc(obs.CDropFullMailbox)
		}
		return
	}
	if box.ch == nil {
		box.ch = make(chan Envelope, s.buffer)
	}
	select {
	case box.ch <- Envelope{Msg: m, To: owner, At: time.Now()}:
	default:
		// Mailbox full: drop, like a congested link.
		s.Obs.Inc(obs.CDropFullMailbox)
	}
}

// Send implements Transport.
func (s *Switchboard) Send(to int32, m *wire.Message) error {
	if s.closed.Load() {
		return fmt.Errorf("transport: switchboard closed")
	}
	if to < 0 || int(to) >= len(s.boxes) {
		return fmt.Errorf("transport: unknown peer %d", to)
	}
	box := s.boxes[to]
	s.Obs.Inc(obs.CTransportSend)
	if s.Latency != nil {
		// Register the timer while holding timerMu so Close's wg.Wait
		// cannot start between the closed check and the Add.
		s.timerMu.Lock()
		if s.closed.Load() {
			s.timerMu.Unlock()
			return fmt.Errorf("transport: switchboard closed")
		}
		s.wg.Add(1)
		s.inflight.Add(1)
		s.timerMu.Unlock()
		d := s.Latency(m.From, to)
		time.AfterFunc(d, func() {
			defer s.wg.Done()
			defer s.inflight.Add(-1)
			s.deliver(box, to, m)
		})
		return nil
	}
	s.deliver(box, to, m)
	return nil
}

// InFlight reports how many latency-delayed deliveries are pending —
// the switchboard's contribution to a runtime-scale goroutine budget
// (zero when Latency is unset: undelayed delivery is synchronous).
func (s *Switchboard) InFlight() int {
	return int(s.inflight.Load())
}

// Inbox implements Transport, allocating the per-peer channel on first
// call.
func (s *Switchboard) Inbox(owner int32) <-chan Envelope {
	if owner < 0 || int(owner) >= len(s.boxes) {
		return nil
	}
	box := s.boxes[owner]
	box.mu.Lock()
	defer box.mu.Unlock()
	if box.ch == nil {
		box.ch = make(chan Envelope, s.buffer)
	}
	return box.ch
}

// BindInboxBatch implements BatchInboxMux: peer owner's traffic is
// delivered as pooled single-envelope batches into ch. See the interface
// contract for ownership and close semantics.
func (s *Switchboard) BindInboxBatch(owner int32, ch chan *[]Envelope) bool {
	if owner < 0 || int(owner) >= len(s.boxes) {
		return false
	}
	box := s.boxes[owner]
	box.mu.Lock()
	box.sharedBatch = ch
	box.mu.Unlock()
	return true
}

// Close implements Transport. Delayed messages still on their latency
// timer are dropped and counted as closed drops.
func (s *Switchboard) Close() {
	s.timerMu.Lock()
	already := s.closed.Swap(true)
	s.timerMu.Unlock()
	if already {
		return
	}
	s.wg.Wait() // in-flight timers fire, see closed, and count their drop
	for _, box := range s.boxes {
		box.mu.Lock()
		box.closed = true
		if box.ch != nil {
			close(box.ch) // shared channels are binder-owned, never closed here
		}
		box.mu.Unlock()
	}
}
