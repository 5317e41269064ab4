package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"selectps/internal/obs"
	"selectps/internal/wire"
)

// defaultWriteTimeout bounds how long a writer may block on a wedged
// connection before it is evicted and retried.
const defaultWriteTimeout = 5 * time.Second

// defaultSendQueue is the floor of a lane's outbound queue depth when
// QueueLen is unset. A full queue drops the newest frame (counted, never
// silent) — the same best-effort congestion contract as a full receive
// mailbox.
const defaultSendQueue = 512

// sendBatchMax caps how many queued frames one writer flush coalesces
// into a single syscall.
const sendBatchMax = 64

// maxFrameSize bounds a frame body claimed by the length prefix; anything
// larger (or zero) marks the stream corrupt.
const maxFrameSize = 1 << 24

// bufIOSize sizes each lane's bufio reader and writer.
const bufIOSize = 64 << 10

// laneHeader is what precedes every frame body on a socket: the next-hop
// peer the frame is for, then the length prefix of the wire frame itself
// ([hop int32][len uint32][body]). Msg.To names the frame's final
// destination, so on a socket shared by many peers the hop has to travel
// with the frame.
const laneHeader = 4 + 4

// TCP is a loopback TCP transport multiplexed by receiving mailbox
// (DESIGN.md §10.2): one listener per transport, and one lane — bounded
// queue, writer goroutine, socket, reader goroutine — per mailbox that
// inbound frames land in. Peers bound to the same channel with
// BindInboxBatch (a shard of the node runtime) share a lane; a peer read
// through Inbox is a lane of its own. A started cluster therefore holds
// one socket per shard, however many peers and (origin, next-hop) pairs
// its traffic crosses.
//
// Send marshals into a pooled buffer behind the next-hop prefix and
// enqueues it on the destination's lane; the lane's writer dials lazily,
// coalesces whatever is queued into one bufio flush, and keeps the
// evict-and-redial-once contract — a failed write evicts the connection,
// redials once, and retries the batch before dropping it (counted, never
// silent). Writes carry a deadline so a wedged socket cannot block its
// writer forever. The reader validates the prefix like any outside
// input, resolves the mailbox from the bind-time peer table, and hands a
// bound mailbox whatever frames are already buffered as one batch.
type TCP struct {
	mu     sync.Mutex             // guards addrs, lanes and every lane's conn; never taken per frame
	addrs  []string               // peer → listen address: the seam a multi-process deployment fills in
	lanes  []*lane                // every lane created before Close, for binds, eviction and Close
	peers  []atomic.Pointer[lane] // peer → its lane; nil until bound, sent to or read from
	buffer int                    // private mailbox depth
	ln     net.Listener
	closed atomic.Bool  // written under mu
	live   atomic.Int32 // accept loop + lane writers + stream readers
	stop   chan struct{}
	wg     sync.WaitGroup

	// WriteTimeout bounds each batch write (default 5s; negative disables).
	WriteTimeout time.Duration
	// QueueLen is the per-lane outbound queue depth (default: the mailbox
	// depth passed to NewTCP, at least 512). Set before any peer is bound,
	// sent to or read from.
	QueueLen int
	// Obs, when set before traffic starts, receives send/drop/redial
	// counters and the queue-depth/flush-batch histograms.
	Obs *obs.Metrics
}

// lane is one receiving mailbox and everything that feeds it.
type lane struct {
	t     *TCP
	addr  string
	batch chan *[]Envelope // the bound shard channel (binder-owned), or nil
	box   chan Envelope    // the private Inbox channel of an unbound peer, or nil
	queue chan *[]byte

	// conn is written by the lane's writer goroutine only, under t.mu, so
	// the writer reads it bare and everyone else under t.mu.
	conn   net.Conn
	bw     *bufio.Writer // writer goroutine only
	dialed bool          // writer goroutine only: the next successful dial is a redial
}

// NewTCP opens the transport's loopback listener for peers 0..n-1, whose
// private mailboxes are buffer deep. Close releases all sockets.
func NewTCP(n, buffer int) (*TCP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := &TCP{
		addrs:  make([]string, n),
		peers:  make([]atomic.Pointer[lane], n),
		buffer: buffer,
		ln:     ln,
		stop:   make(chan struct{}),
	}
	for i := range t.addrs {
		t.addrs[i] = ln.Addr().String()
	}
	t.spawn(t.acceptLoop)
	return t, nil
}

// spawn runs f on a goroutine Close waits for and ConnGoroutines counts.
func (t *TCP) spawn(f func()) {
	t.wg.Add(1)
	t.live.Add(1)
	go func() {
		defer t.wg.Done()
		defer t.live.Add(-1)
		f()
	}()
}

func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.spawn(func() { t.readLoop(conn) })
	}
}

// newLane creates the lane behind owner — feeding batch, or with batch nil
// a private Inbox channel of its own — and starts its writer. Caller
// holds t.mu. Created after Close the lane is inert — no writer, and
// Send refuses before reaching it — so that a reader racing Close still
// has an open box to deliver into.
func (t *TCP) newLane(owner int32, batch chan *[]Envelope) *lane {
	qlen := t.QueueLen
	if qlen <= 0 {
		// The lane absorbs every (origin, next-hop) pair that crosses it,
		// so it is as deep as the mailbox it feeds: shallower would drop a
		// burst the mailbox could hold, deeper only moves the drop.
		qlen = max(defaultSendQueue, t.buffer)
	}
	l := &lane{t: t, addr: t.addrs[owner], batch: batch, queue: make(chan *[]byte, qlen)}
	if batch == nil {
		l.box = make(chan Envelope, t.buffer)
	}
	t.peers[owner].Store(l)
	if !t.closed.Load() {
		t.lanes = append(t.lanes, l)
		t.spawn(l.writeLoop)
	}
	return l
}

// lane returns the lane that carries frames to owner, creating the private
// one on first use.
func (t *TCP) lane(owner int32) *lane {
	if l := t.peers[owner].Load(); l != nil {
		return l
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.peers[owner].Load(); l != nil {
		return l
	}
	return t.newLane(owner, nil)
}

func (t *TCP) known(peer int32) bool { return peer >= 0 && int(peer) < len(t.peers) }

// readLoop decodes one inbound stream. Every frame names its next hop, so
// the loop needs no notion of which lane dialled it: the hop's mailbox is
// looked up per frame, and consecutive buffered frames for one bound
// mailbox cross it as one batch.
func (t *TCP) readLoop(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, bufIOSize)
	var body []byte // reused across frames; decoded Messages never alias it
	// corrupt kills the stream loudly: framing is lost for good, so fail
	// the sender-side connection, making the next Send redial instead of
	// writing into a pipe nobody decodes anymore, and count it.
	corrupt := func(c obs.Counter) {
		t.evictByRemote(conn.RemoteAddr())
		t.Obs.Inc(c)
	}
	decode := func(size int) (*wire.Message, error) {
		if cap(body) < size {
			body = make([]byte, size)
		}
		body = body[:size]
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, err
		}
		m := wire.GetMessage() // the receiver's until it calls wire.PutMessage
		if err := wire.UnmarshalInto(m, body); err != nil {
			wire.PutMessage(m)
			corrupt(obs.CTCPMalformedFrame)
			return nil, err
		}
		return m, nil
	}
	for {
		hdr, err := br.Peek(laneHeader)
		if err != nil {
			return
		}
		hop, size := parseLaneHeader(hdr)
		if !t.known(hop) {
			corrupt(obs.CTCPMalformedFrame)
			return
		}
		if size == 0 || size > maxFrameSize {
			corrupt(obs.CTCPOversizeFrame)
			return
		}
		br.Discard(laneHeader)
		m, err := decode(int(size))
		if err != nil {
			return
		}
		// Private boxes are closed only after wg.Wait in Close, and this
		// loop is wg-registered, so the channel sends below can never hit
		// a closed channel; the closed flag is checked for accounting only.
		if t.closed.Load() {
			wire.PutMessage(m)
			t.Obs.Inc(obs.CDropClosed)
			return
		}
		l := t.lane(hop)
		now := time.Now()
		if l.batch == nil {
			select {
			case l.box <- Envelope{Msg: m, To: hop, At: now}:
			default: // congested: drop, counted
				wire.PutMessage(m)
				t.Obs.Inc(obs.CDropFullMailbox)
			}
			continue
		}
		// Bulk ingress (DESIGN.md §15): after the blocking first frame,
		// greedily decode whatever frames for the same mailbox are already
		// fully buffered — a burst crosses the shard mailbox as one slice
		// instead of one channel op and wakeup per frame. Zero added
		// latency: the loop only consumes bytes the kernel already
		// delivered. Anything it cannot take (bad header, another mailbox,
		// a partial frame) is left for the next blocking iteration.
		nb := GetEnvelopeBatch()
		*nb = append(*nb, Envelope{Msg: m, To: hop, At: now})
		dead := false
		for len(*nb) < ingressBatchMax && br.Buffered() >= laneHeader {
			hdr, _ := br.Peek(laneHeader)
			nhop, nsize := parseLaneHeader(hdr)
			if !t.known(nhop) || t.peers[nhop].Load() != l || nsize == 0 || nsize > maxFrameSize ||
				br.Buffered() < laneHeader+int(nsize) {
				break
			}
			br.Discard(laneHeader)
			nm, err := decode(int(nsize)) // fully buffered: only the decode can fail
			if err != nil {
				dead = true // deliver what decoded cleanly, then die
				break
			}
			*nb = append(*nb, Envelope{Msg: nm, To: nhop, At: now})
		}
		select {
		case l.batch <- nb:
			t.Obs.Inc(obs.CIngressBatch)
		default: // congested: every envelope in the batch counted
			t.Obs.Addn(obs.CDropFullMailbox, int64(len(*nb)))
			dropBatch(nb)
		}
		if dead {
			return
		}
	}
}

func parseLaneHeader(hdr []byte) (hop int32, size uint32) {
	return int32(binary.LittleEndian.Uint32(hdr)), binary.LittleEndian.Uint32(hdr[4:])
}

// evictByRemote fails the sender-side connection whose local address
// matches remote — the dialing end of a stream a reader just found
// corrupt. Both ends of a loopback stream live in one process, so the
// reader can reach the lane directly; closing the socket makes the
// writer's next write fail, evict, and redial.
func (t *TCP) evictByRemote(remote net.Addr) {
	if remote == nil {
		return
	}
	want := remote.String()
	var victim net.Conn
	t.mu.Lock()
	for _, l := range t.lanes {
		if l.conn != nil && l.conn.LocalAddr().String() == want {
			victim = l.conn
			break
		}
	}
	t.mu.Unlock()
	if victim != nil {
		victim.Close()
	}
}

// setConn publishes the writer's connection (nil: none) to evictByRemote.
func (l *lane) setConn(c net.Conn) {
	l.t.mu.Lock()
	l.conn = c
	l.t.mu.Unlock()
}

// hangUp closes the writer's connection, so the next write dials.
func (l *lane) hangUp() {
	l.conn.Close()
	l.setConn(nil)
}

// enqueue hands a pooled frame to the lane's writer, dropping (counted)
// when the bounded queue is full.
func (l *lane) enqueue(buf *[]byte) {
	select {
	case l.queue <- buf:
		l.t.Obs.ObserveSendQueue(float64(len(l.queue)))
	default:
		wire.PutFrame(buf)
		l.t.Obs.Inc(obs.CTCPQueueDrop)
	}
}

// admit is the shared front of Send and SendFrame: the lane for `to` and
// a pooled buffer already holding the next-hop prefix.
func (t *TCP) admit(to int32) (*lane, *[]byte, error) {
	if t.closed.Load() {
		return nil, nil, fmt.Errorf("transport: tcp closed")
	}
	if !t.known(to) {
		return nil, nil, fmt.Errorf("transport: unknown peer %d", to)
	}
	t.Obs.Inc(obs.CTransportSend)
	buf := wire.GetFrame()
	*buf = binary.LittleEndian.AppendUint32((*buf)[:0], uint32(to))
	return t.lane(to), buf, nil
}

// Send implements Transport. It marshals into a pooled buffer and
// enqueues on the destination's lane; a non-nil error still means the
// message was definitely not sent (unknown peer, transport closed), and a
// nil return means the network accepted it — delivery stays best-effort,
// with every drop (full queue, failed batch after redial) counted.
func (t *TCP) Send(to int32, m *wire.Message) error {
	l, buf, err := t.admit(to)
	if err != nil {
		return err
	}
	*buf = wire.MarshalAppend(*buf, m)
	l.enqueue(buf)
	return nil
}

// SendFrame implements FrameSender: frame (a full wire frame with its
// length prefix) is copied into a pooled buffer and queued as-is, so the
// caller keeps its own buffer for the next frame.
func (t *TCP) SendFrame(from, to int32, frame []byte) error {
	l, buf, err := t.admit(to)
	if err != nil {
		return err
	}
	*buf = append(*buf, frame...)
	l.enqueue(buf)
	return nil
}

// writeLoop drains the queue: one blocking receive, then a greedy
// non-blocking drain up to sendBatchMax, one batch write, one flush. The
// queue going idle is what bounds latency — the flush happens as soon as
// nothing more is queued, not on a timer.
func (l *lane) writeLoop() {
	t := l.t
	defer func() {
		if l.conn != nil {
			l.hangUp()
		}
	}()
	batch := make([]*[]byte, 0, sendBatchMax)
	for {
		var first *[]byte
		select {
		case <-t.stop:
			// Shutdown: whatever is still queued is lost to the closing
			// race — a counted drop, like any in-flight message at Close.
			for {
				select {
				case b := <-l.queue:
					t.Obs.Inc(obs.CDropClosed)
					wire.PutFrame(b)
				default:
					return
				}
			}
		case first = <-l.queue:
		}
		batch = append(batch[:0], first)
	coalesce:
		for len(batch) < sendBatchMax {
			select {
			case b := <-l.queue:
				batch = append(batch, b)
			default:
				break coalesce
			}
		}
		l.write(batch)
		for i, b := range batch {
			wire.PutFrame(b)
			batch[i] = nil
		}
	}
}

// write sends the batch through one bufio flush, dialing lazily.
// Evict-and-redial-once: a failed write evicts the connection and retries
// the whole batch on a freshly dialed one before dropping it. Retrying the
// batch can duplicate frames the first attempt already flushed — an
// at-least-once exposure absorbed by the receiver-side dedup.
func (l *lane) write(batch []*[]byte) {
	t := l.t
	for attempt := 0; attempt < 2; attempt++ {
		if l.conn == nil {
			c, err := net.Dial("tcp", l.addr)
			if err != nil {
				break
			}
			if l.dialed {
				t.Obs.Inc(obs.CTCPRedial)
			} else {
				t.Obs.Inc(obs.CTCPDial)
			}
			l.dialed = true
			l.setConn(c)
			l.bw = bufio.NewWriterSize(c, bufIOSize)
		}
		if wt := t.writeTimeout(); wt > 0 {
			_ = l.conn.SetWriteDeadline(time.Now().Add(wt))
		}
		if err := writeFrames(l.bw, batch); err == nil {
			t.Obs.Inc(obs.CTCPFlush)
			if len(batch) > 1 {
				t.Obs.Inc(obs.CTCPCoalescedFlush)
			}
			t.Obs.ObserveFlushBatch(float64(len(batch)))
			return
		}
		// Evict the dead connection so the retry redials instead of reusing
		// the poisoned socket.
		l.hangUp()
		t.Obs.Inc(obs.CTCPWriteError)
	}
	t.Obs.Addn(obs.CTCPWriteDrop, int64(len(batch)))
}

func writeFrames(bw *bufio.Writer, batch []*[]byte) error {
	for _, b := range batch {
		if _, err := bw.Write(*b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (t *TCP) writeTimeout() time.Duration {
	switch {
	case t.WriteTimeout < 0:
		return 0
	case t.WriteTimeout == 0:
		return defaultWriteTimeout
	default:
		return t.WriteTimeout
	}
}

// ConnGoroutines reports the goroutines the transport is running right
// now, for runtime-scale budget gates: the accept loop, one writer per
// lane, and one reader per open stream (both ends of every loopback
// stream live in this process) — 1 + 2·lanes once every lane has dialled.
func (t *TCP) ConnGoroutines() int { return int(t.live.Load()) }

// Inbox implements Transport. It is nil for an unknown peer and for one
// bound with BindInboxBatch, whose frames arrive on the bound channel.
func (t *TCP) Inbox(owner int32) <-chan Envelope {
	if !t.known(owner) {
		return nil
	}
	return t.lane(owner).box
}

// BindInboxBatch implements BatchInboxMux: inbound frames for owner are
// delivered as pooled *[]Envelope slices into ch, the read loop
// coalescing whatever is already buffered on the stream, and owner joins
// the lane of every other peer bound to ch. See the interface contract
// for ownership and close semantics.
func (t *TCP) BindInboxBatch(owner int32, ch chan *[]Envelope) bool {
	if !t.known(owner) {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		if l.batch == ch {
			t.peers[owner].Store(l)
			return true
		}
	}
	t.newLane(owner, ch)
	return true
}

// Close implements Transport. Frames still queued on a lane are dropped
// and counted; writers flush nothing past the stop signal.
func (t *TCP) Close() {
	t.mu.Lock()
	already := t.closed.Swap(true)
	t.mu.Unlock()
	if already {
		return
	}
	close(t.stop)
	t.ln.Close()
	// Writer loops observe stop, drain their queues and close their
	// connections; readers then hit EOF. Both are wg-registered.
	t.wg.Wait()
	t.mu.Lock()
	for _, l := range t.lanes {
		if l.box != nil {
			close(l.box)
		}
	}
	t.mu.Unlock()
}

var _ FrameSender = (*TCP)(nil)
var _ BatchInboxMux = (*TCP)(nil)
var _ BatchInboxMux = (*Switchboard)(nil)
