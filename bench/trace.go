package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selectps/internal/node"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// The traced run records spans from the benchmark's own files, around
// its calls into each layer: nothing is added to the program under test.
// Spans stay in memory until the run ends.

type spanName uint8

const (
	spanPhase spanName = iota
	spanPublish
	spanSubscribe
	spanRejoin
	spanSend
	spanDeliver
)

var spanNames = [...]string{"bench.phase", "node.publish", "node.subscribe", "node.rejoin", "transport.send", "app.deliver"}

// span is one recorded interval. pub identifies the publication
// (publisher<<32 | seq) so that the spans of one publication can be
// joined; it is 0 for frames that belong to none.
type span struct {
	name       spanName
	kind       wire.Kind
	from, to   int32 // the hop; a relay's from is resolved when the trace is written (see write)
	origin     int32 // the frame's From field: who made the frame, which a relay does not re-stamp
	dest       int32 // the frame's final destination (its To field); a relayed copy keeps it hop after hop
	ttl        uint8 // the frame's TTL as sent: every relay spends one
	bytes      int32
	start, end int64 // ns since the run's epoch
	pub        uint64
	label      string // bench.phase only
}

func pubID(publisher int32, seq uint32) uint64 { return uint64(uint32(publisher))<<32 | uint64(seq) }

const traceStripes = 64

// tracer collects spans. Sends come from both shard loops, the
// generator and rejoin goroutines, so spans land in per-peer stripes.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	stripes [traceStripes]struct {
		mu    sync.Mutex
		spans []span
		_     [32]byte
	}
}

func newTracer(epoch time.Time) *tracer {
	t := &tracer{epoch: epoch}
	for i := range t.stripes {
		t.stripes[i].spans = make([]span, 0, 1<<13)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(stripe int32, s span) {
	st := &t.stripes[uint32(stripe)%traceStripes]
	st.mu.Lock()
	st.spans = append(st.spans, s)
	st.mu.Unlock()
}

// deliver records the app.deliver instant.
func (t *tracer) deliver(sub int32, d node.Delivery, at int64) {
	if !t.on.Load() {
		return
	}
	t.add(sub, span{name: spanDeliver, from: d.Publisher, to: sub, dest: sub, start: at, end: at, pub: pubID(d.Publisher, d.Seq)})
}

// call records a span around one call into the node API.
func (t *tracer) call(name spanName, peer int32, start int64, pub uint64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.add(peer, span{name: name, from: peer, to: -1, dest: -1, start: start, end: t.now(), pub: pub})
}

// frameLen is the encoded size of m, the frame wire.Marshal would
// produce. Sends of a *wire.Message never show the benchmark their
// bytes (TCP marshals inside, the switchboard passes the pointer), so
// the size is computed from the documented frame layout; a test holds
// it equal to len(wire.Marshal(m)).
func frameLen(m *wire.Message) int {
	return 84 + 4*len(m.Neighborhood) + 4*len(m.RoutingTable) + 8*len(m.Bitmap) + len(m.Payload) +
		4*len(m.Succs) + 8*len(m.SuccPos) + 4*len(m.Preds) + 8*len(m.PredPos) + len(m.Topic) + 22*len(m.Acks)
}

// carriesPub reports whether frames of kind k belong to one publication.
func carriesPub(k wire.Kind) bool {
	switch k {
	case wire.KindPublish, wire.KindAck, wire.KindTopicPub, wire.KindTopicPubAck,
		wire.KindInboxDeposit, wire.KindInboxDepositAck, wire.KindInboxReplay, wire.KindInboxReplayAck:
		return true
	}
	return false
}

// relayedAsIs reports whether relays pass frames of kind k on without
// re-stamping From: a routed publication copy and its routed ack keep
// their maker's id hop after hop, and only their TTL tells the hops apart.
func relayedAsIs(k wire.Kind) bool { return k == wire.KindPublish || k == wire.KindAck }

// frameHead is what the tracer reads from a marshaled frame.
type frameHead struct {
	kind         wire.Kind
	origin, dest int32
	ttl          uint8
	pub          uint64
}

// readFrameHead decodes a marshaled frame's head: kind, from, to, seq
// sit at fixed offsets; publisher and TTL follow three counted lists and
// one fixed field. pub and ttl stay 0 for kinds that carry no publication.
func readFrameHead(frame []byte) frameHead {
	if len(frame) < 17 {
		return frameHead{origin: -1, dest: -1}
	}
	h := frameHead{
		kind:   wire.Kind(frame[4]),
		origin: int32(binary.LittleEndian.Uint32(frame[5:])),
		dest:   int32(binary.LittleEndian.Uint32(frame[9:])),
	}
	if !carriesPub(h.kind) {
		return h
	}
	seq := binary.LittleEndian.Uint32(frame[13:])
	off := 17
	skip := func(width int) bool {
		if off+4 > len(frame) {
			return false
		}
		off += 4 + width*int(binary.LittleEndian.Uint32(frame[off:]))
		return true
	}
	if !skip(4) || !skip(4) { // neighborhood, routing table
		return h
	}
	off += 4 // nmutual
	if !skip(8) || off+5 > len(frame) {
		return h
	}
	h.pub = pubID(int32(binary.LittleEndian.Uint32(frame[off:])), seq)
	h.ttl = frame[off+4]
	return h
}

// tracedTransport is the benchmark-owned pass-through. It forwards
// InboxMux and BatchInboxMux, so the shards keep their bulk mailboxes.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
}

// tracedFrameTransport adds FrameSender, and only wraps transports that
// have it: AckBatchAuto keys on that capability, so the cluster under
// the wrapper runs the same protocol as the cluster without it.
type tracedFrameTransport struct {
	tracedTransport
	fs transport.FrameSender
}

func wrapTransport(inner transport.Transport, t *tracer) transport.Transport {
	base := tracedTransport{inner: inner, t: t}
	if fs, ok := inner.(transport.FrameSender); ok {
		return &tracedFrameTransport{tracedTransport: base, fs: fs}
	}
	return &base
}

func (x *tracedTransport) Send(to int32, m *wire.Message) error {
	if !x.t.on.Load() {
		return x.inner.Send(to, m)
	}
	// Read m before the send: the switchboard hands the pointer to the
	// receiver, which edits TTL and HopCount in place. Send is not told
	// who calls it; m.From is the caller except on a relayed copy, whose
	// from is put right when the trace is written.
	s := span{name: spanSend, kind: m.Kind, from: m.From, origin: m.From, to: to, dest: m.To, bytes: int32(frameLen(m))}
	if carriesPub(m.Kind) {
		s.pub, s.ttl = pubID(m.Publisher, m.Seq), m.TTL
	}
	s.start = x.t.now()
	err := x.inner.Send(to, m)
	s.end = x.t.now()
	x.t.add(s.from, s)
	return err
}

func (x *tracedTransport) Inbox(owner int32) <-chan transport.Envelope { return x.inner.Inbox(owner) }
func (x *tracedTransport) Close()                                      { x.inner.Close() }

func (x *tracedTransport) BindInbox(owner int32, ch chan transport.Envelope) bool {
	mux, ok := x.inner.(transport.InboxMux)
	return ok && mux.BindInbox(owner, ch)
}

func (x *tracedTransport) BindInboxBatch(owner int32, ch chan *[]transport.Envelope) bool {
	mux, ok := x.inner.(transport.BatchInboxMux)
	return ok && mux.BindInboxBatch(owner, ch)
}

func (x *tracedFrameTransport) SendFrame(from, to int32, frame []byte) error {
	if !x.t.on.Load() {
		return x.fs.SendFrame(from, to, frame)
	}
	h := readFrameHead(frame)
	s := span{name: spanSend, kind: h.kind, from: from, origin: h.origin, to: to, dest: h.dest, ttl: h.ttl, bytes: int32(len(frame)), pub: h.pub}
	s.start = x.t.now()
	err := x.fs.SendFrame(from, to, frame)
	s.end = x.t.now()
	x.t.add(from, s)
	return err
}

// frameClass buckets wire kinds for the frames_*_per_notif split.
func frameClass(k wire.Kind) string {
	switch k {
	case wire.KindPublish, wire.KindTopicPub, wire.KindInboxDeposit, wire.KindInboxReplay:
		return "data"
	case wire.KindAck, wire.KindAckBatch, wire.KindTopicPubAck, wire.KindInboxDepositAck, wire.KindInboxReplayAck:
		return "ack"
	}
	return "control"
}

// traceLine is one line of trace.jsonl.
type traceLine struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Pub    uint64 `json:"pub"`
	Kind   string `json:"kind,omitempty"`
	Class  string `json:"class,omitempty"`
	From   int32  `json:"from"`
	Origin *int32 `json:"origin,omitempty"`
	To     int32  `json:"to"`
	Dest   int32  `json:"dest"`
	Bytes  int32  `json:"bytes,omitempty"`
	Label  string `json:"label,omitempty"`
}

// write orders the spans by start time, resolves each span's parent —
// the span that caused it — and writes one JSON object per line. A
// publication's first sends hang off its node.publish span. A relay
// passes a routed copy (or its ack) on with From untouched and TTL one
// lower, so a send of such a frame hangs off the last send of the same
// frame with TTL one higher, and that send's `to` is the relay: the
// span's real from. Where a peer re-addresses the publication instead
// (a topic tree hop, an inbox replay) the send hangs off the send that
// delivered the publication to that peer; app.deliver hangs off the send
// that reached the subscriber; everything else hangs off the phase it
// started in.
func (t *tracer) write(path string) (int, error) {
	var spans []span
	for i := range t.stripes {
		spans = append(spans, t.stripes[i].spans...)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)

	type copyHop struct { // one hop of one routed frame
		kind         wire.Kind
		pub          uint64
		origin, dest int32
		ttl          uint8
	}
	type arrival struct {
		pub uint64
		at  int32
	}
	publishOf := make(map[uint64]int)
	lastHop := make(map[copyHop]int) // → id of the last send of that frame at that TTL
	arrived := make(map[arrival]int) // → id of the last data send that reached its addressee
	var phases []int                 // ids of phase spans, in start order
	phaseAt := func(start int64) int {
		for i := len(phases) - 1; i >= 0; i-- {
			if p := spans[phases[i]-1]; p.start <= start && start <= p.end {
				return phases[i]
			}
		}
		return 0
	}
	// Lines are appended by hand: a run writes several hundred thousand
	// of them, and encoding/json would spend seconds on reflection.
	buf := make([]byte, 0, 256)
	for i, s := range spans {
		id := i + 1
		parent := 0
		switch s.name {
		case spanPhase:
			phases = append(phases, id)
		case spanPublish:
			publishOf[s.pub] = id
			parent = phaseAt(s.start)
		case spanSend:
			if s.pub != 0 {
				data := frameClass(s.kind) == "data"
				if relayedAsIs(s.kind) {
					key := copyHop{s.kind, s.pub, s.origin, s.dest, s.ttl + 1}
					if p, ok := lastHop[key]; ok {
						parent, s.from = p, spans[p-1].to
					}
					key.ttl = s.ttl
					lastHop[key] = id
				}
				if parent == 0 && data {
					parent = arrived[arrival{s.pub, s.from}]
				}
				if p, ok := publishOf[s.pub]; ok && parent == 0 && int32(s.pub>>32) == s.from {
					parent = p
				}
				if data && s.to == s.dest {
					arrived[arrival{s.pub, s.to}] = id
				}
			}
		case spanDeliver:
			parent = arrived[arrival{s.pub, s.to}]
		}
		if parent == 0 && s.name != spanPhase {
			parent = phaseAt(s.start)
		}
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, spanNames[s.name]...)
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(parent), 10)
		buf = append(buf, `,"pub":`...)
		buf = strconv.AppendUint(buf, s.pub, 10)
		if s.name == spanSend {
			buf = append(buf, `,"kind":"`...)
			buf = append(buf, s.kind.String()...)
			buf = append(buf, `","class":"`...)
			buf = append(buf, frameClass(s.kind)...)
			buf = append(buf, `","bytes":`...)
			buf = strconv.AppendInt(buf, int64(s.bytes), 10)
		}
		buf = append(buf, `,"from":`...)
		buf = strconv.AppendInt(buf, int64(s.from), 10)
		if s.name == spanSend && s.origin != s.from {
			buf = append(buf, `,"origin":`...)
			buf = strconv.AppendInt(buf, int64(s.origin), 10)
		}
		buf = append(buf, `,"to":`...)
		buf = strconv.AppendInt(buf, int64(s.to), 10)
		buf = append(buf, `,"dest":`...)
		buf = strconv.AppendInt(buf, int64(s.dest), 10)
		if s.label != "" {
			buf = append(buf, `,"label":`...)
			buf = strconv.AppendQuote(buf, s.label)
		}
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// traceStats is what a reader recomputes from trace.jsonl alone.
type traceStats struct {
	spans     int
	delivered int
	frames    map[string]int // by class
	bytes     int64
	hopGapsUS []float64
	sendNS    []float64
}

// readTrace recomputes the span-derived metrics from the file, the way
// any other reader of trace.jsonl would: the frame split is a count of
// transport.send lines by class over the app.deliver lines, and a hop
// gap is a data send's start minus the end of its parent send.
func readTrace(path string) (*traceStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := &traceStats{frames: make(map[string]int)}
	ends := make(map[int]int64)  // send span id → end
	isSend := make(map[int]bool) // id → is a transport.send
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", st.spans+1, err)
		}
		st.spans++
		switch l.Name {
		case "app.deliver":
			st.delivered++
		case "transport.send":
			st.frames[l.Class]++
			st.bytes += int64(l.Bytes)
			st.sendNS = append(st.sendNS, float64(l.End-l.Start))
			if l.Class == "data" {
				isSend[l.ID] = true
				ends[l.ID] = l.End
				if isSend[l.Parent] {
					st.hopGapsUS = append(st.hopGapsUS, float64(l.Start-ends[l.Parent])/1e3)
				}
			}
		}
	}
	return st, sc.Err()
}

// traceRows writes the spans to <dir>/trace.jsonl, reads the file back
// and computes the span-derived metrics from the file alone, so that
// what a reader of the file recomputes is what the benchmark reports.
func (r *runner) traceRows(dir string) error {
	path := dir + "/trace.jsonl"
	if _, err := r.c.tracer.write(path); err != nil {
		return err
	}
	st, err := readTrace(path)
	if err != nil {
		return err
	}
	res := r.res
	res.traceFile = path
	res.notef("trace: %d spans, %d app.deliver, %d hop gaps in %s", st.spans, st.delivered, len(st.hopGapsUS), path)
	per := func(x float64) float64 { return ratio(x, float64(st.delivered)) }
	res.set("transport.frames_data_per_notif", per(float64(st.frames["data"])))
	res.set("transport.frames_ack_per_notif", per(float64(st.frames["ack"])))
	res.set("transport.frames_control_per_notif", per(float64(st.frames["control"])))
	res.set("transport.bytes_per_notif", per(float64(st.bytes)))
	res.set("node.hop_gap_p50_us", quantile(st.hopGapsUS, 0.50))
	tcp50, tcp99, sw50 := 0.0, 0.0, 0.0
	if r.cfg.w.tcp {
		tcp50, tcp99 = quantile(st.sendNS, 0.50), quantile(st.sendNS, 0.99)
	} else {
		sw50 = quantile(st.sendNS, 0.50)
	}
	res.set("transport.tcp_send_p50_ns", tcp50)
	res.set("transport.tcp_send_p99_ns", tcp99)
	res.set("transport.switchboard_send_p50_ns", sw50)
	return nil
}
