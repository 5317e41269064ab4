// Package wire defines the message protocol of the live SELECT deployment
// (internal/node): the peer-sampling exchange of Algorithms 3–4, the
// heartbeat probes behind the CMA recovery (§III-F), and publication
// forwarding. Messages use a compact length-prefixed binary encoding
// (encoding/binary, little endian) suitable for both the in-memory and the
// TCP transport.
//
// The paper's demo system speaks WebRTC between browsers; this package is
// its stand-in at the protocol layer (DESIGN.md §2).
package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Kind discriminates message types.
type Kind uint8

// Message kinds.
const (
	// KindPing probes a peer's liveness (§III-F heartbeats). It names the
	// prober's own ring position as Succs[0]/SuccPos[0], so the probed
	// peer learns it first-hand.
	KindPing Kind = iota + 1
	// KindPong answers a ping, piggybacking the responder's successor and
	// predecessor lists (Succs, Preds) with the age of each claim.
	KindPong
	// KindExchangeRT carries a peer's social neighborhood C_p and routing
	// table R_p to a random friend (Algorithm 3 line 3).
	KindExchangeRT
	// KindExchangeReply returns the mutual-friend count and the friendship
	// bitmap (Algorithm 4 line 6).
	KindExchangeReply
	// KindPublish carries a publication being disseminated to a set of
	// subscribers: the first in To, the rest in RoutingTable (at most
	// MaxPublishDests in all). A receiver that is named delivers locally;
	// it forwards what remains one hop on, one frame per next hop
	// (DESIGN.md §10.3). A frame with one destination has an empty list.
	// From stays the publisher hop after hop; the peer that sent this hop
	// rides in the Target slot (HopFrom).
	KindPublish
	// KindAck confirms a publication reached a subscriber.
	KindAck
	// KindJoinRequest asks a running member to admit the sender: the
	// inviter computes the joiner's Algorithm-1 position inside its free
	// clockwise arc (or a uniform hash position for independent joins).
	KindJoinRequest
	// KindJoinReply admits a joiner: Pos carries the assigned ring
	// identifier, RoutingTable the inviter's links as seed contacts.
	KindJoinReply
	// KindIDAnnounce broadcasts the sender's current ring identifier (Pos)
	// after a join or an Algorithm-2 reassignment.
	KindIDAnnounce
	// KindLinkProposal asks the receiver to accept a long-range link from
	// the sender (Algorithm 5 establishment).
	KindLinkProposal
	// KindLinkAccept confirms a proposed long-range link.
	KindLinkAccept
	// KindLinkDrop tears a long-range link down in both directions:
	// proposal rejected (K-incoming cap), eviction of a worse-bandwidth
	// incoming link, or budget shedding by the link's owner.
	KindLinkDrop
	// KindLeave announces a graceful departure; receivers unlink the
	// sender immediately instead of waiting for the CMA to decay.
	KindLeave
	// KindInboxDeposit stores a publication on an inbox replica for the
	// offline subscribers it names — the first in Target, the rest in
	// RoutingTable, at most MaxPublishDests in all: the publisher's
	// repair engine hands their copies to the durable tier instead of
	// dead-lettering them, one frame per replica (DESIGN.md §12.2).
	// Publisher/Seq identify the publication, Priority its replay class.
	KindInboxDeposit
	// KindInboxDepositAck confirms a deposit is persisted in the
	// replica's append log. It names an AckEntry; no frame has this kind.
	KindInboxDepositAck
	// KindInboxClaim is sent by a (re)joined subscriber to one replica
	// at a time, in seeded-deterministic lease order, asking it to
	// replay the subscriber's inbox. Seq correlates the claim cycle.
	// Acks carries the have-digest: one entry (Pub, Seq) per publication
	// the subscriber was already replayed this cycle, which the replica
	// clears instead of sending (DESIGN.md §12.4).
	KindInboxClaim
	// KindInboxLease answers a claim: NMutual carries the number of
	// pending deposits the replica holds (0 both for an empty inbox and
	// as the final "drained" notice that releases the lease).
	KindInboxLease
	// KindInboxReplay delivers a batch of stored publications from a
	// replica to their subscriber (Target), highest priority class
	// first: NMutual records in a container in the Payload slot
	// (AppendReplayRecord, NextReplayRecord), with Publisher, Seq and
	// Priority repeating the first record's (DESIGN.md §12.4).
	KindInboxReplay
	// KindInboxReplayAck acknowledges a replayed publication so the
	// replica can ack the log record and compact it away. It names an
	// AckEntry — one per record of a replay frame, all in one
	// KindAckBatch frame; no frame has this kind.
	KindInboxReplayAck
	// KindTopicSub registers the sender as a subscriber of Topic at a
	// rendezvous replica, refreshing its lease (DESIGN.md §13). Sent
	// point-to-point to every member of the topic's rendezvous set, and
	// re-sent to a member until it acks (Seq names the registration).
	KindTopicSub
	// KindTopicSubAck confirms a registration (KindTopicSub) or a registry
	// transfer (KindTopicHandoff): Pub names the sender of what it
	// confirms, Seq echoes its Seq. It names an AckEntry in a KindAckBatch
	// frame; no frame has this kind.
	KindTopicSubAck
	// KindTopicUnsub removes the sender's registration and asks the
	// receiver to purge any inbox deposits it still journals for
	// (sender, topic) — sent both to the rendezvous set and to the
	// sender's own inbox replicas so a departed subscriber cannot
	// strand journal entries.
	KindTopicUnsub
	// KindTopicPub carries a topic publication. Target < 0 marks the
	// publisher→rendezvous hand-off hop (accepted by whichever replica
	// receives it); Target >= 0 marks a dissemination-tree copy whose
	// acks flow back to the rendezvous peer Target, with RoutingTable
	// carrying the receiver's subtree of subscribers to forward on to.
	KindTopicPub
	// KindTopicPubAck confirms a rendezvous replica accepted a
	// publication for fan-out (the publisher retries the hand-off until
	// every live replica of the current rendezvous set has acked).
	KindTopicPubAck
	// KindTopicHandoff transfers a topic's subscriber registry
	// (RoutingTable) from a peer that lost rendezvous ownership — an
	// Algorithm-2 ID move or membership change shifted the set — to a
	// current member of the set, which acks it with a KindTopicSubAck
	// entry; the sender re-sends until every live member has.
	KindTopicHandoff
	// KindAckBatch coalesces several acknowledgements bound for the same
	// next hop into one frame (DESIGN.md §15). Each Acks entry carries a
	// complete single-ack description (original kind, acker, destination,
	// publication id) so the receiver can consume entries addressed to it
	// and re-batch the rest hop by hop.
	KindAckBatch
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPing:
		return "ping"
	case KindPong:
		return "pong"
	case KindExchangeRT:
		return "exchange-rt"
	case KindExchangeReply:
		return "exchange-reply"
	case KindPublish:
		return "publish"
	case KindAck:
		return "ack"
	case KindJoinRequest:
		return "join-request"
	case KindJoinReply:
		return "join-reply"
	case KindIDAnnounce:
		return "id-announce"
	case KindLinkProposal:
		return "link-proposal"
	case KindLinkAccept:
		return "link-accept"
	case KindLinkDrop:
		return "link-drop"
	case KindLeave:
		return "leave"
	case KindInboxDeposit:
		return "inbox-deposit"
	case KindInboxDepositAck:
		return "inbox-deposit-ack"
	case KindInboxClaim:
		return "inbox-claim"
	case KindInboxLease:
		return "inbox-lease"
	case KindInboxReplay:
		return "inbox-replay"
	case KindInboxReplayAck:
		return "inbox-replay-ack"
	case KindTopicSub:
		return "topic-sub"
	case KindTopicSubAck:
		return "topic-sub-ack"
	case KindTopicUnsub:
		return "topic-unsub"
	case KindTopicPub:
		return "topic-pub"
	case KindTopicPubAck:
		return "topic-pub-ack"
	case KindTopicHandoff:
		return "topic-handoff"
	case KindAckBatch:
		return "ack-batch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one protocol message. Field usage depends on Kind; unused
// fields stay zero and encode compactly.
type Message struct {
	Kind Kind
	// From and To are the logical peer ids (dense indexes).
	From, To int32
	// Seq correlates requests and replies, and identifies publications
	// ((Publisher,Seq) is the message id for dedup).
	Seq uint32

	// ExchangeRT: the sender's social neighborhood and routing table.
	// The frame layout is fixed, so a kind that needs to say something new
	// says it in a slot it used to leave empty:
	//
	//	slot          kind               carries
	//	Neighborhood  Pong, JoinReply    ages of the piggybacked ring claims (see Succs)
	//	RoutingTable  Publish, TopicPub  the destinations the frame names beyond To
	//	RoutingTable  InboxDeposit       the subscribers the frame names beyond Target
	//	Target        Publish            the inbound hop, plus one (HopFrom)
	//	NMutual       InboxLease         the replica's pending count
	//	NMutual       InboxReplay        the number of records in Payload
	//	Payload       InboxReplay        the record container (replay.go)
	//	Acks          InboxClaim         the have-digest
	Neighborhood []int32
	RoutingTable []int32

	// ExchangeReply: the mutual count and the friendship bitmap words.
	NMutual int32
	Bitmap  []uint64

	// Publish: the originating publisher, remaining TTL, and the payload
	// size in bytes. Size-only workloads (the paper's 1.2 MB fragments)
	// set PayloadSize without materializing a body; Publish(payload)
	// carries the body in Payload and keeps PayloadSize = len(Payload).
	Publisher   int32
	TTL         uint8
	PayloadSize uint32
	// HopCount accumulates the overlay hops this copy has traveled.
	HopCount uint8

	// Payload is the publication body (may be empty for size-only
	// workloads and non-publish kinds).
	Payload []byte
	// Pos carries a ring identifier (math.Float64bits): the assigned
	// position in JoinReply, the announced position in IDAnnounce, and
	// the sender's own position on Pong (for successor-list learning).
	Pos uint64

	// Succs/Preds carry the sender's r-deep successor/predecessor lists
	// with parallel ring positions (math.Float64bits), piggybacked on
	// Pong and JoinReply (Ping carries the sender's self entry only) so
	// every node learns enough ring redundancy to splice around a dead
	// neighbor locally (DESIGN.md §9). SuccPos[i]
	// is the position of Succs[i]; likewise for preds. Each claim has an
	// age: how long ago, in milliseconds, the named peer itself last
	// confirmed that position as far as the sender knows. Receivers keep
	// the fresher of two claims about a peer and let old ones lapse, so a
	// stale position cannot echo between neighbours (DESIGN.md §9.3). The
	// ages ride in Neighborhood — successors first, then predecessors; a
	// missing age reads 0 — because the frame layout is fixed and these
	// kinds leave that slot empty.
	Succs   []int32
	SuccPos []uint64
	Preds   []int32
	PredPos []uint64

	// Inbox kinds: Target is the subscriber the deposit/replay concerns
	// (From/To are only the hop endpoints), Priority its replay class
	// (0=HIGH, 1=MEDIUM, 2=LOW — internal/inbox). Both ride at the end
	// of the frame so the PatchTo/PatchSeq header offsets are untouched.
	// On Publish, which concerns no single subscriber, the Target slot
	// carries the inbound hop instead — the id of the peer that sent this
	// hop, plus one, so that the zero the kind used to leave there still
	// reads "not stated" (HopFrom, SetHopFrom).
	Target   int32
	Priority uint8

	// Topic names the topic a Topic* kind concerns (raw UTF-8 bytes).
	// Appended after Priority so, like Target/Priority before it, the
	// PatchTo/PatchSeq header offsets stay valid.
	Topic []byte

	// Acks carries the coalesced acknowledgements of a KindAckBatch
	// frame. Encoded as a count plus fixed-width records at the very end
	// of the frame, after Topic, keeping the PatchTo/PatchSeq offsets
	// valid; non-batch kinds leave it empty for +4 bytes of overhead.
	Acks []AckEntry
}

// AckEntry is one acknowledgement inside a KindAckBatch frame. It is a
// self-contained rendering of the single-ack frame it replaces: Kind is
// the original ack kind (KindAck, KindInboxDepositAck,
// KindInboxReplayAck, KindTopicPubAck or KindTopicSubAck), From the
// acking peer, Dest the peer the ack must reach, Pub/Seq the publication
// id (for KindTopicSubAck, the sender and Seq of what it confirms),
// Target the subscriber a deposit or replay ack concerns, and TTL the
// remaining relay budget for routed (KindAck) entries. A KindInboxClaim frame
// reuses the record for its have-digest, where only Pub/Seq are read.
type AckEntry struct {
	Kind   Kind
	From   int32
	Dest   int32
	Pub    int32
	Seq    uint32
	Target int32
	TTL    uint8
}

// ackEntrySize is the fixed wire width of one AckEntry record: kind (1),
// from (4), dest (4), pub (4), seq (4), target (4), ttl (1).
const ackEntrySize = 1 + 4 + 4 + 4 + 4 + 4 + 1

const maxSliceLen = 1 << 20 // defensive decode bound

// MaxPublishDests is the most subscribers one KindPublish frame may name
// (To plus RoutingTable). Senders split a larger group over several
// frames; a receiver drops a frame that names more, so one inbound frame
// never makes a relay emit more than this many (DESIGN.md §14.1). The
// decoder itself does not enforce it — the slot is shared with kinds
// whose lists are longer.
const MaxPublishDests = 64

// HopFrom returns the peer a KindPublish frame says sent this hop, or -1
// when the frame does not say. The value is outside input: anything but
// -1 and the id of a peer is malformed.
func (m *Message) HopFrom() int32 { return m.Target - 1 }

// SetHopFrom stamps a KindPublish frame with the peer sending this hop.
func (m *Message) SetHopFrom(p int32) { m.Target = p + 1 }

// Clone returns a deep copy of m. A transport's Send may read m only
// until it returns, so a component that holds a Message past that —
// faultnet's delayed and duplicated copies, a test tap — keeps a clone.
func (m *Message) Clone() *Message {
	c := *m
	if m.Neighborhood != nil {
		c.Neighborhood = append([]int32(nil), m.Neighborhood...)
	}
	if m.RoutingTable != nil {
		c.RoutingTable = append([]int32(nil), m.RoutingTable...)
	}
	if m.Bitmap != nil {
		c.Bitmap = append([]uint64(nil), m.Bitmap...)
	}
	if m.Payload != nil {
		c.Payload = append([]byte(nil), m.Payload...)
	}
	if m.Succs != nil {
		c.Succs = append([]int32(nil), m.Succs...)
	}
	if m.SuccPos != nil {
		c.SuccPos = append([]uint64(nil), m.SuccPos...)
	}
	if m.Preds != nil {
		c.Preds = append([]int32(nil), m.Preds...)
	}
	if m.PredPos != nil {
		c.PredPos = append([]uint64(nil), m.PredPos...)
	}
	if m.Topic != nil {
		c.Topic = append([]byte(nil), m.Topic...)
	}
	if m.Acks != nil {
		c.Acks = append([]AckEntry(nil), m.Acks...)
	}
	return &c
}

// Frame layout (after the 4-byte little-endian length prefix): kind (1),
// from (4), to (4), seq (4), then the variable-length fields. The fixed
// header offsets below are what PatchTo/PatchSeq rely on; they are part of
// the codec, not an implementation detail — the benchmark's fan-out
// micro-measurement (bench/micro.go) patches frames through them.
const (
	frameToOffset  = 4 + 1 + 4 // prefix + kind + from
	frameSeqOffset = frameToOffset + 4
)

// frameSize returns the body size (without the length prefix) m encodes
// to.
func frameSize(m *Message) int {
	return 1 + 4 + 4 + 4 + // kind, from, to, seq
		4 + 4*len(m.Neighborhood) +
		4 + 4*len(m.RoutingTable) +
		4 + // nmutual
		4 + 8*len(m.Bitmap) +
		4 + 1 + 4 + 1 + // publisher, ttl, payloadsize, hopcount
		4 + len(m.Payload) + // payload body
		8 + // pos
		4 + 4*len(m.Succs) + 4 + 8*len(m.SuccPos) +
		4 + 4*len(m.Preds) + 4 + 8*len(m.PredPos) +
		4 + 1 + // target, priority
		4 + len(m.Topic) + // topic
		4 + ackEntrySize*len(m.Acks) // ack batch
}

// Marshal encodes m into a self-delimited frame (4-byte length prefix).
func Marshal(m *Message) []byte {
	return MarshalAppend(nil, m)
}

// MarshalAppend appends m's self-delimited frame to dst and returns the
// extended slice. When dst has enough spare capacity the encode performs
// zero allocations — pair it with GetFrame/PutFrame (or any caller-owned
// scratch buffer) to keep steady-state marshaling off the heap.
func MarshalAppend(dst []byte, m *Message) []byte {
	size := frameSize(m)
	start := len(dst)
	if cap(dst)-start < 4+size {
		grown := make([]byte, start, start+4+size)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+4+size]
	buf := dst[start:]
	binary.LittleEndian.PutUint32(buf, uint32(size))
	b := buf[4:]
	b[0] = byte(m.Kind)
	off := 1
	put32 := func(v int32) {
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
		off += 4
	}
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[off:], v)
		off += 4
	}
	put32(m.From)
	put32(m.To)
	putU32(m.Seq)
	putU32(uint32(len(m.Neighborhood)))
	for _, v := range m.Neighborhood {
		put32(v)
	}
	putU32(uint32(len(m.RoutingTable)))
	for _, v := range m.RoutingTable {
		put32(v)
	}
	put32(m.NMutual)
	putU32(uint32(len(m.Bitmap)))
	for _, w := range m.Bitmap {
		binary.LittleEndian.PutUint64(b[off:], w)
		off += 8
	}
	put32(m.Publisher)
	b[off] = m.TTL
	off++
	putU32(m.PayloadSize)
	b[off] = m.HopCount
	off++
	putU32(uint32(len(m.Payload)))
	off += copy(b[off:], m.Payload)
	binary.LittleEndian.PutUint64(b[off:], m.Pos)
	off += 8
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[off:], v)
		off += 8
	}
	putU32(uint32(len(m.Succs)))
	for _, v := range m.Succs {
		put32(v)
	}
	putU32(uint32(len(m.SuccPos)))
	for _, v := range m.SuccPos {
		put64(v)
	}
	putU32(uint32(len(m.Preds)))
	for _, v := range m.Preds {
		put32(v)
	}
	putU32(uint32(len(m.PredPos)))
	for _, v := range m.PredPos {
		put64(v)
	}
	put32(m.Target)
	b[off] = m.Priority
	off++
	putU32(uint32(len(m.Topic)))
	off += copy(b[off:], m.Topic)
	putU32(uint32(len(m.Acks)))
	for i := range m.Acks {
		e := &m.Acks[i]
		b[off] = byte(e.Kind)
		off++
		put32(e.From)
		put32(e.Dest)
		put32(e.Pub)
		putU32(e.Seq)
		put32(e.Target)
		b[off] = e.TTL
		off++
	}
	return dst[:start+4+off]
}

// PatchTo rewrites the To field of a marshaled frame in place. The frame
// must include its length prefix (as produced by Marshal/MarshalAppend).
func PatchTo(frame []byte, to int32) {
	binary.LittleEndian.PutUint32(frame[frameToOffset:], uint32(to))
}

// PatchSeq rewrites the Seq field of a marshaled frame in place. Like
// PatchTo it operates on a full frame with its length prefix.
func PatchSeq(frame []byte, seq uint32) {
	binary.LittleEndian.PutUint32(frame[frameSeqOffset:], seq)
}

// maxPooledFrame bounds the capacity PutFrame retains: buffers grown past
// it (a large publication payload) are dropped instead of pinning that
// memory in the pool forever.
const maxPooledFrame = 1 << 16

var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// GetFrame returns a pooled, zero-length frame buffer for MarshalAppend.
// Return it with PutFrame once the frame has been written (or copied) out.
func GetFrame() *[]byte {
	return framePool.Get().(*[]byte)
}

// PutFrame recycles a buffer obtained from GetFrame. Buffers that grew
// past maxPooledFrame are released to the GC instead.
func PutFrame(b *[]byte) {
	if b == nil || cap(*b) > maxPooledFrame {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

var messagePool = sync.Pool{New: func() any { return new(Message) }}

// poison, when set (race builds, poison_race.go), scribbles over the
// slices of a Message handed to PutMessage, so that a view of it kept
// past its handler reads garbage instead of passing by luck.
var poison func(*Message)

// GetMessage returns a pooled Message for UnmarshalInto, which overwrites
// every field; until then its fields hold whatever its last user left.
// This is the Message a transport hands its receiver, and the receiver
// returns it with PutMessage once its handler is done with it.
func GetMessage() *Message {
	return messagePool.Get().(*Message)
}

// PutMessage recycles m. Nothing may read m or a slice it names after
// the call. Messages whose slices grew past maxPooledFrame bytes are
// released to the GC instead, like PutFrame's buffers.
func PutMessage(m *Message) {
	if m == nil {
		return
	}
	if poison != nil {
		poison(m)
	}
	if max(cap(m.Payload), cap(m.Topic), 4*cap(m.Neighborhood), 4*cap(m.RoutingTable),
		8*cap(m.Bitmap), 4*cap(m.Succs), 8*cap(m.SuccPos), 4*cap(m.Preds), 8*cap(m.PredPos),
		ackEntrySize*cap(m.Acks)) > maxPooledFrame {
		return
	}
	messagePool.Put(m)
}

// Unmarshal decodes one frame produced by Marshal (without the length
// prefix, i.e. the payload after framing).
func Unmarshal(b []byte) (*Message, error) {
	m := &Message{}
	if err := UnmarshalInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// growI32 resizes s to n entries, reusing its backing array when the
// capacity allows (the decode overwrites every entry). n == 0 keeps the
// slice's identity: nil stays nil, a reused slice keeps its capacity.
func growI32(s []int32, n int) []int32 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]int32, n)
}

func growU64(s []uint64, n int) []uint64 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]uint64, n)
}

func growAcks(s []AckEntry, n int) []AckEntry {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]AckEntry, n)
}

// UnmarshalInto decodes one frame into m, overwriting every field and
// reusing m's slice capacities — a Message recycled across decodes of hot
// kinds (Ping/Pong/Publish/Ack) steady-states at zero allocations. Stale
// slice contents from a previous decode are fully overwritten (every field
// has a fixed place in the frame), but on error m is left partially
// filled and must not be used. The decoded Message never aliases b.
func UnmarshalInto(m *Message, b []byte) error {
	if len(b) < 1 {
		return fmt.Errorf("wire: empty frame")
	}
	m.Kind = Kind(b[0])
	off := 1
	need := func(n int) error {
		if off+n > len(b) {
			return fmt.Errorf("wire: truncated frame (need %d at %d of %d)", n, off, len(b))
		}
		return nil
	}
	get32 := func() (int32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		return v, nil
	}
	getU32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, nil
	}
	// Every slice checks its claimed length against the bytes actually
	// present BEFORE allocating: a truncated frame must never cost more
	// memory than its own size.
	get32s := func(s []int32, what string) ([]int32, error) {
		n, err := getU32()
		if err != nil {
			return nil, err
		}
		if n > maxSliceLen {
			return nil, fmt.Errorf("wire: %s length %d too large", what, n)
		}
		if err := need(4 * int(n)); err != nil {
			return nil, err
		}
		s = growI32(s, int(n))
		for i := range s {
			s[i] = int32(binary.LittleEndian.Uint32(b[off:]))
			off += 4
		}
		return s, nil
	}
	get64s := func(s []uint64, what string) ([]uint64, error) {
		n, err := getU32()
		if err != nil {
			return nil, err
		}
		if n > maxSliceLen {
			return nil, fmt.Errorf("wire: %s length %d too large", what, n)
		}
		if err := need(8 * int(n)); err != nil {
			return nil, err
		}
		s = growU64(s, int(n))
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
		return s, nil
	}
	var err error
	if m.From, err = get32(); err != nil {
		return err
	}
	if m.To, err = get32(); err != nil {
		return err
	}
	if m.Seq, err = getU32(); err != nil {
		return err
	}
	if m.Neighborhood, err = get32s(m.Neighborhood, "neighborhood"); err != nil {
		return err
	}
	if m.RoutingTable, err = get32s(m.RoutingTable, "routing table"); err != nil {
		return err
	}
	if m.NMutual, err = get32(); err != nil {
		return err
	}
	if m.Bitmap, err = get64s(m.Bitmap, "bitmap"); err != nil {
		return err
	}
	if m.Publisher, err = get32(); err != nil {
		return err
	}
	if err := need(1); err != nil {
		return err
	}
	m.TTL = b[off]
	off++
	if m.PayloadSize, err = getU32(); err != nil {
		return err
	}
	if err := need(1); err != nil {
		return err
	}
	m.HopCount = b[off]
	off++
	pl, err := getU32()
	if err != nil {
		return err
	}
	if pl > maxSliceLen {
		return fmt.Errorf("wire: payload length %d too large", pl)
	}
	if err := need(int(pl)); err != nil {
		return err
	}
	m.Payload = append(m.Payload[:0], b[off:off+int(pl)]...)
	off += int(pl)
	if err := need(8); err != nil {
		return err
	}
	m.Pos = binary.LittleEndian.Uint64(b[off:])
	off += 8
	if m.Succs, err = get32s(m.Succs, "succs"); err != nil {
		return err
	}
	if m.SuccPos, err = get64s(m.SuccPos, "succ positions"); err != nil {
		return err
	}
	if m.Preds, err = get32s(m.Preds, "preds"); err != nil {
		return err
	}
	if m.PredPos, err = get64s(m.PredPos, "pred positions"); err != nil {
		return err
	}
	if m.Target, err = get32(); err != nil {
		return err
	}
	if err := need(1); err != nil {
		return err
	}
	m.Priority = b[off]
	off++
	tl, err := getU32()
	if err != nil {
		return err
	}
	if tl > maxSliceLen {
		return fmt.Errorf("wire: topic length %d too large", tl)
	}
	if err := need(int(tl)); err != nil {
		return err
	}
	m.Topic = append(m.Topic[:0], b[off:off+int(tl)]...)
	off += int(tl)
	al, err := getU32()
	if err != nil {
		return err
	}
	if al > maxSliceLen {
		return fmt.Errorf("wire: ack batch length %d too large", al)
	}
	if err := need(ackEntrySize * int(al)); err != nil {
		return err
	}
	m.Acks = growAcks(m.Acks, int(al))
	for i := range m.Acks {
		e := &m.Acks[i]
		e.Kind = Kind(b[off])
		off++
		e.From = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		e.Dest = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		e.Pub = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		e.Seq = binary.LittleEndian.Uint32(b[off:])
		off += 4
		e.Target = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		e.TTL = b[off]
		off++
	}
	if off != len(b) {
		return fmt.Errorf("wire: %d trailing bytes", len(b)-off)
	}
	return nil
}
