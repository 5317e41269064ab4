package node

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selectps/internal/faultnet"
	"selectps/internal/obs"
	"selectps/internal/overlay"
	"selectps/internal/selectcore"
	"selectps/internal/socialgraph"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

// Tests of the friend-feed data path (DESIGN.md §10.3, §15.1): one
// publish frame per overlay link, grouped retries, the destination list
// as outside input, and the one ack path — leaf first, split horizon.

// sent is one frame as a tap saw it handed to the transport.
type sent struct {
	hop int32 // the peer it was handed to
	m   *wire.Message
}

// dests is the destination set a publish frame names.
func (s sent) dests() []int32 { return append([]int32{s.m.To}, s.m.RoutingTable...) }

// tap records a copy of every frame the cluster sends (receivers edit
// TTL, HopCount, To and the list of the Message they are handed), and
// watches the publish frames among them for copies that go straight back.
type tap struct {
	*transport.Switchboard
	mu     sync.Mutex
	frames []sent
	watch  bounceWatch
}

func newTap(n int) *tap { return &tap{Switchboard: transport.NewSwitchboard(n, 4096)} }

func (t *tap) Send(to int32, m *wire.Message) error {
	t.watch.see(to, m)
	t.mu.Lock()
	t.frames = append(t.frames, sent{to, m.Clone()})
	t.mu.Unlock()
	return t.Switchboard.Send(to, m)
}

// bounceWatch looks at every publish frame on its way into the transport
// and finds the copies a relay hands back to the peer it got them from —
// what the split horizon of the routing pass rules out. A frame names its
// sender in the inbound-hop slot, so the watch knows who sent whom what:
// in[k] lists the peers that have sent k.at a frame of publication
// (k.pub, k.seq) naming k.dest with k.ttl hops left.
type bounceWatch struct {
	mu       sync.Mutex
	in       map[bounceKey][]int32
	publish  int
	findings []string
}

type bounceKey struct {
	pub      int32
	seq      uint32
	dest, at int32
	ttl      uint8
}

func (w *bounceWatch) see(to int32, m *wire.Message) {
	if m.Kind != wire.KindPublish {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.in == nil {
		w.in = make(map[bounceKey][]int32)
	}
	w.publish++
	sender := m.HopFrom()
	if sender < 0 {
		w.findings = append(w.findings, fmt.Sprintf("publication %d/%d: a frame to %d does not say who sent it", m.Publisher, m.Seq, to))
		return
	}
	for _, d := range (sent{to, m}).dests() {
		// The frame that brought the sender this copy had one hop more left.
		// Sends are seen before they arrive, so the list holds at least the
		// frame the sender is answering: if the peer this frame goes to is
		// all it holds, the copy is going straight back.
		got := w.in[bounceKey{m.Publisher, m.Seq, d, sender, m.TTL + 1}]
		if len(got) > 0 && !slices.ContainsFunc(got, func(p int32) bool { return p != to }) {
			w.findings = append(w.findings, fmt.Sprintf("publication %d/%d: %d sent the copy for %d back to %d, which had just sent it (TTL %d)",
				m.Publisher, m.Seq, sender, d, to, m.TTL))
		}
		k := bounceKey{m.Publisher, m.Seq, d, to, m.TTL}
		if !slices.Contains(w.in[k], sender) {
			w.in[k] = append(w.in[k], sender)
		}
	}
}

// report fails the test on every copy the watch saw bounce, and if it saw
// no publish frame at all.
func (w *bounceWatch) report(t *testing.T, what string) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.publish == 0 {
		t.Errorf("%s: the watch saw no publish frame", what)
	}
	for _, f := range w.findings {
		t.Errorf("%s: %s", what, f)
	}
}

// watched passes every frame of a cluster by a bounceWatch on its way
// into the transport under test.
type watched struct {
	transport.Transport
	watch bounceWatch
}

func (x *watched) Send(to int32, m *wire.Message) error {
	x.watch.see(to, m)
	return x.Transport.Send(to, m)
}

func (x *watched) BindInboxBatch(owner int32, ch chan *[]transport.Envelope) bool {
	return x.Transport.(transport.BatchInboxMux).BindInboxBatch(owner, ch)
}

// take returns the frames of the given kind recorded since the last
// take, and forgets every recorded frame.
func (t *tap) take(kind wire.Kind) []sent {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []sent
	for _, f := range t.frames {
		if f.m.Kind == kind {
			out = append(out, f)
		}
	}
	t.frames = nil
	return out
}

// frozenCluster starts a bootstrapped cluster over a tap and stops its
// shard loops: no timer fires and no mailbox is drained, so a test that
// calls the handlers itself sees exactly the frames they send, in order,
// and plays the wheel by calling flushAcks. With the loops gone the test
// goroutine is the nodes' only writer: it may touch their state directly,
// and the exported API runs inline on it.
func frozenCluster(t *testing.T, n int, seed int64, opts Options) (*socialgraph.Graph, *Cluster, *tap) {
	t.Helper()
	g, ov := buildOverlay(t, n, seed)
	tp := newTap(n)
	opts.Graph, opts.Overlay, opts.Transport, opts.Seed = g, ov, tp, seed
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	t.Cleanup(func() { shutdown(t, c) })
	return g, c, tp
}

// strangers returns k peers that are neither n nor among its links, in
// id order, leaving out the peers in not.
func strangers(c *Cluster, n *Node, k int, not ...overlay.PeerID) []overlay.PeerID {
	links := n.links()
	var out []overlay.PeerID
	for p := overlay.PeerID(0); int(p) < len(c.Nodes) && len(out) < k; p++ {
		if p != n.id && !slices.Contains(links, p) && !slices.Contains(not, p) {
			out = append(out, p)
		}
	}
	return out
}

// TestTreeOneFramePerLink is the tree property on a converged fault-free
// cluster: every subscriber delivers every publication exactly once; the
// frames a node sends on name pairwise disjoint sets whose union is the
// set it was handed, less itself; and no node sends two frames of one
// publication to one peer — so the frames of a publication number at
// most the distinct next hops, summed over the nodes that handled it.
// (The per-subscriber fan-out sent one frame per copy and fails the last
// two.) And no relay hands a copy back to the peer it came from: every
// frame says who sent it, and the frames that answer it go elsewhere.
func TestTreeOneFramePerLink(t *testing.T) {
	const n, seed = 150, 4
	g, ov := buildOverlay(t, n, seed)
	tp := newTap(n)
	met := obs.New()
	c, err := Start(Options{
		Graph: g, Overlay: ov, Transport: tp, Seed: seed, Obs: met,
		GossipEvery: 5 * time.Millisecond, // fills the lookahead lists routing reads
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, c)
	waitFor(t, 10*time.Second, "a few gossip rounds", func() bool { return c.Nodes[0].Exchanges() >= 10 })

	var mu sync.Mutex
	got := make(map[[3]int32]int) // (subscriber, publisher, seq) → deliveries
	for p, nd := range c.Nodes {
		p := int32(p)
		nd.OnDeliver(func(d Delivery) {
			mu.Lock()
			got[[3]int32{p, d.Publisher, int32(d.Seq)}]++
			mu.Unlock()
		})
	}
	type pubID struct {
		pub int32
		seq uint32
	}
	subsOf := make(map[pubID][]overlay.PeerID)
	pubs := []overlay.PeerID{topDegree(g), 3, 17, 42, 99}
	for _, p := range pubs {
		if g.Degree(p) == 0 {
			continue
		}
		seq := publishSize(c.Nodes[p], 256)
		subsOf[pubID{int32(p), seq}] = g.Neighbors(p)
		if k, ok := await(c, p, seq, g.Neighbors(p), 10*time.Second); !ok {
			t.Fatalf("publisher %d: %d/%d delivered", p, k, g.Degree(p))
		}
	}

	mu.Lock()
	for id, subs := range subsOf {
		for _, s := range subs {
			if k := got[[3]int32{int32(s), id.pub, int32(id.seq)}]; k != 1 {
				t.Errorf("subscriber %d got publication %v %d times", s, id, k)
			}
		}
	}
	mu.Unlock()

	frames := make(map[pubID][]sent)
	for _, f := range tp.take(wire.KindPublish) {
		id := pubID{f.m.Publisher, f.m.Seq}
		frames[id] = append(frames[id], f)
	}
	ttl0 := uint8(32)
	total, multi := 0, 0
	for id, fs := range frames {
		total += len(fs)
		// checkSends holds the frames one node sent to the set it had to
		// serve.
		checkSends := func(who string, out []sent, want []int32) {
			var union, hops []int32
			for _, f := range out {
				for _, d := range f.dests() {
					if slices.Contains(union, d) {
						t.Errorf("%v: %s names %d in two frames", id, who, d)
					}
					union = append(union, d)
				}
				if slices.Contains(hops, f.hop) {
					t.Errorf("%v: %s sent two frames to %d", id, who, f.hop)
				}
				hops = append(hops, f.hop)
				if len(f.m.RoutingTable) > 0 {
					multi++
				}
			}
			slices.Sort(union)
			want = slices.Clone(want)
			slices.Sort(want)
			if !slices.Equal(union, want) {
				t.Errorf("%v: %s was to serve %v, its frames name %v", id, who, want, union)
			}
		}
		var root []sent
		for _, f := range fs {
			if f.m.TTL == ttl0 {
				root = append(root, f)
			}
		}
		checkSends("the publisher", root, subsOf[id])
		// A frame handed to a relay with TTL t is answered by the frames
		// with TTL t-1 whose To the relay was handed: destination sets
		// never overlap, so the match is unique.
		for _, in := range fs {
			rest := slices.DeleteFunc(in.dests(), func(d int32) bool { return d == in.hop })
			var out []sent
			for _, f := range fs {
				if f.m.TTL+1 == in.m.TTL && slices.Contains(rest, f.m.To) {
					out = append(out, f)
					if f.m.HopFrom() != in.hop {
						t.Errorf("%v: relay %d stamped its frame to %d as coming from %d", id, in.hop, f.hop, f.m.HopFrom())
					}
				}
			}
			checkSends("a relay", out, rest)
		}
	}
	tp.watch.report(t, "n=150 live")
	if multi == 0 {
		t.Error("no frame named more than one subscriber: the run proves nothing about grouping")
	}
	copies := met.Get(obs.CPublishSent) + met.Get(obs.CPublishForwarded)
	if pf := met.Get(obs.CPublishFrame); pf != int64(total) || pf >= copies {
		t.Errorf("publish_frame = %d, the tap saw %d frames carrying %d copies", pf, total, copies)
	}
	t.Logf("%d publications: %d copies in %d frames (%.2f per frame)", len(frames), copies, total, float64(copies)/float64(total))
}

// TestTreeRelayForwardsPastDuplicate: a relay that is itself a subscriber
// forwards the rest of the set also when its own copy is a duplicate —
// the peers beyond it are still owed theirs.
func TestTreeRelayForwardsPastDuplicate(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 60, 9, Options{Obs: met})
	relay := c.Nodes[5]
	pub := relay.links()[0]
	beyond := strangers(c, relay, 3, pub)
	frame := func() *wire.Message {
		return &wire.Message{
			Kind: wire.KindPublish, From: int32(pub), Publisher: int32(pub), Seq: 7, TTL: 8, HopCount: 1,
			To: int32(beyond[0]), RoutingTable: []int32{int32(relay.id), int32(beyond[1]), int32(beyond[2])},
		}
	}
	for round, wantDup := range []int64{0, 1} {
		relay.handle(frame())
		var named []int32
		for _, f := range tp.take(wire.KindPublish) {
			if f.m.TTL != 7 || f.m.HopCount != 2 || f.m.From != int32(pub) {
				t.Errorf("round %d: forwarded with TTL %d hops %d from %d", round, f.m.TTL, f.m.HopCount, f.m.From)
			}
			named = append(named, f.dests()...)
		}
		slices.Sort(named)
		if want := []int32{int32(beyond[0]), int32(beyond[1]), int32(beyond[2])}; !slices.Equal(named, want) {
			t.Errorf("round %d: forwarded to %v, want %v", round, named, want)
		}
		if got := met.Get(obs.CPublishDuplicate); got != wantDup {
			t.Errorf("round %d: publish_duplicate = %d, want %d", round, got, wantDup)
		}
	}
	if got := met.Get(obs.CPublishDelivered); got != 1 {
		t.Errorf("publish_delivered = %d, want 1", got)
	}
	if got := met.Get(obs.CPublishForwarded); got != 6 {
		t.Errorf("publish_forwarded = %d, want 6: it counts copies", got)
	}
}

// TestTreeRetryNamesOnlyTheMissing: a retry leaves through the same
// fan-out as the first send — it names the subscribers that have not
// acked, and no others, one frame per next hop.
func TestTreeRetryNamesOnlyTheMissing(t *testing.T) {
	met := obs.New()
	g, c, tp := frozenCluster(t, 80, 6, Options{Obs: met, RetryBase: time.Hour})
	pub := topDegree(g)
	nd := c.Nodes[pub]
	subs := g.Neighbors(pub)
	seq := publishSize(nd, 128)
	first := tp.take(wire.KindPublish)
	if len(first) >= len(subs) {
		t.Fatalf("first send: %d frames for %d subscribers", len(first), len(subs))
	}
	// Every second subscriber acks.
	var missing []int32
	batch := &wire.Message{Kind: wire.KindAckBatch, From: int32(subs[0]), To: int32(pub)}
	for i, s := range subs {
		if i%2 == 0 {
			batch.Acks = append(batch.Acks, wire.AckEntry{Kind: wire.KindAck, From: int32(s), Dest: int32(pub), Pub: int32(pub), Seq: seq})
		} else {
			missing = append(missing, int32(s))
		}
	}
	nd.handle(batch)
	nd.pubs[seq].nextAt = time.Now().Add(-time.Second)
	nd.repairTick()

	var named, hops []int32
	for _, f := range tp.take(wire.KindPublish) {
		if f.m.TTL != 32 || f.m.HopCount != 0 || f.m.Seq != seq {
			t.Errorf("retry frame with TTL %d hops %d seq %d", f.m.TTL, f.m.HopCount, f.m.Seq)
		}
		named = append(named, f.dests()...)
		if slices.Contains(hops, f.hop) {
			t.Errorf("two retry frames to %d", f.hop)
		}
		hops = append(hops, f.hop)
	}
	slices.Sort(named)
	slices.Sort(missing)
	if !slices.Equal(named, missing) {
		t.Errorf("the retry names %v, missing are %v", named, missing)
	}
	if got := met.Get(obs.CRetrySent); got != int64(len(missing)) {
		t.Errorf("retry_sent = %d, want %d: it counts copies", got, len(missing))
	}
}

// TestTreeMalformedDestinations: the destination list is outside input.
// A list over the cap or with an id the cluster does not have drops the
// frame; a peer named twice is served once; all of it is counted, none
// of it panics, and no frame makes a relay send more frames than it
// names peers.
func TestTreeMalformedDestinations(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 60, 9, Options{Obs: met})
	relay := c.Nodes[5]
	self := int32(relay.id)
	pub := int32(relay.links()[0])
	far := strangers(c, relay, 2, overlay.PeerID(pub))
	a, b := int32(far[0]), int32(far[1])
	over := make([]int32, wire.MaxPublishDests)
	for i := range over {
		over[i] = a
	}
	cases := []struct {
		name      string
		pub, to   int32
		list      []int32
		malformed int64
		delivered bool
		forwarded []int32
	}{
		{"list id past the cluster", pub, a, []int32{b, 1 << 20}, 1, false, nil},
		{"negative list id", pub, self, []int32{-1}, 1, false, nil},
		{"To past the cluster", pub, 60, nil, 1, false, nil},
		{"publisher past the cluster", 1 << 20, self, nil, 1, false, nil},
		{"over the cap", pub, b, over, 1, false, nil},
		{"named twice", pub, a, []int32{a, b, a, b, a}, 1, false, []int32{a, b}},
		{"self only", pub, self, []int32{self, self}, 0, true, nil},
		{"well formed", pub, a, []int32{self, b}, 0, true, []int32{a, b}},
	}
	for i, tc := range cases {
		before, delivered := met.Get(obs.CPublishDestMalformed), met.Get(obs.CPublishDelivered)
		relay.handle(&wire.Message{
			Kind: wire.KindPublish, From: tc.pub, Publisher: tc.pub, Seq: uint32(100 + i), TTL: 8,
			To: tc.to, RoutingTable: tc.list,
		})
		if got := met.Get(obs.CPublishDestMalformed) - before; got != tc.malformed {
			t.Errorf("%s: publish_dest_malformed rose by %d, want %d", tc.name, got, tc.malformed)
		}
		if got := met.Get(obs.CPublishDelivered) - delivered; (got == 1) != tc.delivered {
			t.Errorf("%s: publish_delivered rose by %d", tc.name, got)
		}
		var named []int32
		for _, f := range tp.take(wire.KindPublish) {
			named = append(named, f.dests()...)
		}
		slices.Sort(named)
		want := slices.Clone(tc.forwarded)
		slices.Sort(want)
		if !slices.Equal(named, want) {
			t.Errorf("%s: forwarded to %v, want %v", tc.name, named, want)
		}
	}
}

// TestTreeEclipseRelayEatsTheRest: an armed eclipse attacker consumes the
// copy addressed to itself — a blackhole that stopped acking would out
// itself — and eats every other destination of the frame.
func TestTreeEclipseRelayEatsTheRest(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 60, 9, Options{Obs: met})
	relay := c.Nodes[5]
	pub := relay.links()[0]
	far := strangers(c, relay, 2, pub)
	relay.SetAdversary(AdvEclipse, far[0], []overlay.PeerID{relay.id})
	relay.handle(&wire.Message{
		Kind: wire.KindPublish, From: int32(pub), Publisher: int32(pub), Seq: 3, TTL: 8,
		To: int32(far[0]), RoutingTable: []int32{int32(relay.id), int32(far[1])},
	})
	if got := met.Get(obs.CPublishDelivered); got != 1 {
		t.Errorf("publish_delivered = %d: the attacker did not consume its own copy", got)
	}
	if fs := tp.take(wire.KindPublish); len(fs) != 0 {
		t.Errorf("an armed eclipse relay forwarded %d frames", len(fs))
	}
	relay.flushAcks()
	if acks := tp.take(wire.KindAckBatch); len(acks) != 0 {
		// The ack left at once: the attacker forwarded nothing.
		t.Errorf("%d ack frames waited for the wheel", len(acks))
	}
	if got := met.Get(obs.CAckLeafFlush); got != 1 {
		t.Errorf("ack_leaf_flush = %d, want 1", got)
	}
}

// TestTreeUnderLoss: with a fifth of all publish and ack frames lost,
// over the switchboard and over TCP, grouped retries still reach every
// subscriber, the delivery set does not depend on how many event loops
// drain the cluster, and no copy — first send, relay or retry — goes back
// to the peer that had just sent it.
func TestTreeUnderLoss(t *testing.T) {
	const n, seed, posts = 80, 31, 4
	g, ov := buildOverlay(t, n, seed)
	pub := topDegree(g)
	subs := g.Neighbors(pub)
	run := func(t *testing.T, tcp bool, shards int) map[[2]int32]bool {
		var inner transport.Transport = transport.NewSwitchboard(n, 4096)
		if tcp {
			tr, err := transport.NewTCP(n, 4096)
			if err != nil {
				t.Fatal(err)
			}
			inner = tr
		}
		met := obs.New()
		fn := faultnet.Wrap(inner, n, faultnet.Config{
			DropProb: 0.2, Kinds: []wire.Kind{wire.KindPublish, wire.KindAckBatch},
		}, seed)
		fn.Obs = met
		// The watch sits above the fault injector: it sees the frames that
		// are about to be lost as well.
		tr := &watched{Transport: fn}
		c, err := Start(Options{
			Graph: g, Overlay: ov, Transport: tr, Seed: seed, Obs: met, Shards: shards,
			RetryBase: 10 * time.Millisecond, RetryBudget: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown(t, c)
		defer tr.watch.report(t, fmt.Sprintf("tcp=%v shards=%d", tcp, shards))
		got := make(map[[2]int32]bool)
		for i := 0; i < posts; i++ {
			seq := publishSize(c.Nodes[pub], 256)
			if k, ok := await(c, pub, seq, subs, 20*time.Second); !ok {
				t.Fatalf("tcp=%v shards=%d: publication %d reached %d/%d", tcp, shards, i, k, len(subs))
			}
			for _, s := range subs {
				got[[2]int32{int32(s), int32(i)}] = true
			}
		}
		if met.Get(obs.CFaultDrop) == 0 || met.Get(obs.CRetrySent) == 0 {
			t.Errorf("tcp=%v shards=%d: %d frames dropped, %d copies retried: the run proves nothing",
				tcp, shards, met.Get(obs.CFaultDrop), met.Get(obs.CRetrySent))
		}
		copies := met.Get(obs.CPublishSent) + met.Get(obs.CPublishForwarded) + met.Get(obs.CRetrySent)
		if pf := met.Get(obs.CPublishFrame); pf >= copies {
			t.Errorf("tcp=%v shards=%d: %d publish frames for %d copies", tcp, shards, pf, copies)
		}
		return got
	}
	for _, tcp := range []bool{false, true} {
		one, eight := run(t, tcp, 1), run(t, tcp, 8)
		if len(one) != posts*len(subs) || len(one) != len(eight) {
			t.Errorf("tcp=%v: S=1 delivered %d, S=8 delivered %d, owed %d", tcp, len(one), len(eight), posts*len(subs))
		}
	}
}

// TestAckLeafFirst pins the flush rule of the ack path on a two-level
// tree: the relay's own ack waits for the wheel, the acks of the peers
// beyond it join it, and all leave in one frame; a leaf's ack leaves at
// once; a node that was paused meanwhile drops what it had buffered.
func TestAckLeafFirst(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 60, 9, Options{Obs: met})
	relay := c.Nodes[5]
	pub := relay.links()[0]
	far := strangers(c, relay, 2, pub)
	publish := func(seq uint32, list ...int32) {
		relay.handle(&wire.Message{
			Kind: wire.KindPublish, From: int32(pub), Publisher: int32(pub), Seq: seq, TTL: 8,
			To: int32(relay.id), RoutingTable: list,
		})
	}
	ackOf := func(p overlay.PeerID, seq uint32) *wire.Message {
		return &wire.Message{Kind: wire.KindAckBatch, From: int32(p), To: int32(relay.id), Acks: []wire.AckEntry{
			{Kind: wire.KindAck, From: int32(p), Dest: int32(pub), Pub: int32(pub), Seq: seq, TTL: 30},
		}}
	}

	// Two levels: the relay forwards, so its ack waits.
	publish(1, int32(far[0]), int32(far[1]))
	relay.handle(ackOf(far[0], 1))
	relay.handle(ackOf(far[1], 1))
	if acks := tp.take(wire.KindAckBatch); len(acks) != 0 {
		t.Fatalf("%d ack frames left before the wheel fired", len(acks))
	}
	relay.flushAcks()
	acks := tp.take(wire.KindAckBatch)
	if len(acks) != 1 || acks[0].hop != int32(pub) || len(acks[0].m.Acks) != 3 {
		t.Fatalf("after the wheel fired: %d ack frames, want one to %d with three entries: %+v", len(acks), pub, acks)
	}
	for i, from := range []overlay.PeerID{relay.id, far[0], far[1]} {
		if e := acks[0].m.Acks[i]; e.From != int32(from) || e.Dest != int32(pub) || e.Seq != 1 {
			t.Errorf("entry %d of the batch: %+v, want the ack of %d", i, e, from)
		}
	}
	if e := acks[0].m.Acks[1]; e.TTL != 29 {
		t.Errorf("a relayed entry kept TTL %d, want 29", e.TTL)
	}

	// A leaf: nothing forwarded, nothing to wait for.
	publish(2)
	acks = tp.take(wire.KindAckBatch)
	if len(acks) != 1 || len(acks[0].m.Acks) != 1 || acks[0].m.Acks[0].Seq != 2 {
		t.Fatalf("a leaf's ack did not leave at once: %+v", acks)
	}
	if got := met.Get(obs.CAckLeafFlush); got != 1 {
		t.Errorf("ack_leaf_flush = %d, want 1", got)
	}

	// Paused between buffering and flush: the acks die with the pause.
	publish(3, int32(far[0]))
	relay.Pause()
	relay.flushAcks()
	relay.Resume()
	relay.flushAcks()
	if acks := tp.take(wire.KindAckBatch); len(acks) != 0 {
		t.Fatalf("a paused node sent %d ack frames", len(acks))
	}
	if sent, batches := met.Get(obs.CAckCoalesced), met.Get(obs.CAckBatchSent); sent != 5 || batches != 2 {
		t.Errorf("ack_coalesced = %d, ack_batch_sent = %d, want 5 and 2", sent, batches)
	}
}

// TestAckBounceSplitHorizon: two relays whose stale lookahead entries
// point at each other used to hand an ack back and forth until its TTL
// died. An ack is never routed to the peer it just came from, and the
// entry that said otherwise is dropped: each of the two sees it once.
func TestAckBounceSplitHorizon(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 60, 9, Options{Obs: met})
	x := c.Nodes[5]
	y := c.Nodes[x.links()[0]]
	if !slices.Contains(y.links(), x.id) {
		t.Fatalf("link %d→%d is one-way", x.id, y.id)
	}
	var pub overlay.PeerID = -1
	for _, p := range strangers(c, x, len(c.Nodes)) {
		if p != y.id && !slices.Contains(y.links(), p) {
			pub = p
			break
		}
	}
	x.lookahead[y.id] = []overlay.PeerID{pub}
	y.lookahead[x.id] = []overlay.PeerID{pub}

	origin := strangers(c, x, 1, y.id, pub)[0]
	inject := &wire.Message{Kind: wire.KindAckBatch, From: int32(origin), To: int32(x.id), Acks: []wire.AckEntry{
		{Kind: wire.KindAck, From: int32(origin), Dest: int32(pub), Pub: int32(pub), Seq: 1, TTL: 32},
	}}
	// Play the network: hand every ack frame to its next hop until the
	// entry is consumed or dropped.
	visits := make(map[int32]int)
	pending := []sent{{int32(x.id), inject}}
	for relays := 0; len(pending) > 0; relays++ {
		if relays > 32 {
			t.Fatal("the ack is still travelling after 32 relays")
		}
		for _, f := range pending {
			visits[f.hop]++
			c.Nodes[f.hop].handle(f.m)
			c.Nodes[f.hop].flushAcks()
		}
		pending = tp.take(wire.KindAckBatch)
	}
	if visits[int32(x.id)] != 1 || visits[int32(y.id)] != 1 {
		t.Errorf("the ack visited %d %d times and %d %d times, want once each", x.id, visits[int32(x.id)], y.id, visits[int32(y.id)])
	}
	if got := y.Lookahead(x.id); len(got) != 0 {
		t.Errorf("%d still believes %d has a link to %d: %v", y.id, x.id, pub, got)
	}
	consumed := int64(0)
	if c.Nodes[pub].acked[msgID{int32(pub), 1}][int32(origin)] {
		consumed = 1
	}
	if dropped := met.Get(obs.CAckBounceDrop) + met.Get(obs.CPublishDeadEnd); consumed+dropped != 1 || met.Get(obs.CAckTTLDrop) != 0 {
		t.Errorf("consumed %d, bounce or dead-end drops %d, ttl drops %d", consumed, dropped, met.Get(obs.CAckTTLDrop))
	}

	// Where the peer it came from is the only way on, the entry is dropped
	// and counted, not sent back.
	lone := c.Nodes[origin]
	lone.shortSucc, lone.shortPred, lone.longOut, lone.longIn = x.id, -1, nil, nil
	inject.From, inject.To = int32(x.id), int32(origin)
	lone.handle(inject)
	lone.flushAcks()
	if acks := tp.take(wire.KindAckBatch); len(acks) != 0 || met.Get(obs.CAckBounceDrop) < 1 {
		t.Errorf("an ack with no way on but back: %d frames sent, ack_bounce_drop = %d", len(acks), met.Get(obs.CAckBounceDrop))
	}
}

// TestPublishSplitHorizon is the same rule on the publish path, which
// could not have it while a relay did not know its inbound hop: x's first
// link y hands it a copy for a peer neither links to, and x's cached copy
// of y's routing table — stale — says y links to that peer. x used to
// send the copy straight back (18,257 of 44,972 publish sends in a traced
// inbox-churn-tcp half-window). Now the frame leaves by another link or
// not at all, never toward y, and the stale entry is gone; played on
// through the cluster, no relay sends it back where it came from.
func TestPublishSplitHorizon(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 60, 9, Options{Obs: met})
	x := c.Nodes[5]
	y := c.Nodes[x.links()[0]]
	if !slices.Contains(y.links(), x.id) {
		t.Fatalf("link %d→%d is one-way", x.id, y.id)
	}
	var dest overlay.PeerID = -1
	for _, p := range strangers(c, x, len(c.Nodes)) {
		if p != y.id && !slices.Contains(y.links(), p) {
			dest = p
			break
		}
	}
	pub := strangers(c, x, 1, y.id, dest)[0]
	x.lookahead[y.id] = []overlay.PeerID{dest, pub}
	y.lookahead[x.id] = []overlay.PeerID{dest}

	frame := func(seq uint32, to, hopFrom overlay.PeerID) *wire.Message {
		m := &wire.Message{Kind: wire.KindPublish, From: int32(pub), Publisher: int32(pub), Seq: seq, TTL: 32, To: int32(to)}
		m.SetHopFrom(int32(hopFrom))
		return m
	}
	// Without the inbound hop the stale entry wins: that is the bounce.
	unstamped := frame(1, dest, -1)
	x.handle(unstamped)
	if fs := tp.take(wire.KindPublish); len(fs) != 1 || fs[0].hop != int32(y.id) {
		t.Fatalf("an unstamped frame for %d left %d by %+v, want the lookahead hit through %d: the set-up proves nothing", dest, x.id, fs, y.id)
	}

	// Play the network from y's send to x on: hand every publish frame to
	// its next hop until the copy is delivered or dropped.
	type hop struct{ from, at int32 }
	var path []hop
	pending := []sent{{int32(x.id), frame(2, dest, y.id)}}
	for relays := 0; len(pending) > 0; relays++ {
		if relays > 32 {
			t.Fatal("the copy is still travelling after 32 relays")
		}
		var next []sent
		for _, f := range pending {
			inbound := f.m.HopFrom()
			path = append(path, hop{inbound, f.hop})
			c.Nodes[f.hop].handle(f.m)
			for _, out := range tp.take(wire.KindPublish) {
				if out.hop == inbound {
					t.Errorf("%d got the copy from %d and sent it back there", f.hop, inbound)
				}
				if out.m.HopFrom() != f.hop || out.m.From != int32(pub) {
					t.Errorf("%d forwarded a frame stamped hop %d, From %d; want its own id and the publisher %d", f.hop, out.m.HopFrom(), out.m.From, pub)
				}
				next = append(next, out)
			}
		}
		pending = next
	}
	if got := x.lookahead[y.id]; slices.Contains(got, dest) || !slices.Contains(got, pub) {
		t.Errorf("%d's copy of %d's routing table is %v: want the stale entry for %d gone and the one for %d kept", x.id, y.id, got, dest, pub)
	}
	delivered := int64(0)
	if _, ok := c.Nodes[dest].received[msgID{int32(pub), 2}]; ok {
		delivered = 1
	}
	dropped := met.Get(obs.CPublishBounceDrop) + met.Get(obs.CPublishDeadEnd) + met.Get(obs.CPublishTTLDrop)
	if delivered+dropped != 1 || met.Get(obs.CPublishTTLDrop) != 0 {
		t.Errorf("delivered %d, dropped %d (ttl %d) along %v: want the copy delivered or dropped once, not walked to TTL 0",
			delivered, dropped, met.Get(obs.CPublishTTLDrop), path)
	}
	if met.Get(obs.CAckBounceDrop) != 0 {
		t.Errorf("ack_bounce_drop = %d: a publication copy was booked as an ack", met.Get(obs.CAckBounceDrop))
	}
	tp.watch.report(t, "played by hand")

	// Where the sender is the only way on, the copy is dropped and counted
	// under the publish counter, not sent back.
	lone := c.Nodes[pub]
	lone.shortSucc, lone.shortPred, lone.longOut, lone.longIn = x.id, -1, nil, nil
	bounces := met.Get(obs.CPublishBounceDrop)
	lone.handle(frame(3, dest, x.id))
	if fs := tp.take(wire.KindPublish); len(fs) != 0 || met.Get(obs.CPublishBounceDrop) != bounces+1 {
		t.Errorf("a copy with no way on but back: %d frames sent, publish_bounce_drop rose by %d", len(fs), met.Get(obs.CPublishBounceDrop)-bounces)
	}
	// A retry is the publisher's own: no inbound hop, every link a candidate.
	lone.fanOut(lone.feedFrame(4, nil, 0, 1), []overlay.PeerID{dest}, -1)
	if fs := tp.take(wire.KindPublish); len(fs) != 1 || fs[0].hop != int32(x.id) || fs[0].m.HopFrom() != int32(lone.id) {
		t.Errorf("the publisher's own send: %+v, want one frame to %d stamped %d", fs, x.id, lone.id)
	}
}

// TestInboundHopIsOutsideInput: the inbound hop is the sender's word. A
// slot that names no peer of this cluster, or the receiver, drops the
// frame and is counted; a peer that is no link of the receiver excludes
// nothing; and a liar that names the receiver's best link costs that one
// frame that one link — and the receiver its cached entry of that link
// for the frame's destination until the link's next exchange — nothing
// else: the next frame routes as before.
func TestInboundHopIsOutsideInput(t *testing.T) {
	met := obs.New()
	_, c, tp := frozenCluster(t, 60, 9, Options{Obs: met})
	relay := c.Nodes[5]
	pub := relay.links()[0]
	far := strangers(c, relay, 3, pub)
	dest, stranger := far[0], far[2]

	seq := uint32(100)
	// route hands the relay one frame for to with the given raw slot value
	// and returns where it went (-1: nowhere).
	route := func(to overlay.PeerID, slot int32) int32 {
		seq++
		relay.handle(&wire.Message{
			Kind: wire.KindPublish, From: int32(pub), Publisher: int32(pub), Seq: seq, TTL: 8,
			To: int32(to), RoutingTable: []int32{int32(relay.id)}, Target: slot,
		})
		fs := tp.take(wire.KindPublish)
		if len(fs) > 1 {
			t.Fatalf("one destination left in %d frames", len(fs))
		}
		if len(fs) == 0 {
			return -1
		}
		return fs[0].hop
	}
	stamp := func(p overlay.PeerID) int32 { return int32(p) + 1 }

	honest := route(dest, 0)
	if honest < 0 {
		t.Fatalf("the relay has no route to %d", dest)
	}
	for _, tc := range []struct {
		name string
		slot int32
	}{
		{"past the cluster", stamp(60)},
		{"far past the cluster", 1 << 20},
		{"negative", -5},
		{"the bias wrapped round", -1 << 31},
		{"the receiver itself", stamp(relay.id)},
	} {
		malformed, delivered := met.Get(obs.CPublishHopMalformed), met.Get(obs.CPublishDelivered)
		if hop := route(dest, tc.slot); hop != -1 {
			t.Errorf("%s: the frame was forwarded to %d", tc.name, hop)
		}
		if got := met.Get(obs.CPublishHopMalformed) - malformed; got != 1 {
			t.Errorf("%s: publish_hop_malformed rose by %d, want 1", tc.name, got)
		}
		if got := met.Get(obs.CPublishDelivered) - delivered; got != 0 {
			t.Errorf("%s: a malformed frame was delivered locally", tc.name)
		}
	}
	malformed := met.Get(obs.CPublishHopMalformed)

	// A peer that is no link: nothing to exclude.
	if hop := route(dest, stamp(stranger)); hop != honest {
		t.Errorf("a hop that is no link: the frame went to %d, want %d as without it", hop, honest)
	}

	// The liar names the link the frame would have taken.
	if hop := route(dest, stamp(overlay.PeerID(honest))); hop == honest {
		t.Errorf("the frame went back to %d, the hop it claimed to come from", hop)
	}
	if hop := route(dest, 0); hop != honest {
		t.Errorf("after the lie the next frame went to %d, want %d again", hop, honest)
	}
	// Likewise when the link is the destination itself.
	direct := relay.links()[1]
	if hop := route(direct, stamp(direct)); hop == int32(direct) {
		t.Errorf("a frame for link %d that claims to come from it was sent there", direct)
	}
	if hop := route(direct, 0); hop != int32(direct) {
		t.Errorf("after the lie a frame for link %d went to %d", direct, hop)
	}

	// What the lie can take with it is the cached routing-table entry of
	// the link it names, for the destination it names; the link's next
	// exchange brings it back.
	via := overlay.PeerID(honest)
	for _, q := range relay.links() {
		delete(relay.lookahead, q)
	}
	relay.lookahead[via] = []overlay.PeerID{far[1], dest}
	route(dest, stamp(via))
	if got := relay.lookahead[via]; !slices.Equal(got, []overlay.PeerID{far[1]}) {
		t.Errorf("after the lie the relay's copy of %d's table is %v, want only the entry for %d gone", via, got, dest)
	}
	relay.handle(&wire.Message{
		Kind: wire.KindExchangeReply, From: int32(via), To: int32(relay.id),
		RoutingTable: []int32{int32(far[1]), int32(dest)},
	})
	if hop := route(dest, 0); hop != int32(via) || !slices.Contains(relay.lookahead[via], dest) {
		t.Errorf("after %d's next exchange a frame for %d went to %d (table %v), want the lookahead hit back", via, dest, hop, relay.lookahead[via])
	}
	if got := met.Get(obs.CPublishHopMalformed); got != malformed {
		t.Errorf("publish_hop_malformed rose by %d on well-formed slots", got-malformed)
	}
}

// discard is a transport that drops every frame: what the allocation
// pins below measure is the sender alone.
type discard struct{ frames atomic.Int64 }

func (d *discard) Send(int32, *wire.Message) error       { d.frames.Add(1); return nil }
func (d *discard) Inbox(int32) <-chan transport.Envelope { return nil }
func (d *discard) Close()                                {}
func (d *discard) BindInboxBatch(int32, chan *[]transport.Envelope) bool {
	return true
}

// TestFanOutAllocPins holds the send side to its allocation budget: every
// frame leaves through one send path, whatever the transport, and none of
// the hot senders allocates for it — routing a frame's destinations, the
// publisher's fan-out, a leaf ack, a timed ack flush, a pong, a heartbeat
// sweep and a topic tree copy.
func TestFanOutAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under -race: sync.Pool drops a quarter of what it is handed back")
	}
	const n, seed = 120, 2
	g, ov := buildOverlay(t, n, seed)
	tr := &discard{}
	c, err := Start(Options{Graph: g, Overlay: ov, Transport: tr, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	t.Cleanup(func() { shutdown(t, c) })
	pub := topDegree(g)
	nd := c.Nodes[pub]
	subs := g.Neighbors(pub)
	if len(subs) < 24 {
		t.Fatalf("top degree %d", len(subs))
	}
	payload := make([]byte, 256)
	pin := func(what string, f func()) {
		t.Helper()
		f() // warms whatever f grows once
		before := tr.frames.Load()
		if a := testing.AllocsPerRun(200, f); a != 0 {
			t.Errorf("%s: %.1f allocs, want 0", what, a)
		}
		if tr.frames.Load() == before {
			t.Errorf("%s sent nothing", what)
		}
	}

	// Give routing something to search: every link lists a few peers, none
	// of them a subscriber, so that every destination that is no direct
	// link goes all the way to the greedy step.
	var others []overlay.PeerID
	for p := overlay.PeerID(0); p < n && len(others) < 8; p++ {
		if p != pub && !slices.Contains(subs, p) {
			others = append(others, p)
		}
	}
	for _, q := range nd.links() {
		nd.lookahead[q] = others
	}
	hops := make([]overlay.PeerID, 24)
	if a := testing.AllocsPerRun(200, func() { nd.routeBatch(subs[:24], hops, -1) }); a != 0 {
		t.Errorf("routeBatch of 24 destinations: %.1f allocs, want 0", a)
	}

	tmpl := nd.feedFrame(1, payload, 256, 1)
	sent := tr.frames.Load()
	pin("fanOut", func() { nd.fanOut(tmpl, subs, -1) })
	if per := (tr.frames.Load() - sent) / 202; per < 1 || per >= int64(len(subs)) {
		t.Errorf("fanOut sent %d frames for %d subscribers", per, len(subs))
	}

	ack := wire.AckEntry{Kind: wire.KindAck, From: int32(pub), Dest: int32(subs[0]), Pub: int32(subs[0]), Seq: 1, TTL: 32}
	pin("an ack flushed at once", func() { nd.queueAck(ack, true) })
	pin("two acks and a timed flush", func() {
		nd.queueAck(ack, false)
		nd.queueAck(ack, false)
		nd.flushAcks()
	})
	// A pong and the ring lists it piggybacks are one frame.
	ping := &wire.Message{Kind: wire.KindPing, From: int32(subs[0]), To: int32(pub), Seq: 9}
	pin("a pong", func() { nd.sendPong(ping) })
	// A sweep whose previous pings all came home: it pings every link.
	pin("a heartbeat sweep", func() {
		clear(nd.pendingPings)
		nd.sendHeartbeats()
	})
	// The copies of a tree cost nothing beyond the split of the subtree.
	copyOf := wire.Message{Kind: wire.KindTopicPub, From: int32(pub), Seq: 1, Publisher: int32(pub),
		Target: int32(pub), Payload: payload, Topic: []byte("#alloc"), TTL: 32}
	split := testing.AllocsPerRun(200, func() { selectcore.TreeBranches(subs, topicFanout) })
	before := tr.frames.Load()
	if a := testing.AllocsPerRun(200, func() { nd.sendTopicTree(copyOf, subs) }); a > split {
		t.Errorf("a topic tree of %d copies: %.1f allocs, want the %.0f of its split", topicFanout, a, split)
	}
	if got := tr.frames.Load() - before; got != 201*topicFanout {
		t.Errorf("%d tree copies for 201 trees of %d branches", got, topicFanout)
	}
}
