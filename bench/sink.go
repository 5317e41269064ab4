package main

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"selectps/internal/node"
)

// sample is one OnDeliver call as the handler saw it.
type sample struct {
	pub uint32 // publication index, read from the body
	at  int64  // ns since the run's epoch
}

// subscriber is one peer's delivery record. The handler touches only
// its own subscriber: no global lock, no shared cache line (the padding
// keeps neighbours apart), O(1) work into a preallocated slice.
type subscriber struct {
	mu      sync.Mutex
	samples []sample
	taken   int // samples[:taken] already moved to the collector
	_       [24]byte
}

// sink receives every application delivery of the cluster.
type sink struct {
	in      *inputs
	epoch   time.Time
	subs    []subscriber
	corrupt atomic.Int64 // bodies whose checksum or index was wrong
	tracer  *tracer      // nil in an untraced run
}

func newSink(in *inputs, epoch time.Time, tr *tracer) *sink {
	s := &sink{in: in, epoch: epoch, subs: make([]subscriber, in.w.n), tracer: tr}
	owed := make([]int, in.w.n)
	for i := range in.pubs {
		in.subscribers(i, func(sub int32) { owed[sub]++ })
	}
	for p := range s.subs {
		s.subs[p].samples = make([]sample, 0, owed[p]+16)
	}
	return s
}

// handler returns peer p's OnDeliver callback.
func (s *sink) handler(p int32) node.DeliverFunc {
	sub := &s.subs[p]
	return func(d node.Delivery) {
		now := time.Since(s.epoch)
		if len(d.Payload) != payloadSize {
			s.corrupt.Add(1)
			return
		}
		i := binary.LittleEndian.Uint32(d.Payload)
		if int(i) >= len(s.in.crcs) || crc32.ChecksumIEEE(d.Payload) != s.in.crcs[i] {
			s.corrupt.Add(1)
			return
		}
		sub.mu.Lock()
		sub.samples = append(sub.samples, sample{pub: i, at: int64(now)})
		sub.mu.Unlock()
		if s.tracer != nil {
			s.tracer.deliver(p, d, int64(now))
		}
	}
}

// delivered counts handler calls so far; the drain loop polls it.
func (s *sink) delivered() int {
	total := 0
	for p := range s.subs {
		sub := &s.subs[p]
		sub.mu.Lock()
		total += len(sub.samples)
		sub.mu.Unlock()
	}
	return total
}

// record is one verified first-time delivery.
type record struct {
	sub int32
	pub uint32
	at  int64
}

// collector drains the sink incrementally and checks every sample on
// the way: owed to that subscriber, and not seen before.
type collector struct {
	s          *sink
	seen       [][]uint64 // per subscriber: bitset over publication indexes
	byPhase    [][]record
	duplicates int
	unexpected int
}

func newCollector(s *sink) *collector {
	c := &collector{s: s, seen: make([][]uint64, len(s.subs)), byPhase: make([][]record, len(s.in.phases))}
	words := (len(s.in.pubs) + 63) / 64
	for p := range c.seen {
		c.seen[p] = make([]uint64, words)
	}
	return c
}

// collect moves every new sample out of the sink.
func (c *collector) collect() {
	in := c.s.in
	var batch []sample
	for p := range c.s.subs {
		sub := &c.s.subs[p]
		sub.mu.Lock()
		batch = append(batch[:0], sub.samples[sub.taken:]...)
		sub.taken = len(sub.samples)
		sub.mu.Unlock()
		for _, sm := range batch {
			if !in.owedTo(int(sm.pub), int32(p)) {
				c.unexpected++
				continue
			}
			w, bit := sm.pub/64, uint64(1)<<(sm.pub%64)
			if c.seen[p][w]&bit != 0 {
				c.duplicates++
				continue
			}
			c.seen[p][w] |= bit
			ph := in.pubs[sm.pub].phase
			c.byPhase[ph] = append(c.byPhase[ph], record{sub: int32(p), pub: sm.pub, at: sm.at})
		}
	}
}

func (c *collector) has(sub int32, pub int) bool {
	return c.seen[sub][pub/64]&(1<<(uint(pub)%64)) != 0
}
