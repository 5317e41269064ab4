package inbox

import (
	"bufio"
	"os"
	"slices"
	"sync"

	"selectps/internal/obs"
)

// compactEvery is how many acked records may accumulate before the
// store rewrites the journal without them. Compaction is O(pending) and
// rare; between compactions acked records cost only their bytes on
// disk, never memory.
const compactEvery = 256

// slotKeepBytes is the largest payload buffer a freed slot keeps for the
// next deposit: a slot that once held a large body (Fig. 7's 1.2 MB
// fragments) hands it back to the GC instead of pinning it. Buffers up to
// this size are carved from chunks that double up to arenaMax.
const (
	slotKeepBytes = 64 << 10
	arenaMax      = 1 << 20
)

// recKey identifies one deposit: which replica holds which publication
// for which subscriber.
type recKey struct {
	replica, target, publisher int32
	seq                        uint32
}

// slot is one entry of the store's slab: a pending record whose Payload
// and Topic are views of the slot's own buffers. A freed slot keeps its
// buffers for the next deposit it takes; one too small for it gets a
// larger one (Store.room).
type slot struct {
	rec          Record
	payload, top []byte
}

// fifo is one priority class of a replay queue: slot indices, oldest
// first from head. An in-order ack moves head; the storage is reused
// once the class empties.
type fifo struct {
	idx  []int32
	head int
}

func (f *fifo) live() []int32 { return f.idx[f.head:] }

// remove drops slot i from the class: the head in drain order, a scan
// otherwise (an ack out of order, or a purge).
func (f *fifo) remove(i int32) {
	live := f.live()
	k := slices.Index(live, i)
	switch {
	case k < 0:
		return
	case k == 0:
		f.head++
	default:
		f.idx = slices.Delete(f.idx, f.head+k, f.head+k+1)
	}
	if f.head == len(f.idx) {
		f.idx, f.head = f.idx[:0], 0
	} else if f.head > len(f.idx)/2 {
		// Mostly consumed: slide the live tail down so the class does not
		// creep along its storage while deposits keep arriving.
		f.idx, f.head = f.idx[:copy(f.idx, f.idx[f.head:])], 0
	}
}

// queue is the per-(replica,target) replay schedule: one FIFO per
// priority class, drained High → Medium → Low.
type queue struct {
	classes [numPriorities]fifo
}

func (q *queue) len() int {
	n := 0
	for i := range q.classes {
		n += len(q.classes[i].live())
	}
	return n
}

// Store is the in-memory pending index over one shard's journal. All
// methods are safe for concurrent use (the shard goroutine is the
// common caller, but tests and the monitor gauge read from outside).
//
// Pending records live in a slab indexed by slot; freed slots, and the
// queues of targets whose inbox drained, are recycled, so the steady
// state of deposits, replays and acks allocates nothing (DESIGN.md §15.6).
type Store struct {
	mu      sync.Mutex
	log     *Log
	met     *obs.Metrics
	slots   []slot
	free    []int32 // freed slots, reused last-freed first
	pending map[recKey]int32
	// queues maps (replica, target) to its replay schedule in qs; qfree
	// lists the schedules no pair holds.
	queues  map[[2]int32]int32
	qs      []queue
	qfree   []int32
	acked   int       // acks journaled since the last compaction
	keys    []recKey  // scratch of one ack batch
	recs    []*Record // a compaction's list of the pending records
	arena   []byte    // the chunk slot buffers are carved from
	corrupt int64     // corrupt frames skipped at recovery
}

// Open opens (or creates) the journal at path and rebuilds the pending
// index from it: deposits are re-indexed, acked deposits dropped, and a
// torn or bit-flipped tail frame is skipped with the log_corrupt
// counter bumped — recovery never fails on bad bytes, it just stops
// trusting the journal at the first one. met may be nil.
func Open(path string, syncEvery int, met *obs.Metrics) (*Store, error) {
	s := &Store{
		met:     met,
		pending: make(map[recKey]int32),
		queues:  make(map[[2]int32]int32),
	}
	if f, err := os.Open(path); err == nil {
		entries, corrupt, _ := readJournal(bufio.NewReaderSize(f, 1<<16))
		f.Close()
		for i := range entries {
			e := &entries[i]
			switch e.typ {
			case recDeposit:
				if _, dup := s.pending[keyOf(&e.rec)]; !dup {
					s.insertLocked(&e.rec)
				}
			case recAck:
				s.dropLocked(keyOf(&e.rec))
			}
		}
		s.corrupt = int64(corrupt)
		if corrupt > 0 {
			met.Addn(obs.CInboxLogCorrupt, int64(corrupt))
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	log, err := OpenLog(path, syncEvery)
	if err != nil {
		return nil, err
	}
	s.log = log
	// A recovery that skipped a corrupt tail leaves untrusted bytes at
	// the end of the file; compact immediately so new appends never land
	// after garbage.
	if s.corrupt > 0 {
		if err := s.compactLocked(); err != nil {
			log.Close()
			return nil, err
		}
	}
	return s, nil
}

func keyOf(r *Record) recKey {
	return recKey{replica: r.Replica, target: r.Target, publisher: r.Publisher, seq: r.Seq}
}

func class(r *Record) uint8 {
	if r.Priority >= numPriorities {
		return Low
	}
	return r.Priority
}

// insertLocked copies r, whose key the store does not hold, into a free
// slot and queues it.
func (s *Store) insertLocked(r *Record) {
	var i int32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[i]
	sl.rec = *r
	if r.Payload != nil {
		sl.payload = append(s.room(sl.payload, len(r.Payload)), r.Payload...)
		sl.rec.Payload = sl.payload
	}
	if r.Topic != nil {
		sl.top = append(s.room(sl.top, len(r.Topic)), r.Topic...)
		sl.rec.Topic = sl.top
	}
	s.pending[keyOf(r)] = i
	qk := [2]int32{r.Replica, r.Target}
	qi, ok := s.queues[qk]
	if !ok {
		if n := len(s.qfree); n > 0 {
			qi, s.qfree = s.qfree[n-1], s.qfree[:n-1]
		} else {
			qi = int32(len(s.qs))
			s.qs = append(s.qs, queue{})
		}
		s.queues[qk] = qi
	}
	c := &s.qs[qi].classes[class(r)]
	c.idx = append(c.idx, i)
}

// room returns buf emptied, with room for n bytes: buf itself when it
// has the room, else a buffer carved from the arena's current chunk or a
// new one — or, for a body over slotKeepBytes, a buffer of its own.
func (s *Store) room(buf []byte, n int) []byte {
	switch {
	case cap(buf) >= n:
		return buf[:0]
	case n > slotKeepBytes:
		return make([]byte, 0, n)
	case cap(s.arena)-len(s.arena) < n:
		s.arena = make([]byte, 0, max(n, 4<<10, min(2*cap(s.arena), arenaMax)))
	}
	l := len(s.arena)
	s.arena = s.arena[:l+n]
	return s.arena[l : l : l+n]
}

// poison, when set (race builds, poison_race.go), scribbles over the
// buffers of a slot the store frees.
var poison func(*slot)

// dropLocked removes record k, if pending, from the index and its queue
// and frees its slot. A queue left empty is recycled.
func (s *Store) dropLocked(k recKey) {
	i, ok := s.pending[k]
	if !ok {
		return
	}
	delete(s.pending, k)
	sl := &s.slots[i]
	qk := [2]int32{k.replica, k.target}
	if qi, ok := s.queues[qk]; ok {
		q := &s.qs[qi]
		q.classes[class(&sl.rec)].remove(i)
		if q.len() == 0 {
			delete(s.queues, qk)
			s.qfree = append(s.qfree, qi)
		}
	}
	// Whatever still views the record's bytes is past its contract
	// (NextN): race builds make it read garbage.
	if poison != nil {
		poison(sl)
	}
	if cap(sl.payload) > slotKeepBytes {
		sl.payload = nil
	}
	sl.rec = Record{}
	s.free = append(s.free, i)
}

// Deposit journals and indexes one record. fresh is false when the
// store already holds this (replica, target, publisher, seq) — the
// publisher retried a deposit that already landed, which callers ack
// again without re-persisting. The payload and topic are copied into the
// store's own storage; callers may reuse their buffers.
func (s *Store) Deposit(r Record) (fresh bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pending[keyOf(&r)]; dup {
		return false, nil
	}
	if err := s.log.appendRecord(recDeposit, &r); err != nil {
		return false, err
	}
	s.insertLocked(&r)
	s.met.Inc(obs.CInboxDeposit)
	return true, nil
}

// ID names one publication, the (Publisher, Seq) pair the dedup window
// keys by.
type ID struct {
	Publisher int32
	Seq       uint32
}

// Ack journals the acknowledgment for one record and removes it from
// the pending index. Unknown records return false without journaling
// (the subscriber acked a copy some other replica held).
func (s *Store) Ack(replica, target, publisher int32, seq uint32) (existed bool, err error) {
	id := [1]ID{{publisher, seq}}
	cleared, err := s.AckMany(replica, target, id[:])
	return cleared > 0, err
}

// AckMany is Ack for every record of ids the given replica holds for the
// given target: the ack records are journaled with one write, and the
// store compacts at most once. It returns how many of ids were pending;
// the others (acked before, or held by some other replica only) cost
// nothing. On a journal error nothing is dropped.
func (s *Store) AckMany(replica, target int32, ids []ID) (cleared int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := s.keys[:0]
	for _, id := range ids {
		k := recKey{replica: replica, target: target, publisher: id.Publisher, seq: id.Seq}
		if _, ok := s.pending[k]; ok && !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	s.keys = keys
	return s.ackLocked(keys)
}

// ackLocked journals an ack for every key — all pending, no key twice —
// with one write, drops the records and compacts when due. It returns
// how many records it dropped: none when the journal write failed.
func (s *Store) ackLocked(keys []recKey) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	if err := s.log.appendAcks(keys); err != nil {
		return 0, err
	}
	for _, k := range keys {
		s.dropLocked(k)
	}
	s.acked += len(keys)
	if s.acked >= compactEvery {
		return len(keys), s.compactLocked()
	}
	return len(keys), nil
}

// Next returns the record the given replica should replay next for the
// given target: the head of the highest-priority non-empty class. The
// record stays pending until Ack; its Payload and Topic are valid until
// then, as NextN's are.
func (s *Store) Next(replica, target int32) (Record, bool) {
	var one [1]Record
	if out := s.NextN(one[:0], replica, target, 1, 0); len(out) == 1 {
		return out[0], true
	}
	return Record{}, false
}

// NextN appends to dst the records the given replica should replay next
// for the given target — the queue in drain order, High before Medium
// before Low, each class first in first out — and returns the extended
// slice: at most max records, and at most maxBytes of payload and topic
// between them, but always the first record however large it is. The
// records stay pending until acked, so a second call before that returns
// the same ones.
//
// Their Payload and Topic are the store's own bytes: they must not be
// written to, and they stay intact until the record is acked (Ack,
// AckMany, PurgeTopic) and no longer — the slot a record leaves takes the
// next deposit's bytes. A caller that keeps a record past its ack copies
// them.
func (s *Store) NextN(dst []Record, replica, target int32, max, maxBytes int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	qi, ok := s.queues[[2]int32{replica, target}]
	if !ok {
		return dst
	}
	first, bytes := len(dst), 0
	for c := range s.qs[qi].classes {
		for _, i := range s.qs[qi].classes[c].live() {
			r := &s.slots[i].rec
			bytes += len(r.Payload) + len(r.Topic)
			if len(dst)-first >= max || (len(dst) > first && bytes > maxBytes) {
				return dst
			}
			dst = append(dst, *r)
		}
	}
	return dst
}

// PendingTargets appends to dst the targets the given replica holds
// pending deposits for — the input of the replica-side replay sweep that
// catches subscribers whose claim never reached this replica — and
// returns the extended slice.
func (s *Store) PendingTargets(dst []int32, replica int32) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.queues {
		if k[0] == replica {
			dst = append(dst, k[1])
		}
	}
	return dst
}

// PendingFor reports how many deposits the given replica holds for the
// given target.
func (s *Store) PendingFor(replica, target int32) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	qi, ok := s.queues[[2]int32{replica, target}]
	if !ok {
		return 0
	}
	return s.qs[qi].len()
}

// PurgeTopic drops every pending deposit the given replica holds for
// the given (target, topic) pair, journaling an ack per record so the
// drop survives a restart. It is the unsubscribe drain: a subscriber
// that departs a topic must not strand journal entries it will never
// claim. Returns how many records were dropped.
func (s *Store) PurgeTopic(replica, target int32, topic []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	qi, ok := s.queues[[2]int32{replica, target}]
	if !ok {
		return 0, nil
	}
	keys := s.keys[:0]
	for c := range s.qs[qi].classes {
		for _, i := range s.qs[qi].classes[c].live() {
			if r := &s.slots[i].rec; string(r.Topic) == string(topic) {
				keys = append(keys, keyOf(r))
			}
		}
	}
	s.keys = keys
	return s.ackLocked(keys)
}

// Depth is the total number of pending deposits in the store — the
// inbox_depth gauge input.
func (s *Store) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Corrupt reports how many corrupt journal frames recovery skipped.
func (s *Store) Corrupt() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// Compact rewrites the journal to hold only pending deposits.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked rewrites the journal with the pending records, queue by
// queue in slab order, each in drain order.
func (s *Store) compactLocked() error {
	recs := s.recs[:0]
	for qi := range s.qs {
		for c := range s.qs[qi].classes {
			for _, i := range s.qs[qi].classes[c].live() {
				recs = append(recs, &s.slots[i].rec)
			}
		}
	}
	err := s.log.rewrite(recs)
	clear(recs)
	s.recs = recs[:0]
	if err != nil {
		return err
	}
	s.acked = 0
	return nil
}

// Sync forces the journal to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Sync()
}

// Close closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
