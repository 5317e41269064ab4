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

// recKey identifies one deposit: which replica holds which publication
// for which subscriber.
type recKey struct {
	replica, target, publisher int32
	seq                        uint32
}

// queue is the per-(replica,target) replay schedule: one FIFO per
// priority class, drained High → Medium → Low.
type queue struct {
	classes [numPriorities][]*Record
}

func (q *queue) empty() bool {
	for _, c := range q.classes {
		if len(c) > 0 {
			return false
		}
	}
	return true
}

// Store is the in-memory pending index over one shard's journal. All
// methods are safe for concurrent use (the shard goroutine is the
// common caller, but tests and the monitor gauge read from outside).
type Store struct {
	mu      sync.Mutex
	log     *Log
	met     *obs.Metrics
	pending map[recKey]*Record
	queues  map[[2]int32]*queue // (replica, target) → replay schedule
	acked   int                 // acks journaled since the last compaction
	keys    []recKey            // scratch of one ack batch
	corrupt int64               // corrupt frames skipped at recovery
}

// Open opens (or creates) the journal at path and rebuilds the pending
// index from it: deposits are re-indexed, acked deposits dropped, and a
// torn or bit-flipped tail frame is skipped with the log_corrupt
// counter bumped — recovery never fails on bad bytes, it just stops
// trusting the journal at the first one. met may be nil.
func Open(path string, syncEvery int, met *obs.Metrics) (*Store, error) {
	s := &Store{
		met:     met,
		pending: make(map[recKey]*Record),
		queues:  make(map[[2]int32]*queue),
	}
	if f, err := os.Open(path); err == nil {
		entries, corrupt, _ := readJournal(bufio.NewReaderSize(f, 1<<16))
		f.Close()
		for i := range entries {
			e := &entries[i]
			k := keyOf(&e.rec)
			switch e.typ {
			case recDeposit:
				if _, dup := s.pending[k]; dup {
					continue
				}
				rec := e.rec
				s.pending[k] = &rec
				s.enqueueLocked(&rec)
			case recAck:
				s.dropLocked(k)
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

func (s *Store) enqueueLocked(r *Record) {
	qk := [2]int32{r.Replica, r.Target}
	q := s.queues[qk]
	if q == nil {
		q = &queue{}
		s.queues[qk] = q
	}
	pri := r.Priority
	if pri >= numPriorities {
		pri = Low
	}
	q.classes[pri] = append(q.classes[pri], r)
}

func (s *Store) dropLocked(k recKey) bool {
	r, ok := s.pending[k]
	if !ok {
		return false
	}
	delete(s.pending, k)
	qk := [2]int32{k.replica, k.target}
	if q := s.queues[qk]; q != nil {
		pri := r.Priority
		if pri >= numPriorities {
			pri = Low
		}
		c := q.classes[pri]
		for i, cand := range c {
			if cand == r {
				q.classes[pri] = append(c[:i], c[i+1:]...)
				break
			}
		}
		if q.empty() {
			delete(s.queues, qk)
		}
	}
	return true
}

// Deposit journals and indexes one record. fresh is false when the
// store already holds this (replica, target, publisher, seq) — the
// publisher retried a deposit that already landed, which callers ack
// again without re-persisting. The payload is copied; callers may reuse
// their buffer.
func (s *Store) Deposit(r Record) (fresh bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := keyOf(&r)
	if _, dup := s.pending[k]; dup {
		return false, nil
	}
	if r.Payload != nil {
		r.Payload = append([]byte(nil), r.Payload...)
	}
	if r.Topic != nil {
		r.Topic = append([]byte(nil), r.Topic...)
	}
	if err := s.log.appendRecord(recDeposit, &r); err != nil {
		return false, err
	}
	s.pending[k] = &r
	s.enqueueLocked(&r)
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
	cleared, err := s.AckMany(replica, target, []ID{{publisher, seq}})
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
// record stays pending until Ack.
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
// the same ones; their Payload and Topic are the store's own bytes and
// must not be written to.
func (s *Store) NextN(dst []Record, replica, target int32, max, maxBytes int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[[2]int32{replica, target}]
	if q == nil {
		return dst
	}
	first, bytes := len(dst), 0
	for _, c := range q.classes {
		for _, r := range c {
			bytes += len(r.Payload) + len(r.Topic)
			if len(dst)-first >= max || (len(dst) > first && bytes > maxBytes) {
				return dst
			}
			dst = append(dst, *r)
		}
	}
	return dst
}

// PendingTargets lists the targets the given replica holds pending
// deposits for — the input of the replica-side replay sweep that
// catches subscribers whose claim never reached this replica.
func (s *Store) PendingTargets(replica int32) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int32
	for k, q := range s.queues {
		if k[0] == replica && !q.empty() {
			out = append(out, k[1])
		}
	}
	return out
}

// PendingFor reports how many deposits the given replica holds for the
// given target.
func (s *Store) PendingFor(replica, target int32) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[[2]int32{replica, target}]
	if q == nil {
		return 0
	}
	n := 0
	for _, c := range q.classes {
		n += len(c)
	}
	return n
}

// PurgeTopic drops every pending deposit the given replica holds for
// the given (target, topic) pair, journaling an ack per record so the
// drop survives a restart. It is the unsubscribe drain: a subscriber
// that departs a topic must not strand journal entries it will never
// claim. Returns how many records were dropped.
func (s *Store) PurgeTopic(replica, target int32, topic []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[[2]int32{replica, target}]
	if q == nil {
		return 0, nil
	}
	keys := s.keys[:0]
	for _, c := range q.classes {
		for _, r := range c {
			if string(r.Topic) == string(topic) {
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

func (s *Store) compactLocked() error {
	recs := make([]*Record, 0, len(s.pending))
	for _, q := range s.queues {
		for _, c := range q.classes {
			recs = append(recs, c...)
		}
	}
	if err := s.log.rewrite(recs); err != nil {
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
