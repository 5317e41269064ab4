package inbox

import (
	"os"
	"path/filepath"
	"testing"

	"selectps/internal/obs"
)

func openT(t *testing.T, path string, syncEvery int) *Store {
	t.Helper()
	s, err := Open(path, syncEvery, nil)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dep(replica, target, pub int32, seq uint32, pri uint8, body string) Record {
	return Record{
		Replica: replica, Target: target, Publisher: pub, Seq: seq,
		Priority: pri, PayloadSize: uint32(len(body)), Payload: []byte(body),
	}
}

func TestStoreDepositAckRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 1)

	fresh, err := s.Deposit(dep(2, 10, 9, 1, Medium, "hello"))
	if err != nil || !fresh {
		t.Fatalf("deposit: fresh=%v err=%v", fresh, err)
	}
	// A publisher retry of the same deposit is deduplicated.
	fresh, err = s.Deposit(dep(2, 10, 9, 1, Medium, "hello"))
	if err != nil || fresh {
		t.Fatalf("duplicate deposit: fresh=%v err=%v", fresh, err)
	}
	if got := s.PendingFor(2, 10); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	r, ok := s.Next(2, 10)
	if !ok || string(r.Payload) != "hello" || r.Seq != 1 {
		t.Fatalf("next = %+v ok=%v", r, ok)
	}
	if existed, err := s.Ack(2, 10, 9, 1); err != nil || !existed {
		t.Fatalf("ack: existed=%v err=%v", existed, err)
	}
	if existed, _ := s.Ack(2, 10, 9, 1); existed {
		t.Fatal("double ack reported the record as still existing")
	}
	if s.Depth() != 0 {
		t.Fatalf("depth = %d after drain", s.Depth())
	}
}

// TestStorePurgeTopicDrains pins the unsubscribe drain: purging a
// (target, topic) pair removes exactly that topic's records, the drop
// is journaled (it survives a reopen), and a fully-departed subscriber
// leaves the store empty — no stranded journal entries.
func TestStorePurgeTopicDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 1)

	tagged := func(seq uint32, topic string) Record {
		r := dep(2, 10, 9, seq, Medium, "body")
		r.Topic = []byte(topic)
		return r
	}
	for seq, topic := range map[uint32]string{1: "#go", 2: "#go", 3: "#rust"} {
		if _, err := s.Deposit(tagged(seq, topic)); err != nil {
			t.Fatal(err)
		}
	}
	// Another target's record of the same topic must be untouched.
	other := dep(2, 11, 9, 4, Medium, "body")
	other.Topic = []byte("#go")
	if _, err := s.Deposit(other); err != nil {
		t.Fatal(err)
	}

	n, err := s.PurgeTopic(2, 10, []byte("#go"))
	if err != nil || n != 2 {
		t.Fatalf("purge = %d, %v; want 2 records dropped", n, err)
	}
	if got := s.PendingFor(2, 10); got != 1 {
		t.Fatalf("target 10 pending = %d after purge, want 1 (#rust)", got)
	}
	if got := s.PendingFor(2, 11); got != 1 {
		t.Fatalf("target 11 pending = %d, want 1 (other subscriber untouched)", got)
	}
	// Drain the rest and assert full departure leaves no journal residue,
	// across a crash-recovery reopen.
	if n, err := s.PurgeTopic(2, 10, []byte("#rust")); err != nil || n != 1 {
		t.Fatalf("purge #rust = %d, %v", n, err)
	}
	if _, err := s.PurgeTopic(2, 11, []byte("#go")); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 0 {
		t.Fatalf("depth = %d after full drain, want 0", s.Depth())
	}
	s.Close()
	re := openT(t, path, 1)
	if re.Depth() != 0 {
		t.Fatalf("reopened depth = %d, want 0 (purge must be journaled)", re.Depth())
	}
}

func TestStorePriorityOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 0)

	// Deposit LOW, HIGH, MEDIUM, HIGH — replay must drain both HIGHs,
	// then MEDIUM, then LOW, FIFO within a class.
	seqs := []struct {
		seq uint32
		pri uint8
	}{{1, Low}, {2, High}, {3, Medium}, {4, High}}
	for _, d := range seqs {
		if _, err := s.Deposit(dep(2, 10, 9, d.seq, d.pri, "x")); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint32{2, 4, 3, 1}
	for _, w := range want {
		r, ok := s.Next(2, 10)
		if !ok || r.Seq != w {
			t.Fatalf("next seq = %d (ok=%v), want %d", r.Seq, ok, w)
		}
		if _, err := s.Ack(2, 10, 9, r.Seq); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreRecoveryFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 1)
	for seq := uint32(1); seq <= 5; seq++ {
		if _, err := s.Deposit(dep(2, 10, 9, seq, Medium, "payload")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Ack(2, 10, 9, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same journal must see exactly the unacked
	// records, in order, payloads intact.
	re := openT(t, path, 1)
	if got := re.PendingFor(2, 10); got != 4 {
		t.Fatalf("recovered pending = %d, want 4", got)
	}
	for _, w := range []uint32{1, 2, 4, 5} {
		r, ok := re.Next(2, 10)
		if !ok || r.Seq != w || string(r.Payload) != "payload" {
			t.Fatalf("recovered next = %+v ok=%v, want seq %d", r, ok, w)
		}
		if _, err := re.Ack(2, 10, 9, r.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if re.Corrupt() != 0 {
		t.Fatalf("clean journal reported %d corrupt frames", re.Corrupt())
	}
}

// TestStoreSkipsTruncatedTail pins the torn-write contract: a record cut
// mid-body is skipped with the corruption counter bumped, never a panic
// or a lost store.
func TestStoreSkipsTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 1)
	for seq := uint32(1); seq <= 3; seq++ {
		if _, err := s.Deposit(dep(2, 10, 9, seq, Medium, "durable-body")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	met := obs.New()
	re, err := Open(path, 1, met)
	if err != nil {
		t.Fatalf("open over truncated journal: %v", err)
	}
	defer re.Close()
	if got := re.PendingFor(2, 10); got != 2 {
		t.Fatalf("recovered %d records from truncated journal, want 2", got)
	}
	if re.Corrupt() != 1 {
		t.Fatalf("corrupt = %d, want 1", re.Corrupt())
	}
	if met.Get(obs.CInboxLogCorrupt) != 1 {
		t.Fatalf("inbox_log_corrupt counter = %d, want 1", met.Get(obs.CInboxLogCorrupt))
	}
	// Recovery compacts the garbage tail away: appends after recovery
	// must land on a clean journal that reloads in full.
	if _, err := re.Deposit(dep(2, 10, 9, 9, High, "after-recovery")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2 := openT(t, path, 1)
	if got := re2.PendingFor(2, 10); got != 3 {
		t.Fatalf("post-recovery journal reloaded %d records, want 3", got)
	}
	if re2.Corrupt() != 0 {
		t.Fatalf("post-recovery journal still corrupt: %d", re2.Corrupt())
	}
}

// TestStoreSkipsBitFlippedTail: a flipped payload bit fails the CRC and
// drops that record (and anything after it) without failing recovery.
func TestStoreSkipsBitFlippedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 1)
	for seq := uint32(1); seq <= 3; seq++ {
		if _, err := s.Deposit(dep(2, 10, 9, seq, Medium, "durable-body")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40 // flip one bit inside the last record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, 1, nil)
	if err != nil {
		t.Fatalf("open over bit-flipped journal: %v", err)
	}
	defer re.Close()
	if got := re.PendingFor(2, 10); got != 2 {
		t.Fatalf("recovered %d records past a bit flip, want 2", got)
	}
	if re.Corrupt() != 1 {
		t.Fatalf("corrupt = %d, want 1", re.Corrupt())
	}
}

func TestStoreCompactionDropsAckedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 0)
	for seq := uint32(0); seq < 64; seq++ {
		if _, err := s.Deposit(dep(2, 10, 9, seq, Low, "bulky-payload-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint32(0); seq < 60; seq++ {
		if _, err := s.Ack(2, 10, 9, seq); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.Stat(path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", before.Size(), after.Size())
	}
	if got := s.Depth(); got != 4 {
		t.Fatalf("depth = %d after compaction, want 4", got)
	}
	// Appends after compaction extend the rewritten journal correctly.
	if _, err := s.Deposit(dep(2, 11, 9, 99, High, "tail")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re := openT(t, path, 0)
	if got := re.Depth(); got != 5 {
		t.Fatalf("reloaded depth = %d, want 5", got)
	}
}

// TestStoreAutoCompacts: the acked-record threshold triggers compaction
// without an explicit call.
func TestStoreAutoCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 0)
	for seq := uint32(0); seq < compactEvery+8; seq++ {
		if _, err := s.Deposit(dep(2, 10, 9, seq, Medium, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	grown, _ := os.Stat(path)
	for seq := uint32(0); seq < compactEvery+8; seq++ {
		if _, err := s.Ack(2, 10, 9, seq); err != nil {
			t.Fatal(err)
		}
	}
	shrunk, _ := os.Stat(path)
	if shrunk.Size() >= grown.Size() {
		t.Fatalf("auto-compaction never fired: %d -> %d bytes", grown.Size(), shrunk.Size())
	}
}

func TestStoreSyncPolicies(t *testing.T) {
	// The policy knob must not change observable behavior, only
	// durability timing: every policy yields the same recovered state.
	for _, syncEvery := range []int{0, 1, 8} {
		path := filepath.Join(t.TempDir(), "shard.log")
		s := openT(t, path, syncEvery)
		for seq := uint32(1); seq <= 20; seq++ {
			if _, err := s.Deposit(dep(1, 5, 3, seq, uint8(seq%3), "p")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		re := openT(t, path, syncEvery)
		if got := re.PendingFor(1, 5); got != 20 {
			t.Fatalf("syncEvery=%d: recovered %d, want 20", syncEvery, got)
		}
	}
}

func TestStoreIsolatesReplicas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 0)
	// Two replicas hosted on the same shard share one journal; their
	// pending sets must stay disjoint.
	if _, err := s.Deposit(dep(2, 10, 9, 1, Medium, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deposit(dep(3, 10, 9, 1, Medium, "a")); err != nil {
		t.Fatal(err)
	}
	if s.PendingFor(2, 10) != 1 || s.PendingFor(3, 10) != 1 {
		t.Fatalf("replica isolation broken: %d / %d", s.PendingFor(2, 10), s.PendingFor(3, 10))
	}
	if _, err := s.Ack(2, 10, 9, 1); err != nil {
		t.Fatal(err)
	}
	if s.PendingFor(3, 10) != 1 {
		t.Fatal("ack on replica 2 removed replica 3's copy")
	}
}

// BenchmarkStoreReplayCycle is the durable-tier throughput floor: one
// full deposit → Next → Ack cycle per record through the journal — the
// store-side work behind every replayed notification. Run with
// -syncEvery variants via BenchmarkStoreReplayCycleSynced for the
// fsync-per-record worst case.
func benchReplayCycle(b *testing.B, syncEvery int) {
	path := filepath.Join(b.TempDir(), "shard.log")
	s, err := Open(path, syncEvery, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := make([]byte, 256)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i + 1)
		r := Record{
			Replica: 1, Target: 5, Publisher: 9, Seq: seq,
			Priority: Medium, PayloadSize: uint32(len(body)), Payload: body,
		}
		if _, err := s.Deposit(r); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Next(1, 5); !ok {
			b.Fatal("no pending record")
		}
		if _, err := s.Ack(1, 5, 9, seq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreReplayCycle(b *testing.B)       { benchReplayCycle(b, 0) }
func BenchmarkStoreReplayCycleSynced(b *testing.B) { benchReplayCycle(b, 1) }

// TestStoreNextNBatches pins the replay batch: drain order across the
// classes, the record cap, the byte cap — which never holds back the
// first record — and that a batch stays pending until acked.
func TestStoreNextNBatches(t *testing.T) {
	s := openT(t, filepath.Join(t.TempDir(), "shard.log"), 0)
	body := string(make([]byte, 100))
	for seq := uint32(1); seq <= 9; seq++ {
		if _, err := s.Deposit(dep(2, 10, 9, seq, uint8(seq%3), body)); err != nil {
			t.Fatal(err)
		}
	}
	seqs := func(recs []Record) (out []uint32) {
		for _, r := range recs {
			out = append(out, r.Seq)
		}
		return out
	}
	same := func(a, b []uint32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	order := []uint32{3, 6, 9, 1, 4, 7, 2, 5, 8} // High, then Medium, then Low
	for _, c := range []struct {
		max, maxBytes int
		want          []uint32
	}{
		{32, 1 << 20, order},
		{4, 1 << 20, order[:4]},
		{32, 350, order[:3]},
		{32, 50, order[:1]}, // a record over the byte cap still travels, alone
		{1, 0, order[:1]},
	} {
		if got := seqs(s.NextN(nil, 2, 10, c.max, c.maxBytes)); !same(got, c.want) {
			t.Errorf("NextN(max %d, %d bytes) = %v, want %v", c.max, c.maxBytes, got, c.want)
		}
	}
	if got := s.NextN(nil, 2, 11, 32, 1<<20); len(got) != 0 {
		t.Errorf("NextN for a target with no deposits = %v", got)
	}
	// The result is appended to dst, whose storage is reused.
	buf := make([]Record, 0, 16)
	if got := s.NextN(buf, 2, 10, 2, 1<<20); len(got) != 2 || &got[0] != &buf[:1][0] {
		t.Errorf("NextN did not append into the slice it was given")
	}
	if s.PendingFor(2, 10) != 9 {
		t.Errorf("NextN consumed records: %d pending", s.PendingFor(2, 10))
	}
}

// TestStoreAckManyOneWrite pins the batched ack: every pending id is
// cleared, the others are counted out, the journal grows by one write's
// worth of ack records, and the drop survives a restart.
func TestStoreAckManyOneWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	s := openT(t, path, 0)
	for seq := uint32(1); seq <= 6; seq++ {
		if _, err := s.Deposit(dep(2, 10, 9, seq, Medium, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Deposit(dep(2, 11, 9, 1, Medium, "x")); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)
	ids := []ID{{9, 1}, {9, 2}, {9, 2}, {9, 3}, {9, 40}, {8, 1}}
	cleared, err := s.AckMany(2, 10, ids)
	if err != nil || cleared != 3 {
		t.Fatalf("AckMany = %d, %v; want the 3 ids that were pending", cleared, err)
	}
	after, _ := os.Stat(path)
	if grew, want := after.Size()-before.Size(), int64(3*(recHeader+recBodyFix)); grew != want {
		t.Errorf("the journal grew by %d bytes, want %d: one ack record per cleared id", grew, want)
	}
	if cleared, err = s.AckMany(2, 10, ids); err != nil || cleared != 0 {
		t.Errorf("a second AckMany of the same ids = %d, %v", cleared, err)
	}
	if s.PendingFor(2, 10) != 3 || s.PendingFor(2, 11) != 1 {
		t.Errorf("pending after AckMany: %d for the target, %d for another; want 3 and 1", s.PendingFor(2, 10), s.PendingFor(2, 11))
	}
	s.Close()
	if r := openT(t, path, 0); r.PendingFor(2, 10) != 3 || r.PendingFor(2, 11) != 1 {
		t.Errorf("pending after recovery: %d and %d, want 3 and 1", r.PendingFor(2, 10), r.PendingFor(2, 11))
	}
}
