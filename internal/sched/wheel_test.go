package sched

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// base is an arbitrary fixed origin so tests drive the wheel logically,
// never reading the wall clock.
var base = time.Unix(1_700_000_000, 0)

func TestFireOrderDeterministicUnderSameSeed(t *testing.T) {
	// Two wheels fed the same seeded schedule sequence must pop the same
	// ids in the same order at every advance — the determinism contract
	// the sharded runtime leans on.
	run := func(seed int64) [][]uint64 {
		w := NewWheel(time.Millisecond, 64, base)
		rng := rand.New(rand.NewSource(seed))
		var rounds [][]uint64
		now := base
		for step := 0; step < 200; step++ {
			// A burst of upserts, some rescheduling earlier ids.
			for i := 0; i < 8; i++ {
				id := uint64(rng.Intn(40))
				at := now.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
				w.Schedule(id, at)
			}
			if rng.Intn(4) == 0 {
				w.Cancel(uint64(rng.Intn(40)))
			}
			now = now.Add(time.Duration(1+rng.Intn(20)) * time.Millisecond)
			fired := w.Advance(now)
			ids := make([]uint64, len(fired))
			for i, f := range fired {
				ids[i] = f.ID
			}
			rounds = append(rounds, ids)
		}
		return rounds
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical schedule sequences fired in different orders")
	}
	if reflect.DeepEqual(run(7), run(8)) {
		t.Fatal("distinct seeds produced identical fire sequences (degenerate test)")
	}
}

func TestFireOrderByDeadlineThenInsertion(t *testing.T) {
	w := NewWheel(time.Millisecond, 32, base)
	w.Schedule(3, base.Add(20*time.Millisecond))
	w.Schedule(1, base.Add(10*time.Millisecond))
	w.Schedule(2, base.Add(10*time.Millisecond)) // same tick as 1, inserted later
	fired := w.Advance(base.Add(50 * time.Millisecond))
	got := []uint64{fired[0].ID, fired[1].ID, fired[2].ID}
	want := []uint64{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order = %v, want %v (deadline first, insertion tiebreak)", got, want)
	}
}

func TestRescheduleMovesEntry(t *testing.T) {
	w := NewWheel(time.Millisecond, 32, base)
	w.Schedule(1, base.Add(100*time.Millisecond))
	w.Schedule(1, base.Add(10*time.Millisecond)) // upsert earlier
	if fired := w.Advance(base.Add(20 * time.Millisecond)); len(fired) != 1 || fired[0].ID != 1 {
		t.Fatalf("rescheduled entry did not fire at the new deadline: %v", fired)
	}
	if fired := w.Advance(base.Add(200 * time.Millisecond)); len(fired) != 0 {
		t.Fatalf("entry fired twice after reschedule: %v", fired)
	}
	// And the other direction: pushing a deadline out defers the fire.
	w.Schedule(2, base.Add(210*time.Millisecond))
	w.Schedule(2, base.Add(400*time.Millisecond))
	if fired := w.Advance(base.Add(300 * time.Millisecond)); len(fired) != 0 {
		t.Fatalf("pushed-out entry fired at its old deadline: %v", fired)
	}
	if fired := w.Advance(base.Add(500 * time.Millisecond)); len(fired) != 1 || fired[0].ID != 2 {
		t.Fatalf("pushed-out entry missing at the new deadline: %v", fired)
	}
}

func TestCancelRemoves(t *testing.T) {
	w := NewWheel(time.Millisecond, 32, base)
	w.Schedule(1, base.Add(10*time.Millisecond))
	w.Schedule(2, base.Add(10*time.Millisecond))
	w.Cancel(1)
	w.Cancel(99) // absent: no-op
	if n := w.Len(); n != 1 {
		t.Fatalf("Len = %d after cancel, want 1", n)
	}
	fired := w.Advance(base.Add(20 * time.Millisecond))
	if len(fired) != 1 || fired[0].ID != 2 {
		t.Fatalf("cancelled entry fired: %v", fired)
	}
}

func TestPastDeadlineFiresOnNextAdvance(t *testing.T) {
	w := NewWheel(time.Millisecond, 32, base)
	w.Advance(base.Add(100 * time.Millisecond))
	w.Schedule(1, base) // long past
	if fired := w.Advance(base.Add(101 * time.Millisecond)); len(fired) != 1 {
		t.Fatalf("past-deadline entry did not fire on the next advance: %v", fired)
	}
}

func TestMultiRotationDeadlines(t *testing.T) {
	// 32 slots × 1 ms = 32 ms per rotation; a 200 ms deadline shares a
	// slot with near entries across several rotations and must not fire
	// early.
	w := NewWheel(time.Millisecond, 32, base)
	w.Schedule(1, base.Add(200*time.Millisecond))
	w.Schedule(2, base.Add(200*time.Millisecond+32*time.Millisecond)) // same slot, next rotation
	total := 0
	for now := base; now.Before(base.Add(199 * time.Millisecond)); now = now.Add(7 * time.Millisecond) {
		total += len(w.Advance(now))
	}
	if total != 0 {
		t.Fatalf("%d far entries fired before their rotation", total)
	}
	if fired := w.Advance(base.Add(201 * time.Millisecond)); len(fired) != 1 || fired[0].ID != 1 {
		t.Fatalf("rotation-away entry did not fire on time: %v", fired)
	}
	if fired := w.Advance(base.Add(233 * time.Millisecond)); len(fired) != 1 || fired[0].ID != 2 {
		t.Fatalf("second-rotation entry did not fire on time: %v", fired)
	}
}

func TestNextReportsEarliestDeadline(t *testing.T) {
	w := NewWheel(time.Millisecond, 32, base)
	if _, ok := w.Next(); ok {
		t.Fatal("empty wheel reported a next deadline")
	}
	// The far entry sits in an EARLIER slot of the rotation than the near
	// one — Next must still return the true minimum, not the first
	// non-empty slot.
	w.Schedule(1, base.Add(5*time.Millisecond+32*time.Millisecond)) // slot 5, next rotation
	w.Schedule(2, base.Add(20*time.Millisecond))
	at, ok := w.Next()
	if !ok {
		t.Fatal("no next deadline")
	}
	if want := base.Add(20 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("Next = %v, want %v", at.Sub(base), want.Sub(base))
	}
	w.Cancel(2)
	at, _ = w.Next()
	if want := base.Add(37 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("Next after cancel = %v, want %v", at.Sub(base), want.Sub(base))
	}
}

func TestFiredAtCarriesRequestedDeadline(t *testing.T) {
	// The loop-lag histogram measures actual-fire minus At; At must be
	// the requested deadline, not a tick-rounded one.
	w := NewWheel(time.Millisecond, 32, base)
	want := base.Add(10*time.Millisecond + 137*time.Microsecond)
	w.Schedule(1, want)
	fired := w.Advance(base.Add(50 * time.Millisecond))
	if len(fired) != 1 || !fired[0].At.Equal(want) {
		t.Fatalf("Fired.At = %v, want %v", fired[0].At, want)
	}
}

// TestWheelZeroAlloc pins the steady state of the wheel: entries come
// from the free list — after a fire, a cancel or a reschedule — and
// AdvanceAppend fills the caller's slice, so a shard loop that arms,
// moves, cancels and fires deadlines allocates nothing.
func TestWheelZeroAlloc(t *testing.T) {
	w := NewWheel(time.Millisecond, 64, base)
	now := base
	fired := make([]Fired, 0, 16)
	round := func() {
		for id := uint64(0); id < 8; id++ {
			w.Schedule(id, now.Add(time.Duration(1+id%3)*time.Millisecond))
		}
		w.Schedule(3, now.Add(2*time.Millisecond)) // moved
		w.Cancel(5)
		w.Schedule(5, now.Add(time.Millisecond)) // and armed again
		w.Cancel(6)
		now = now.Add(5 * time.Millisecond)
		fired = w.AdvanceAppend(fired[:0], now)
		if len(fired) != 7 {
			t.Fatalf("fired %d entries, want 7", len(fired))
		}
	}
	round() // grows the slot lists, the free list and the due list
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("a round of Schedule, Cancel and AdvanceAppend costs %.1f allocs, want 0", allocs)
	}
	if w.Len() != 0 {
		t.Errorf("%d entries left scheduled", w.Len())
	}

	// Reschedule churn: 32 entries share one deadline, and every round
	// moves all of them one tick on before the wheel advances — a slot the
	// wheel has not used yet takes the whole load each round, as armed
	// deadlines pile into the next tick on a busy shard. Counted exactly:
	// one growth of a slot in the round is already too many.
	const crowd = 32
	for id := uint64(100); id < 100+crowd; id++ {
		w.Schedule(id, now.Add(2*time.Millisecond))
	}
	churn := func() {
		for id := uint64(100); id < 100+crowd; id++ {
			w.Schedule(id, now.Add(3*time.Millisecond))
		}
		now = now.Add(time.Millisecond)
		if fired = w.AdvanceAppend(fired[:0], now); len(fired) != 0 {
			t.Fatalf("fired %d rescheduled entries early", len(fired))
		}
	}
	churn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 400; i++ {
		churn()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("400 rounds of rescheduling %d entries into fresh slots cost %d allocs, want 0", crowd, n)
	}
	if w.Len() != crowd {
		t.Errorf("%d entries scheduled, want %d", w.Len(), crowd)
	}
}
