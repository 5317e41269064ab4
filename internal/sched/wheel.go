// Package sched provides the hashed timer wheel backing the sharded
// event-loop runtime (DESIGN.md §11). One wheel replaces the per-node
// time.Ticker/time.Timer sets of the old runtime: every deadline — a
// periodic heartbeat, a gossip round, a maintenance tick, a repair
// backoff — is an upsertable entry keyed by an opaque uint64 id, and one
// goroutine per shard drains everything that is due.
//
// The wheel is the classic hashed construction: W slots of tick duration
// T cover one rotation of W·T; an entry with deadline d lives in slot
// (d/T) mod W and fires on the rotation whose tick index reaches d/T.
// Schedule is an upsert (rescheduling moves the entry), Advance pops
// everything due in deterministic order, and Next bounds how long the
// owning loop may sleep.
//
// Determinism contract: for the same sequence of Schedule/Cancel/Advance
// calls, fired entries come back in the same order — ordered by deadline
// tick, ties broken by schedule insertion order. The wheel itself never
// reads the clock; callers pass time in, so tests can drive it logically.
//
// Steady state allocates nothing: entries are recycled through a free
// list (a fired or cancelled entry is the next one handed out), a slot is
// a list threaded through its entries — moving an entry between slots
// touches no slot storage, however the load shifts — the due list lives
// on the wheel, and AdvanceAppend fills a slice its caller owns.
package sched

import (
	"cmp"
	"slices"
	"time"
)

// Fired is one due entry popped by Advance: the id it was scheduled
// under and the deadline it was scheduled for (the owning loop derives
// its lag — scheduled-fire vs actual-fire skew — from At).
type Fired struct {
	ID uint64
	At time.Time
}

// entry is one scheduled deadline, linked into its slot's list.
type entry struct {
	id         uint64
	at         int64  // requested deadline, ns
	tk         int64  // fire tick index (at/tick, clamped to the future at insert)
	seq        uint64 // insertion order, the deterministic tiebreak
	prev, next *entry
}

// Wheel is a hashed timer wheel. It is not safe for concurrent use: the
// shard loop that advances it is also the only goroutine that schedules
// and cancels its entries.
type Wheel struct {
	tick    int64    // slot granularity, ns
	slots   []*entry // each slot's list, in no particular order
	entries map[uint64]*entry
	cur     int64 // last fully processed tick index
	seq     uint64
	free    []*entry // recycled entries, handed out before allocating
	due     []*entry // AdvanceAppend's working list, reused across calls
}

// NewWheel builds a wheel with the given slot granularity and slot
// count, positioned at `now`. Entries scheduled in the past fire on the
// next Advance.
func NewWheel(tick time.Duration, slots int, now time.Time) *Wheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	if slots <= 0 {
		slots = 512
	}
	return &Wheel{
		tick:    int64(tick),
		slots:   make([]*entry, slots),
		entries: make(map[uint64]*entry),
		cur:     now.UnixNano() / int64(tick),
	}
}

// Len returns the number of scheduled entries (the per-shard gauge).
func (w *Wheel) Len() int { return len(w.entries) }

// Schedule upserts entry id to fire at `at`. An existing entry moves to
// the new deadline; insertion order (the fire-order tiebreak) is
// assigned at first insert and refreshed on every reschedule.
func (w *Wheel) Schedule(id uint64, at time.Time) {
	ns := at.UnixNano()
	e := w.entries[id]
	if e != nil {
		w.unlink(e) // a rescheduled entry moves in place
	} else {
		if k := len(w.free); k > 0 {
			e, w.free = w.free[k-1], w.free[:k-1]
		} else {
			e = new(entry)
		}
		w.entries[id] = e
	}
	tk := ns / w.tick
	if tk <= w.cur {
		tk = w.cur + 1 // already due: fire on the next advance
	}
	w.seq++
	*e = entry{id: id, at: ns, tk: tk, seq: w.seq}
	s := int(tk % int64(len(w.slots)))
	if e.next = w.slots[s]; e.next != nil {
		e.next.prev = e
	}
	w.slots[s] = e
}

// Cancel removes entry id (no-op when absent).
func (w *Wheel) Cancel(id uint64) {
	if e := w.entries[id]; e != nil {
		w.unlink(e)
		delete(w.entries, id)
		w.free = append(w.free, e)
	}
}

// unlink removes e from its slot list.
func (w *Wheel) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		w.slots[int(e.tk%int64(len(w.slots)))] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// Advance pops every entry due at `now` into a fresh slice; see
// AdvanceAppend, which the shard loop calls with a slice it reuses.
func (w *Wheel) Advance(now time.Time) []Fired { return w.AdvanceAppend(nil, now) }

// AdvanceAppend pops every entry due at `now` (deadline tick ≤ now's
// tick) and appends it to dst, in deterministic order: by fire tick, then
// by insertion order. The caller re-schedules periodic entries itself.
func (w *Wheel) AdvanceAppend(dst []Fired, now time.Time) []Fired {
	target := now.UnixNano() / w.tick
	if target <= w.cur || len(w.entries) == 0 {
		if target > w.cur {
			w.cur = target
		}
		return dst
	}
	W := int64(len(w.slots))
	span := target - w.cur
	if span > W {
		span = W // a full rotation visits every slot once
	}
	due := w.due[:0]
	for i := int64(1); i <= span; i++ {
		for e := w.slots[int((w.cur+i)%W)]; e != nil; {
			next := e.next
			if e.tk <= target {
				w.unlink(e)
				due = append(due, e)
				delete(w.entries, e.id)
			}
			e = next
		}
	}
	w.cur = target
	if len(due) > 1 {
		slices.SortFunc(due, func(a, b *entry) int {
			if a.tk != b.tk {
				return cmp.Compare(a.tk, b.tk)
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	dst = slices.Grow(dst, len(due))
	for _, e := range due {
		dst = append(dst, Fired{ID: e.id, At: time.Unix(0, e.at)})
	}
	w.free = append(w.free, due...)
	w.due = due[:0]
	return dst
}

// Next returns the earliest fire time of any scheduled entry, or false
// when the wheel is empty. The owning loop sleeps until this deadline.
// The scan walks at most one rotation of slots and
// stops as soon as no later slot of the rotation can beat the best
// candidate found.
func (w *Wheel) Next() (time.Time, bool) {
	if len(w.entries) == 0 {
		return time.Time{}, false
	}
	W := int64(len(w.slots))
	best := int64(-1)
	for i := int64(1); i <= W; i++ {
		t := w.cur + i
		for e := w.slots[int(t%W)]; e != nil; e = e.next {
			if best < 0 || e.tk < best {
				best = e.tk
			}
		}
		if best >= 0 && best <= t {
			// Every later slot of this rotation holds ticks > t ≥ best.
			break
		}
	}
	return time.Unix(0, best*w.tick), true
}
