package selectcore

import (
	"testing"
	"time"
)

// step is one input to the cadence rule: a closed round, or an event.
type step struct {
	event bool
	ev    CadenceEvent
}

func rounds(n int) []step { return make([]step, n) }

func event(ev CadenceEvent) []step { return []step{{event: true, ev: ev}} }

func seq(parts ...[]step) []step {
	var out []step
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestCadenceRuleTable pins the stability rule as a pure function of its
// inputs: the level rises one step per `need` consecutive quiet rounds,
// stops at the cap, and any event — every cause the runtime reports —
// returns it to the base interval and forfeits the streak, including the
// round the event landed in.
func TestCadenceRuleTable(t *testing.T) {
	const hb, gs = HeartbeatCalmRounds, GossipCalmRounds
	cases := []struct {
		name  string
		need  int
		steps []step
		want  int
	}{
		{"fresh node is at base", hb, nil, 0},
		{"one quiet sweep is not enough", hb, rounds(1), 0},
		{"two quiet sweeps raise one level", hb, rounds(2), 1},
		{"three quiet sweeps are still one level", hb, rounds(3), 1},
		{"each further level costs two more", hb, rounds(4), 2},
		{"cap after six", hb, rounds(6), CadenceMaxLevel},
		{"cap holds", hb, rounds(40), CadenceMaxLevel},
		{"event at the cap drops to base", hb, seq(rounds(6), event(CadenceMiss)), 0},
		{"round the event landed in does not count", hb, seq(rounds(6), event(CadenceRing), rounds(2)), 0},
		{"two quiet rounds after it do", hb, seq(rounds(6), event(CadenceRing), rounds(3)), 1},
		{"event between two quiet sweeps restarts the streak", hb, seq(rounds(1), event(CadenceLink), rounds(2)), 0},
		{"two events in one round cost one round", hb, seq(event(CadenceMiss), event(CadenceDetector), rounds(3)), 1},
		{"gossip: one full quiet sampler pass raises a level", gs, rounds(1), 1},
		{"gossip: cap after three passes", gs, rounds(3), CadenceMaxLevel},
	}
	for _, tc := range cases {
		var c Cadence
		for _, s := range tc.steps {
			if s.event {
				c = c.Event()
			} else {
				c = c.Round(tc.need)
			}
		}
		if got := c.Level(); got != tc.want {
			t.Errorf("%s: level %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCadenceEveryEventResets drives each listed cause against a node at
// the cap: every one of them drops the timer to base, and the interval is
// base<<level throughout.
func TestCadenceEveryEventResets(t *testing.T) {
	const base = 200 * time.Millisecond
	var capped Cadence
	for i := 0; i < 2*CadenceMaxLevel; i++ {
		capped = capped.Round(HeartbeatCalmRounds)
	}
	if got := capped.Interval(base); got != base<<CadenceMaxLevel {
		t.Fatalf("interval at the cap = %v, want %v", got, base<<CadenceMaxLevel)
	}
	for ev := CadenceEvent(0); ev < NumCadenceEvents; ev++ {
		if got := capped.Event(); got.Level() != 0 || got.Interval(base) != base {
			t.Errorf("event %d left level %d, interval %v", ev, got.Level(), got.Interval(base))
		}
	}
}
