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
// inputs. The heartbeat level rises one step per HeartbeatCalmRounds
// consecutive quiet sweeps and stops at the cap; gossip has two speeds,
// the cap after a pass no event landed in and the base interval after
// one that an event did. Any event — every cause the runtime reports —
// returns the timer to the base interval and forfeits the streak,
// including the round the event landed in.
func TestCadenceRuleTable(t *testing.T) {
	const hb, gs = false, true
	cases := []struct {
		name   string
		gossip bool
		steps  []step
		want   int
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
		{"gossip: a fresh node is at base", gs, nil, 0},
		{"gossip: one quiet sampler pass reaches the cap", gs, rounds(1), CadenceMaxLevel},
		{"gossip: the cap holds", gs, rounds(40), CadenceMaxLevel},
		{"gossip: a table change at the cap drops to base", gs, seq(rounds(1), event(CadenceLink)), 0},
		{"gossip: the pass the change landed in stays at base", gs, seq(rounds(1), event(CadenceRing), rounds(1)), 0},
		{"gossip: the next quiet pass is back at the cap", gs, seq(rounds(1), event(CadenceRing), rounds(2)), CadenceMaxLevel},
		{"gossip: changes in consecutive passes keep it at base", gs, seq(event(CadenceLink), rounds(1), event(CadenceLink), rounds(1)), 0},
	}
	for _, tc := range cases {
		var c Cadence
		for _, s := range tc.steps {
			switch {
			case s.event:
				c = c.Event()
			case tc.gossip:
				c = c.Pass()
			default:
				c = c.Round()
			}
		}
		if got := c.Level(); got != tc.want {
			t.Errorf("%s: level %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCadenceTableEvents pins which events wake gossip: only the two
// that change the node's own routing table. The others reset the
// heartbeat alone.
func TestCadenceTableEvents(t *testing.T) {
	want := map[CadenceEvent]bool{CadenceLink: true, CadenceRing: true}
	for ev := CadenceEvent(0); ev < NumCadenceEvents; ev++ {
		if got := ev.TableChanged(); got != want[ev] {
			t.Errorf("event %d: TableChanged = %v, want %v", ev, got, want[ev])
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
		capped = capped.Round()
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
