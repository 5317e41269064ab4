package faultnet

import (
	"testing"
	"time"

	"selectps/internal/churn"
	"selectps/internal/obs"
	"selectps/internal/transport"
	"selectps/internal/wire"
)

func chaosConfig() Config {
	m := churn.DefaultModel()
	return Config{
		DropProb: 0.1, DupProb: 0.05, ReorderProb: 0.05,
		Tick: 10 * time.Millisecond, Steps: 200,
		Churn:          &m,
		PartitionEvery: 40, PartitionFor: 10, PartitionFrac: 0.25,
	}
}

func TestScheduleDeterministic(t *testing.T) {
	cfg := chaosConfig()
	a := BuildSchedule(100, cfg, 42)
	b := BuildSchedule(100, cfg, 42)
	if a.Trace() != b.Trace() {
		t.Fatal("same seed produced different fault schedules")
	}
	if len(a.Ev) == 0 {
		t.Fatal("chaos schedule produced no events")
	}
	c := BuildSchedule(100, cfg, 43)
	if a.Trace() == c.Trace() {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestScheduleHasCrashesAndPartitions(t *testing.T) {
	s := BuildSchedule(100, chaosConfig(), 7)
	var crashes, restarts, parts, heals int
	for _, e := range s.Ev {
		switch e.Kind {
		case EvCrash:
			crashes++
		case EvRestart:
			restarts++
		case EvPartitionStart:
			parts++
			if len(e.Side) == 0 || len(e.Side) >= 100 {
				t.Fatalf("partition side size %d", len(e.Side))
			}
		case EvPartitionHeal:
			heals++
		}
	}
	if crashes == 0 || parts == 0 {
		t.Fatalf("schedule missing fault kinds: %d crashes, %d partitions", crashes, parts)
	}
	if parts != heals {
		t.Fatalf("%d partitions but %d heals", parts, heals)
	}
	if restarts > crashes {
		t.Fatalf("%d restarts exceed %d crashes", restarts, crashes)
	}
}

func TestCompiledWindows(t *testing.T) {
	s := &Schedule{N: 4, Steps: 100, Ev: []Event{
		{Step: 10, Kind: EvCrash, Peer: 2, Part: -1},
		{Step: 20, Kind: EvRestart, Peer: 2, Part: -1},
		{Step: 30, Kind: EvCrash, Peer: 3, Part: -1}, // never restarts
		{Step: 15, Kind: EvPartitionStart, Part: 0, Peer: -1, Side: []int32{0}},
		{Step: 25, Kind: EvPartitionHeal, Part: 0, Peer: -1},
	}}
	c := s.compile()
	for step, want := range map[int]bool{9: false, 10: true, 19: true, 20: false} {
		if got := c.crashedAt(step, 2); got != want {
			t.Fatalf("crashedAt(%d, 2) = %v, want %v", step, got, want)
		}
	}
	if !c.crashedAt(99, 3) {
		t.Fatal("unclosed crash window should last to the horizon")
	}
	if c.crashedAt(100, 3) {
		t.Fatal("crash window extends past the horizon")
	}
	if !c.partitionedAt(15, 0, 1) || c.partitionedAt(15, 1, 2) {
		t.Fatal("partition membership wrong")
	}
	if c.partitionedAt(25, 0, 1) {
		t.Fatal("partition not healed")
	}
}

// drain reads every message currently deliverable from ch.
func drain(ch <-chan transport.Envelope) []*wire.Message {
	var out []*wire.Message
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, e.Msg)
		case <-time.After(50 * time.Millisecond):
			return out
		}
	}
}

// TestPerLinkDecisionsDeterministic feeds the same single-threaded
// message sequence through two identically seeded fault nets and checks
// the surviving messages match exactly — the per-link decision-stream
// half of the determinism contract.
func TestPerLinkDecisionsDeterministic(t *testing.T) {
	run := func(seed int64) []uint32 {
		inner := transport.NewSwitchboard(2, 4096)
		f := Wrap(inner, 2, Config{DropProb: 0.3, DupProb: 0.1}, seed)
		for i := uint32(0); i < 500; i++ {
			_ = f.Send(1, &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: i})
		}
		got := drain(f.Inbox(1))
		f.Close()
		seqs := make([]uint32, len(got))
		for i, m := range got {
			seqs[i] = m.Seq
		}
		return seqs
	}
	a, b := run(11), run(11)
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: seq %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) == 500 {
		t.Fatal("no faults injected at DropProb=0.3")
	}
	c := run(12)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault decisions")
		}
	}
}

func TestDropRateApproximatesConfig(t *testing.T) {
	inner := transport.NewSwitchboard(2, 8192)
	met := obs.New()
	f := Wrap(inner, 2, Config{DropProb: 0.2}, 3)
	f.Obs = met
	const total = 5000
	for i := uint32(0); i < total; i++ {
		_ = f.Send(1, &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: i})
	}
	drops := met.Get(obs.CFaultDrop)
	if frac := float64(drops) / total; frac < 0.15 || frac > 0.25 {
		t.Fatalf("drop fraction %.3f far from configured 0.2", frac)
	}
	f.Close()
}

func TestDuplicationDeliversTwice(t *testing.T) {
	inner := transport.NewSwitchboard(2, 8192)
	f := Wrap(inner, 2, Config{DupProb: 1.0}, 5)
	for i := uint32(0); i < 10; i++ {
		_ = f.Send(1, &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: i})
	}
	got := drain(f.Inbox(1))
	if len(got) != 20 {
		t.Fatalf("DupProb=1 delivered %d messages for 10 sends", len(got))
	}
	f.Close()
}

func TestKindFilterSparesOtherKinds(t *testing.T) {
	inner := transport.NewSwitchboard(2, 8192)
	f := Wrap(inner, 2, Config{DropProb: 1.0, Kinds: []wire.Kind{wire.KindPublish}}, 6)
	_ = f.Send(1, &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: 1})
	_ = f.Send(1, &wire.Message{Kind: wire.KindPing, From: 0, To: 1, Seq: 2})
	got := drain(f.Inbox(1))
	if len(got) != 1 || got[0].Kind != wire.KindPing {
		t.Fatalf("kind filter failed: got %d messages", len(got))
	}
	f.Close()
}

func TestCrashWindowDropsBothDirections(t *testing.T) {
	inner := transport.NewSwitchboard(3, 64)
	m := churn.DefaultModel()
	f := Wrap(inner, 3, Config{Tick: time.Millisecond, Steps: 100, Churn: &m}, 8)
	met := obs.New()
	f.Obs = met
	// Find a crash window in the schedule and pin the clock inside it.
	var peer int32 = -1
	var step int
	for _, e := range f.Schedule().Ev {
		if e.Kind == EvCrash {
			peer, step = e.Peer, e.Step
			break
		}
	}
	if peer < 0 {
		t.Skip("no crash in schedule (rare seed)")
	}
	f.stepNow = func() int { return step }
	other := (peer + 1) % 3
	_ = f.Send(peer, &wire.Message{Kind: wire.KindPublish, From: other, To: peer, Seq: 1})
	_ = f.Send(other, &wire.Message{Kind: wire.KindPublish, From: peer, To: other, Seq: 2})
	if got := drain(f.Inbox(peer)); len(got) != 0 {
		t.Fatal("message delivered to crashed peer")
	}
	if got := drain(f.Inbox(other)); len(got) != 0 {
		t.Fatal("message delivered from crashed peer")
	}
	if met.Get(obs.CFaultCrashDrop) != 2 {
		t.Fatalf("crash drops = %d, want 2", met.Get(obs.CFaultCrashDrop))
	}
	// Outside every crash window of this peer, traffic flows.
	clean := -1
	for s := 0; s < 100; s++ {
		if !f.CrashedAt(s, peer) && !f.CrashedAt(s, other) && !f.PartitionedAt(s, peer, other) {
			clean = s
			break
		}
	}
	if clean >= 0 {
		f.stepNow = func() int { return clean }
		_ = f.Send(peer, &wire.Message{Kind: wire.KindPublish, From: other, To: peer, Seq: 3})
		if got := drain(f.Inbox(peer)); len(got) != 1 {
			t.Fatal("message not delivered outside crash window")
		}
	}
	f.Close()
}

func TestPartitionWindowCutsCrossTraffic(t *testing.T) {
	inner := transport.NewSwitchboard(4, 64)
	f := Wrap(inner, 4, Config{
		Tick: time.Millisecond, Steps: 100,
		PartitionEvery: 10, PartitionFor: 5, PartitionFrac: 0.5,
	}, 9)
	var ev Event
	for _, e := range f.Schedule().Ev {
		if e.Kind == EvPartitionStart {
			ev = e
			break
		}
	}
	if ev.Kind != EvPartitionStart {
		t.Fatal("no partition scheduled")
	}
	inA := map[int32]bool{}
	for _, p := range ev.Side {
		inA[p] = true
	}
	var a, b int32 = -1, -1
	for p := int32(0); p < 4; p++ {
		if inA[p] && a < 0 {
			a = p
		}
		if !inA[p] && b < 0 {
			b = p
		}
	}
	f.stepNow = func() int { return ev.Step }
	_ = f.Send(b, &wire.Message{Kind: wire.KindPublish, From: a, To: b, Seq: 1})
	if got := drain(f.Inbox(b)); len(got) != 0 {
		t.Fatal("message crossed an active partition")
	}
	// Same-side traffic is unaffected.
	var a2 int32 = -1
	for _, p := range ev.Side {
		if p != a {
			a2 = p
			break
		}
	}
	if a2 >= 0 {
		_ = f.Send(a2, &wire.Message{Kind: wire.KindPublish, From: a, To: a2, Seq: 2})
		if got := drain(f.Inbox(a2)); len(got) != 1 {
			t.Fatal("same-side message dropped during partition")
		}
	}
	f.Close()
}

func TestDelayedDeliveryArrives(t *testing.T) {
	inner := transport.NewSwitchboard(2, 64)
	f := Wrap(inner, 2, Config{DelayMin: 5 * time.Millisecond, DelayMax: 15 * time.Millisecond}, 10)
	start := time.Now()
	_ = f.Send(1, &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: 1})
	select {
	case <-f.Inbox(1):
		if time.Since(start) < 4*time.Millisecond {
			t.Fatal("delay not applied")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed message never arrived")
	}
	f.Close()
}

func TestCloseWaitsForInFlight(t *testing.T) {
	inner := transport.NewSwitchboard(2, 64)
	f := Wrap(inner, 2, Config{DelayMin: 10 * time.Millisecond, DelayMax: 20 * time.Millisecond}, 11)
	for i := uint32(0); i < 5; i++ {
		_ = f.Send(1, &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: i})
	}
	f.Close() // must not panic or race with timers
	f.Close() // idempotent
}

func TestComposesOverTCP(t *testing.T) {
	inner, err := transport.NewTCP(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := Wrap(inner, 2, Config{DropProb: 0.5}, 12)
	defer f.Close()
	var delivered int
	for i := uint32(0); i < 100; i++ {
		_ = f.Send(1, &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: i})
	}
	delivered = len(drain(f.Inbox(1)))
	if delivered == 0 || delivered == 100 {
		t.Fatalf("TCP+faultnet delivered %d/100, want partial delivery", delivered)
	}
}

// bareTransport implements transport.Transport and nothing else.
type bareTransport struct{ transport.Transport }

// TestReportsInnerBatchCapability: the receive side is pass-through, so
// the wrapper takes bulk-ingress bindings exactly when its inner
// transport does — chaos arms run the ingress path production runs.
func TestReportsInnerBatchCapability(t *testing.T) {
	tcp, err := transport.NewTCP(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]transport.Transport{
		"switchboard": transport.NewSwitchboard(2, 64),
		"tcp":         tcp,
	} {
		f := Wrap(inner, 2, Config{}, 13)
		ch := make(chan *[]transport.Envelope, 4)
		if !f.BindInboxBatch(1, ch) {
			t.Fatalf("%s: wrapper refused BindInboxBatch its inner transport accepts", name)
		}
		_ = f.Send(1, &wire.Message{Kind: wire.KindPublish, From: 0, To: 1, Seq: 7})
		select {
		case nb := <-ch:
			if len(*nb) != 1 || (*nb)[0].Msg.Seq != 7 || (*nb)[0].To != 1 {
				t.Fatalf("%s: batch = %+v, want one envelope seq 7 to 1", name, *nb)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: nothing arrived on the bound batch channel", name)
		}
		f.Close()
	}
	f := Wrap(bareTransport{transport.NewSwitchboard(2, 64)}, 2, Config{}, 13)
	defer f.Close()
	if f.BindInboxBatch(1, make(chan *[]transport.Envelope, 1)) {
		t.Fatal("wrapper advertised a batch capability its inner transport lacks")
	}
}
