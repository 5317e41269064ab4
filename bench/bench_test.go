package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"selectps/internal/transport"
	"selectps/internal/wire"
)

// tiny shrinks a workload and its timeline so that a whole run, both
// window halves traced and untraced, fits in about a second.
func tiny(w workload) (workload, timing) {
	w.n = map[string]int{"feed-tcp": 20, "relay-mem": 40, "topic-mem": 30, "inbox-churn-tcp": 20}[w.name]
	w.rate = 50
	if w.topics > 0 {
		w.topics = 8
	}
	return w, timing{
		settle: 100 * time.Millisecond, idle: 100 * time.Millisecond, warm: 300 * time.Millisecond,
		measure: 600 * time.Millisecond, rung: 100 * time.Millisecond, rungs: 2,
		deadline: 100 * time.Millisecond, quiet: 200 * time.Millisecond,
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	for _, w := range workloads {
		w, tm := tiny(w)
		a, _ := makeInputs(w, 7, tm, false)
		b, _ := makeInputs(w, 7, tm, false)
		c, _ := makeInputs(w, 8, tm, false)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different schedule digests %s and %s", w.name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 produced the same schedule", w.name)
		}
		if !reflect.DeepEqual(a.pubs, b.pubs) || !reflect.DeepEqual(a.churn, b.churn) || !reflect.DeepEqual(a.peerTopics, b.peerTopics) {
			t.Errorf("%s: same seed, different publishers, topics or churn events", w.name)
		}
		if w.churn && len(a.churn) == 0 {
			t.Errorf("%s: no churn events planned", w.name)
		}
	}
}

func TestFrameLenAndFrameHeadFollowTheCodec(t *testing.T) {
	relayed := publishMsg(payloadSize)
	relayed.TTL = 29
	msgs := []*wire.Message{
		publishMsg(payloadSize),
		relayed,
		ackBatchMsg(),
		{Kind: wire.KindPing, From: 1, To: 2, Seq: 3},
		{
			Kind: wire.KindTopicPub, From: 4, To: 5, Seq: 99, Publisher: 17, Payload: []byte("body"), Topic: []byte("#t"),
			Neighborhood: []int32{1, 2, 3}, RoutingTable: []int32{7, 8}, Bitmap: []uint64{5},
			Succs: []int32{1}, SuccPos: []uint64{2}, Preds: []int32{3, 4}, PredPos: []uint64{5, 6},
		},
	}
	for _, m := range msgs {
		frame := wire.Marshal(m)
		if got := frameLen(m); got != len(frame) {
			t.Errorf("%v: frameLen %d, wire.Marshal %d bytes", m.Kind, got, len(frame))
		}
		want := frameHead{kind: m.Kind, origin: m.From, dest: m.To}
		if carriesPub(m.Kind) {
			want.pub, want.ttl = pubID(m.Publisher, m.Seq), m.TTL
		}
		if got := readFrameHead(frame); got != want {
			t.Errorf("%v: readFrameHead = %+v, want %+v", m.Kind, got, want)
		}
	}
}

func readTraceLines(t *testing.T, path string) map[int]traceLine {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := make(map[int]traceLine)
	for _, raw := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var l traceLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		lines[l.ID] = l
	}
	return lines
}

// A relay does not re-stamp From, so Send sees the publisher's id on
// every hop. The written trace must still name the relay as the hop's
// sender, hang the relay's send off the send that brought it the copy,
// and start over at node.publish when the publisher retries.
func TestTraceResolvesRelayedHops(t *testing.T) {
	const publisher, relay, relay2, sub = 1, 4, 6, 9
	pub := pubID(publisher, 5)
	send := func(start int64, to int32, ttl uint8) span {
		return span{name: spanSend, kind: wire.KindPublish, from: publisher, origin: publisher, to: to, dest: sub, ttl: ttl, pub: pub, start: start, end: start + 5}
	}
	tr := newTracer(time.Now())
	tr.add(0, span{name: spanPhase, from: -1, to: -1, start: 0, end: 1000, label: "measure"})
	tr.add(0, span{name: spanPublish, from: publisher, to: -1, dest: -1, pub: pub, start: 10, end: 30})
	tr.add(0, send(20, relay, 32))  // id 3: publisher → relay
	tr.add(0, send(40, relay2, 31)) // id 4: relay → relay2, From still says publisher
	tr.add(0, send(60, sub, 30))    // id 5: relay2 → subscriber
	tr.add(0, span{name: spanDeliver, from: publisher, to: sub, dest: sub, pub: pub, start: 70, end: 70})
	tr.add(0, send(500, sub, 32)) // id 7: the publisher's retry, now with a direct link
	path := t.TempDir() + "/trace.jsonl"
	if _, err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	lines := readTraceLines(t, path)
	for id, want := range map[int]struct {
		parent int
		from   int32
	}{
		3: {2, publisher}, 4: {3, relay}, 5: {4, relay2}, 6: {5, publisher}, 7: {2, publisher},
	} {
		if l := lines[id]; l.Parent != want.parent || l.From != want.from {
			t.Errorf("span %d (%s): parent %d from %d, want parent %d from %d", id, l.Name, l.Parent, l.From, want.parent, want.from)
		}
	}
	if o := lines[4].Origin; o == nil || *o != publisher {
		t.Errorf("relayed send does not record the frame's origin: %+v", lines[4])
	}
	st, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.015, 0.015}; !reflect.DeepEqual(st.hopGapsUS, want) {
		t.Errorf("hop gaps %v µs, want %v (one per relay)", st.hopGapsUS, want)
	}
}

// The tracing wrapper must not change which protocol the cluster runs:
// AckBatchAuto and the bulk shard ingress key on these capabilities.
func TestTracingWrapperKeepsCapabilities(t *testing.T) {
	tr := newTracer(time.Now())
	tcp, err := transport.NewTCP(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	wrapped := wrapTransport(tcp, tr)
	if _, ok := wrapped.(transport.FrameSender); !ok {
		t.Error("wrapped TCP lost FrameSender: AckBatchAuto would turn batching off")
	}
	if _, ok := wrapped.(transport.BatchInboxMux); !ok {
		t.Error("wrapped TCP lost BatchInboxMux")
	}
	sw := wrapTransport(transport.NewSwitchboard(2, 16), tr)
	if _, ok := sw.(transport.FrameSender); ok {
		t.Error("wrapped switchboard gained FrameSender it does not have")
	}
	if mux, ok := sw.(transport.BatchInboxMux); !ok || !mux.BindInboxBatch(0, make(chan *[]transport.Envelope, 1)) {
		t.Error("wrapped switchboard does not forward BindInboxBatch")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// One traced tiny-scale run of each workload computes every declared
// metric, each exactly once (result.set panics on a second emission),
// with well-formed names, and its outputs verify.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w, tm := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(runConfig{
				w: w, seed: 3, tm: tm, traced: true, start: time.Now(), outDir: t.TempDir(), keep: true, micro: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Errorf("run not correct: %v", res.notes)
			}
			if res.attempted < 1 {
				t.Errorf("attempted = %d", res.attempted)
			}
			want := make(map[string]bool)
			for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if want[m.name] {
					t.Errorf("metric %s declared twice", m.name)
				}
				want[m.name] = true
				if !metricName.MatchString(m.name) {
					t.Errorf("metric name %q is malformed", m.name)
				}
				if _, ok := res.values[m.name]; !ok {
					t.Errorf("declared metric %s was not emitted", m.name)
				}
			}
			for name := range res.values {
				if !want[name] {
					t.Errorf("emitted metric %s is not declared", name)
				}
			}
			trace, err := os.ReadFile(res.traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if w.tcp && !bytes.Contains(trace, []byte(`"kind":"ack-batch"`)) {
				t.Error("no KindAckBatch frame under the tracing wrapper: the traced cluster is not running the batched TCP path")
			}
			for _, name := range []string{"bench.phase", "node.publish", "transport.send", "app.deliver"} {
				if !bytes.Contains(trace, []byte(`"name":"`+name+`"`)) {
					t.Errorf("trace has no %s span", name)
				}
			}
			if w.name == "relay-mem" {
				checkRelayedSends(t, res.traceFile)
			}

			var out bytes.Buffer
			report(&out, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("result line has keys %v", reflect.ValueOf(last).MapKeys())
			}
			var metrics map[string]measured
			if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(perLayer) {
				t.Errorf("traced result line carries %d metrics, want the %d per-layer ones", len(metrics), len(perLayer))
			}
		})
	}
}

// checkRelayedSends holds the trace of a live multi-hop cluster to what
// node.hop_gap_p50_us is computed from: a relay's send hangs off the send
// that brought it the copy, and names the relay, not the publisher, as
// its sender.
func checkRelayedSends(t *testing.T, path string) {
	lines := readTraceLines(t, path)
	relayed, byOthers := 0, 0
	for _, l := range lines {
		p := lines[l.Parent]
		if l.Kind != "publish" || p.Name != "transport.send" {
			continue
		}
		relayed++
		if p.Kind != "publish" || p.Pub != l.Pub || p.Dest != l.Dest {
			t.Errorf("relayed send %d hangs off %d, a send of another copy: %+v under %+v", l.ID, p.ID, l, p)
		}
		if l.From != p.To || p.To == p.Dest {
			t.Errorf("relayed send %d: from %d, inbound send went %d→%d (dest %d)", l.ID, l.From, p.From, p.To, p.Dest)
		}
		if l.From != int32(l.Pub>>32) { // else a routing loop handed the copy back to its publisher
			byOthers++
		}
		if l.Start < p.Start {
			t.Errorf("relayed send %d starts before the send that caused it", l.ID)
		}
	}
	if byOthers == 0 {
		t.Errorf("multi-hop cluster, %d relayed sends in the trace, none by a peer other than the publisher", relayed)
	}
}

// A slice's cost is what the meters gained over what was delivered
// inside it; warm-up deliveries and the drain belong to no slice, and the
// rest of a window that is no whole number of slices is dropped.
func TestSliceCosts(t *testing.T) {
	const sec = int64(time.Second)
	r := &runner{in: &inputs{phases: []phase{{kind: phaseWarm}, {kind: phaseMeasure}}}}
	r.col = &collector{byPhase: [][]record{
		{{at: sec / 2}},
		{{at: 0}, {at: sec - 1}, {at: sec}, {at: 2*sec + 1}, {at: 5 * sec}},
	}}
	r.d.ticks = []tick{
		{at: 0},
		{at: sec, cpu: 10 * time.Microsecond, frames: 4, allocs: 6},
		{at: 2 * sec, cpu: 13 * time.Microsecond, frames: 5, allocs: 8},
		{at: 2*sec + sec/4, cpu: time.Second, frames: 1000, allocs: 1000},
	}
	cpu, frames, allocs := r.sliceCosts()
	if !reflect.DeepEqual(cpu, []float64{5, 3}) || !reflect.DeepEqual(frames, []float64{2, 1}) || !reflect.DeepEqual(allocs, []float64{3, 2}) {
		t.Errorf("slice costs: cpu %v frames %v allocs %v", cpu, frames, allocs)
	}
}

// -check-repeat recognises an invalid run by this line of the child's
// report; the result line stays the last one, with its four keys.
func TestInvalidRunIsMarkedAboveTheResultLine(t *testing.T) {
	res := &result{workload: "feed-tcp", values: make(map[string]float64), correct: true, attempted: 1, invalid: "generator ran late"}
	for _, m := range endToEnd {
		res.set(m.name, 1)
	}
	var out bytes.Buffer
	report(&out, res)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if n := len(lines); n < 2 || !strings.HasPrefix(lines[n-2], invalidMark) || !strings.HasPrefix(lines[n-1], `{"correct":true,`) {
		t.Errorf("report ends with:\n%s", strings.Join(lines[max(0, len(lines)-2):], "\n"))
	}
}

// BENCHMARK.json is what the driver reads; spec.go is what the program
// prints. The file is generated from the program and must not drift.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	describe(&want)
	if !bytes.Equal(file, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the program's tables: regenerate it with `go run ./bench -describe > BENCHMARK.json`")
	}
	if m := endToEnd[0]; m.name != "setup_s" || m.unit != "s" || m.better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; it is %+v", m)
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside the contract", len(workloads), len(endToEnd), len(perLayer))
	}
}
