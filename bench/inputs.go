package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"selectps/internal/datasets"
	"selectps/internal/socialgraph"
)

// phaseKind says how a phase's publications are scored.
type phaseKind uint8

const (
	phaseWarm    phaseKind = iota // load on, untimed
	phaseMeasure                  // the measured window (one or more segments)
	phaseRung                     // one ladder rung: overloads on purpose, counts toward sustained_notif_per_s only
)

// phase is one stretch of open-loop load at a fixed rate. Publication j
// of the phase is due at start + j/rate.
type phase struct {
	name   string
	kind   phaseKind
	rate   float64
	dur    time.Duration
	traced bool // traced run: spans are recorded while this phase runs
	first  int  // index of its first publication in inputs.pubs
	count  int
	owed   int // notifications its publications owe
}

// pubPlan is one planned publication.
type pubPlan struct {
	publisher int32
	topic     int32 // index into inputs.topicNames, -1 for the friend feed
	phase     int32
}

// churnEvent is one planned crash or rejoin, offset from the start of
// load (the first warm-up publication).
type churnEvent struct {
	at     time.Duration
	peer   int32
	rejoin bool
}

// inputs is everything the program under test is fed: a pure function
// of (workload, seed, durations). The program receives only these.
type inputs struct {
	w          workload
	g          *socialgraph.Graph
	phases     []phase
	pubs       []pubPlan
	topicNames []string
	subsOf     [][]bool  // topic → subscriber set
	peerTopics [][]int32 // peer → subscribed topics, in subscribe order
	churn      []churnEvent
	payloads   []byte   // len(pubs) bodies of payloadSize bytes
	crcs       []uint32 // crc32 of each body
}

// timing holds the durations a run is built from; tests shrink them.
type timing struct {
	settle, idle, warm time.Duration
	measure            time.Duration
	rung               time.Duration
	rungs              int           // cap on the ladder's length
	deadline           time.Duration // a rung's notifications count as delivered within this long of their due time
	quiet              time.Duration // the drain ends when deliveries have stopped this long
}

func defaultTiming(w workload, seconds float64) timing {
	tm := timing{
		settle: settleTime, idle: idleTime, warm: warmTime,
		measure:  time.Duration(seconds * float64(time.Second)),
		rung:     ladderRung,
		rungs:    ladderLast - ladderFirst + 1,
		deadline: ladderDeadline, quiet: drainQuiet,
	}
	if w.churn {
		// Long enough that every rejoin inside the measured window ends a
		// full-length offline spell.
		tm.warm = time.Duration(offlineCount(w.n)) * churnEvery
	}
	return tm
}

// offlineCount is how many peers the churn schedule keeps offline.
func offlineCount(n int) int { return int(churnOffline * float64(n)) }

// planPhases lays out warm-up, the measured window and the ladder. A
// traced run splits the window into an untraced and a traced half, so
// that one process yields both sides of bench.trace_overhead_frac. Only
// the traced run climbs the ladder: sustained_notif_per_s is one of its
// rows, and an untraced run then holds nothing it does not report.
func planPhases(w workload, tm timing, traced bool) []phase {
	ps := []phase{{name: "warmup", kind: phaseWarm, rate: w.rate, dur: tm.warm}}
	if traced {
		ps = append(ps,
			phase{name: "measure-untraced", kind: phaseMeasure, rate: w.rate, dur: tm.measure / 2},
			phase{name: "measure-traced", kind: phaseMeasure, rate: w.rate, dur: tm.measure - tm.measure/2, traced: true})
	} else {
		ps = append(ps, phase{name: "measure", kind: phaseMeasure, rate: w.rate, dur: tm.measure})
	}
	if w.ladder && traced {
		rate := w.rate
		for k := 1; k <= ladderLast && tm.rungs > 0; k++ {
			rate *= ladderStep
			dur := tm.rung
			if k < ladderFirst {
				if k%ladderApproach != 0 {
					continue
				}
				dur /= 2
			}
			ps = append(ps, phase{name: fmt.Sprintf("rung-%d", k), kind: phaseRung, rate: rate, dur: dur})
			tm.rungs--
		}
	}
	return ps
}

// clusterSeed fixes the shape of every workload's cluster: the social
// graph, the overlay built over it and who subscribes to which topic.
// Per-notification cost follows that shape (degrees, hop counts, tree
// widths), and a graph redrawn per seed moved cpu_us_per_notif by 10%
// between seeds where the same graph repeated within 2%. The benchmark
// compares commits, not graphs: the cluster belongs to the workload, and
// the run's seed draws the traffic sent through it.
const clusterSeed = 1

// makeInputs builds the workload's cluster shape from clusterSeed and
// draws the traffic — publisher sequence, per-publication topics, churn
// schedule, payload bytes — from the run's seed. Each draw has its own
// stream so that, say, a longer window does not reshuffle the churn.
func makeInputs(w workload, seed int64, tm timing, traced bool) (*inputs, time.Duration) {
	t0 := time.Now()
	g := datasets.Facebook.Generate(w.n, clusterSeed)
	genTime := time.Since(t0)

	in := &inputs{w: w, g: g, phases: planPhases(w, tm, traced)}
	total := 0
	for i := range in.phases {
		p := &in.phases[i]
		p.first = total
		p.count = int(p.rate * p.dur.Seconds())
		total += p.count
	}

	if w.topics > 0 {
		rng := rand.New(rand.NewSource(clusterSeed + 7))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(w.topics-1))
		in.topicNames = make([]string, w.topics)
		in.subsOf = make([][]bool, w.topics)
		for t := range in.topicNames {
			in.topicNames[t] = fmt.Sprintf("#topic-%d", t)
			in.subsOf[t] = make([]bool, w.n)
		}
		in.peerTopics = make([][]int32, w.n)
		for p := 0; p < w.n; p++ {
			for k := 0; k < 2; k++ {
				t := int32(zipf.Uint64())
				if !in.subsOf[t][p] {
					in.subsOf[t][p] = true
					in.peerTopics[p] = append(in.peerTopics[p], t)
				}
			}
		}
	}

	var offline [][2]time.Duration // per planned spell: [crash, rejoin) — indexed via spellsOf
	spellsOf := make([][]int, w.n)
	if w.churn {
		in.churn, offline, spellsOf = planChurn(w, seed, in.phases)
	}

	// Publishers: uniform over peers with at least one friend. Under
	// churn a peer does not publish while planned offline, just before a
	// planned crash, or while its rejoin is still settling.
	var candidates []int32
	for p := 0; p < w.n; p++ {
		if g.Degree(int32(p)) > 0 {
			candidates = append(candidates, int32(p))
		}
	}
	if len(candidates) == 0 {
		panic("bench: graph has no connected peers")
	}
	eligible := func(p int32, at time.Duration) bool {
		for _, s := range spellsOf[p] {
			if at >= offline[s][0]-churnEvery/2 && at < offline[s][1]+churnRest {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(seed + 2))
	var trng *rand.Rand
	var tzipf *rand.Zipf
	if w.topics > 0 {
		trng = rand.New(rand.NewSource(seed + 8))
		tzipf = rand.NewZipf(trng, 1.2, 1, uint64(w.topics-1))
	}
	in.pubs = make([]pubPlan, 0, total)
	var phaseStart time.Duration
	for pi, p := range in.phases {
		for j := 0; j < p.count; j++ {
			at := phaseStart + time.Duration(float64(j)/p.rate*float64(time.Second))
			pub := candidates[rng.Intn(len(candidates))]
			for tries := 0; w.churn && !eligible(pub, at) && tries < 64; tries++ {
				pub = candidates[rng.Intn(len(candidates))]
			}
			pl := pubPlan{publisher: pub, topic: -1, phase: int32(pi)}
			if tzipf != nil {
				pl.topic = int32(tzipf.Uint64())
			}
			in.pubs = append(in.pubs, pl)
			in.phases[pi].owed += in.fanout(len(in.pubs) - 1)
		}
		phaseStart += p.dur
	}

	// Bodies: the publication's index, then seeded random bytes. The
	// index lets the delivery handler find the expected checksum without
	// a shared map.
	in.payloads = make([]byte, total*payloadSize)
	rand.New(rand.NewSource(seed + 13)).Read(in.payloads)
	in.crcs = make([]uint32, total)
	for i := 0; i < total; i++ {
		body := in.payload(i)
		binary.LittleEndian.PutUint32(body, uint32(i))
		in.crcs[i] = crc32.ChecksumIEEE(body)
	}
	return in, genTime
}

func (in *inputs) payload(i int) []byte {
	return in.payloads[i*payloadSize : (i+1)*payloadSize : (i+1)*payloadSize]
}

// planChurn lays out the crash/rejoin schedule over warm-up and the
// measured window: at offset 0 the first offlineCount peers crash; every
// churnEvery after that the longest-offline peer rejoins and a random
// rested online peer crashes; when the window ends everyone still
// offline rejoins at once. It returns the events, every planned offline
// spell as [crash, rejoin), and each peer's spell indexes.
func planChurn(w workload, seed int64, phases []phase) ([]churnEvent, [][2]time.Duration, [][]int) {
	var end time.Duration
	for _, p := range phases {
		if p.kind != phaseRung {
			end += p.dur
		}
	}
	rng := rand.New(rand.NewSource(seed + 11))
	var events []churnEvent
	var spells [][2]time.Duration
	spellsOf := make([][]int, w.n)
	open := make([]int, w.n) // peer → index of its open spell, -1 when online
	restedAt := make([]time.Duration, w.n)
	for p := range open {
		open[p] = -1
	}
	var queue []int32 // offline peers, longest first
	crash := func(p int32, at time.Duration) {
		events = append(events, churnEvent{at: at, peer: p})
		open[p] = len(spells)
		spellsOf[p] = append(spellsOf[p], len(spells))
		spells = append(spells, [2]time.Duration{at, end})
		queue = append(queue, p)
	}
	rejoin := func(at time.Duration) {
		p := queue[0]
		queue = queue[1:]
		events = append(events, churnEvent{at: at, peer: p, rejoin: true})
		spells[open[p]][1] = at
		open[p] = -1
		restedAt[p] = at + churnRest
	}
	for _, p := range rng.Perm(w.n)[:offlineCount(w.n)] {
		crash(int32(p), 0)
	}
	for at := churnEvery; at < end; at += churnEvery {
		rejoin(at)
		var online []int32
		for p := 0; p < w.n; p++ {
			if open[p] < 0 && restedAt[p] <= at {
				online = append(online, int32(p))
			}
		}
		if len(online) > 0 {
			crash(online[rng.Intn(len(online))], at)
		}
	}
	for len(queue) > 0 {
		rejoin(end)
	}
	return events, spells, spellsOf
}

// owedTo reports whether publication i must reach subscriber s.
func (in *inputs) owedTo(i int, s int32) bool {
	pl := in.pubs[i]
	if pl.publisher == s {
		return false
	}
	if pl.topic >= 0 {
		return in.subsOf[pl.topic][s]
	}
	return in.g.HasEdge(pl.publisher, s)
}

// subscribers calls fn for every subscriber publication i is owed to.
func (in *inputs) subscribers(i int, fn func(s int32)) {
	pl := in.pubs[i]
	if pl.topic >= 0 {
		for s, sub := range in.subsOf[pl.topic] {
			if sub && int32(s) != pl.publisher {
				fn(int32(s))
			}
		}
		return
	}
	for _, s := range in.g.Neighbors(pl.publisher) {
		fn(s)
	}
}

// fanout is how many notifications publication i owes.
func (in *inputs) fanout(i int) int {
	n := 0
	in.subscribers(i, func(int32) { n++ })
	return n
}

// digest fingerprints the schedule: graph, publishers, topics, churn.
// Two runs with the same seed and durations must print the same value.
func (in *inputs) digest() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(in.g.NumNodes()))
	for u := 0; u < in.g.NumNodes(); u++ {
		for _, v := range in.g.Neighbors(int32(u)) {
			put(int64(u)<<32 | int64(v))
		}
	}
	for _, p := range in.pubs {
		put(int64(p.publisher)<<32 | int64(uint32(p.topic)))
	}
	for p, ts := range in.peerTopics {
		sorted := append([]int32(nil), ts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, t := range sorted {
			put(int64(p)<<32 | int64(t))
		}
	}
	for _, e := range in.churn {
		v := int64(e.at)<<8 | int64(e.peer)<<1
		if e.rejoin {
			v |= 1
		}
		put(v)
	}
	put(int64(crc32.ChecksumIEEE(in.payloads)))
	return fmt.Sprintf("%016x", h.Sum64())
}
