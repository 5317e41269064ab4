package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"selectps/internal/node"
	"selectps/internal/obs"
)

// runConfig is one benchmark run.
type runConfig struct {
	w      workload
	seed   int64
	tm     timing
	traced bool
	start  time.Time // the first set-up counts from here: the start of the process
	outDir string    // parent of the run directory
	keep   bool      // keep the run directory (trace.jsonl) on success
	micro  time.Duration
}

// result is every metric one run computed, by name.
type result struct {
	workload  string
	seed      int64
	traced    bool
	digest    string
	values    map[string]float64
	attempted int // owed notifications of the measured window
	failed    int
	correct   bool
	invalid   string // why the numbers measure the driver rather than the program; "" when they do not
	notes     []string
	traceFile string
}

func (r *result) set(name string, v float64) {
	if _, dup := r.values[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	r.values[name] = v
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// snap is the state of every outside-readable meter at one instant.
type snap struct {
	at         time.Duration
	cpu        time.Duration
	gcCPU      float64 // seconds
	goroutines int
	peakRSSMB  float64
	connGs     int // goroutines the TCP transport holds (0 on the switchboard)
	mem        runtime.MemStats
	counters   map[string]int64
	sojourn    []int64
	loopLag    []int64
	hops       []int64
}

// tick is the reading of the three cost meters at one slice boundary.
type tick struct {
	at     int64 // ns since the epoch
	cpu    time.Duration
	frames int64
	allocs uint64
}

func (r *runner) tick() tick {
	return tick{at: r.now(), cpu: processCPU(), frames: r.c.met.Get(obs.CTransportSend), allocs: heapAllocs()}
}

// offline is one executed crash → rejoin spell.
type offline struct {
	peer                   int32
	crashAt                int64 // ns since epoch; Crash call start
	crashNS                int64 // Crash call duration
	rejoinCall, rejoinDone int64
	err                    error
}

// runner drives one started cluster through its phases from a single
// generator goroutine.
type runner struct {
	cfg   runConfig
	c     *cluster
	in    *inputs
	col   *collector
	res   *result
	epoch time.Time

	userTopic []string // per peer, precomputed so the generator does no formatting
	due       []int64  // per publication: due time, ns since epoch
	lateNS    []int64  // per publication: call start minus due
	callNS    []int64  // per publication: Publish call duration
	phaseSpan [][2]int64
	pubErrs   int

	d driven

	churnMu sync.Mutex
	spells  []*offline
}

// runWorkload sets the cluster up, drives the load, verifies the
// outputs and computes every metric of the run.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{workload: cfg.w.name, seed: cfg.seed, traced: cfg.traced, values: make(map[string]float64)}
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d", cfg.w.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil { // leftovers of a failed run
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, setupRuns times over: each builds the inputs, the overlay
	// and the started cluster from nothing, and all but the last are shut
	// down at once. The first counts from the start of the process.
	var c *cluster
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		t0 := cfg.start
		if c != nil {
			c.shutdown()
			if err := os.RemoveAll(filepath.Join(dir, "inbox")); err != nil {
				return nil, err
			}
			t0 = time.Now()
		}
		var err error
		if c, err = startCluster(cfg.w, cfg.seed, cfg.tm, cfg.traced, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))
	res.notef("set-up s, in order: %.4f", setups)
	res.digest = c.in.digest()

	r := &runner{cfg: cfg, c: c, in: c.in, res: res, epoch: c.sink.epoch}
	r.col = newCollector(c.sink)
	r.userTopic = make([]string, cfg.w.n)
	for p := range r.userTopic {
		r.userTopic[p] = node.UserTopic(int32(p))
	}
	r.due = make([]int64, len(r.in.pubs))
	r.lateNS = make([]int64, len(r.in.pubs))
	r.callNS = make([]int64, len(r.in.pubs))
	r.phaseSpan = make([][2]int64, len(r.in.phases))

	r.drive()

	shutdownMS := ms(c.shutdown())
	r.col.collect()
	r.score(shutdownMS)

	if cfg.traced {
		if err := r.traceRows(dir); err != nil {
			return nil, err
		}
		microRows(res, cfg.micro, filepath.Join(dir, "micro"))
	}
	if res.correct && !cfg.keep {
		res.traceFile = ""
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		_ = os.Remove(cfg.outDir) // only succeeds when this was the last run directory
	}
	return res, nil
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

func (r *runner) snapshot() snap {
	s := snap{at: time.Since(r.epoch), cpu: processCPU(), gcCPU: gcCPUSeconds(), goroutines: runtime.NumGoroutine(),
		counters: r.c.met.Snapshot().Counters}
	runtime.ReadMemStats(&s.mem)
	s.peakRSSMB = peakRSSMB()
	if r.c.tcp != nil {
		s.connGs = r.c.tcp.ConnGoroutines()
	}
	s.sojourn = r.c.met.Sojourn.Snapshot().Bins
	s.loopLag = r.c.met.LoopLag.Snapshot().Bins
	s.hops = r.c.met.Hops.Snapshot().Bins
	return s
}

// Measurements taken while driving, scored afterwards.
type driven struct {
	idleCores, idleFramesPerPeerS float64
	w0, w1                        snap   // measured window: first measured publication → end of drain
	ticks                         []tick // every sliceLen of the measured window, and at its end
	nextSlice                     int64
	segCPU                        []time.Duration
	genCPU, genWall               time.Duration
	rungs                         []int // phase indexes of the rungs that ran
	backlogStop                   bool
}

// drive is the generator: idle window, warm-up, measured window, drain,
// ladder. It runs on one goroutine locked to its OS thread, so its own
// CPU can be read and reported.
func (r *runner) drive() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	d := &r.d
	tm, in := r.cfg.tm, r.in

	time.Sleep(tm.settle)
	i0 := r.snapshot()
	time.Sleep(tm.idle)
	i1 := r.snapshot()
	wall := (i1.at - i0.at).Seconds()
	d.idleCores = (i1.cpu - i0.cpu).Seconds() / wall
	d.idleFramesPerPeerS = float64(i1.counters["transport_send"]-i0.counters["transport_send"]) / wall / float64(r.cfg.w.n)

	next := r.now() // start of the next phase; phases are contiguous
	var churn sync.WaitGroup
	if r.cfg.w.churn {
		churn.Add(1)
		go func(loadStart int64) {
			defer churn.Done()
			r.runChurn(loadStart)
		}(next)
	}
	pi := 0
	for ; pi < len(in.phases) && in.phases[pi].kind == phaseWarm; pi++ {
		next = r.runPhase(pi, next)
	}
	d.w0 = r.snapshot()
	d.nextSlice = next
	gen0, genT0 := threadCPU(), time.Now()
	for ; pi < len(in.phases) && in.phases[pi].kind == phaseMeasure; pi++ {
		cpu0 := processCPU()
		if r.c.tracer != nil {
			r.c.tracer.on.Store(in.phases[pi].traced)
		}
		next = r.runPhase(pi, next)
		d.segCPU = append(d.segCPU, processCPU()-cpu0)
	}
	d.ticks = append(d.ticks, r.tick())
	d.genCPU, d.genWall = threadCPU()-gen0, time.Since(genT0)
	churn.Wait()
	r.drain(pi)
	if r.c.tracer != nil {
		r.c.tracer.on.Store(false)
	}
	d.w1 = r.snapshot()

	// Ladder: only after the window's own drain, so that no rung's
	// overload leaks into another metric.
	next = r.now()
	for ; pi < len(in.phases); pi++ {
		next = r.runPhase(pi, next)
		d.rungs = append(d.rungs, pi)
		time.Sleep(ladderGap)
		next += int64(ladderGap)
		r.col.collect()
		if backlog := in.phases[pi].owed - len(r.col.byPhase[pi]); float64(backlog) > r.offered(pi) {
			d.backlogStop = true
			break
		}
		if n := len(d.rungs); n >= 2 && !r.rungPasses(d.rungs[n-2]).ok {
			break
		}
	}
	if len(d.rungs) > 0 {
		time.Sleep(tm.deadline) // the last rung's notifications get their full deadline
	}
}

// runPhase publishes the phase's publications open loop: publication j
// is due at start + j/rate whether or not the system keeps up, and a
// late generator publishes back to back until it has caught up. It
// returns the start of the next phase.
func (r *runner) runPhase(pi int, start int64) int64 {
	p := &r.in.phases[pi]
	nodes := r.c.nodes.Nodes
	step := float64(time.Second) / p.rate
	for j := 0; j < p.count; j++ {
		due := start + int64(float64(j)*step)
		if wait := due - r.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if p.kind == phaseMeasure && due >= r.d.nextSlice {
			r.d.ticks = append(r.d.ticks, r.tick())
			r.d.nextSlice += int64(sliceLen)
		}
		i := p.first + j
		pl := r.in.pubs[i]
		topic := r.userTopic[pl.publisher]
		if pl.topic >= 0 {
			topic = r.in.topicNames[pl.topic]
		}
		r.due[i] = due
		t0 := r.now()
		seq, err := nodes[pl.publisher].Topic(topic).Publish(r.in.payload(i))
		t1 := r.now()
		r.lateNS[i], r.callNS[i] = t0-due, t1-t0
		if err != nil {
			r.pubErrs++
			continue
		}
		r.c.tracer.call(spanPublish, pl.publisher, t0, pubID(pl.publisher, seq))
	}
	end := start + int64(p.dur)
	if wait := end - r.now(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
	r.phaseSpan[pi] = [2]int64{start, end}
	if t := r.c.tracer; t != nil {
		t.add(0, span{name: spanPhase, from: -1, to: -1, start: start, end: end, label: p.name})
	}
	return end
}

// offered is one second of phase pi's offered load, in notifications.
func (r *runner) offered(pi int) float64 {
	p := r.in.phases[pi]
	return ratio(float64(p.owed), float64(p.count)) * p.rate
}

// drain waits for the notifications of phases [0, upto) to arrive: it
// ends ackGrace after the last owed one, or when deliveries have stopped
// for drainQuiet, or at drainCap.
func (r *runner) drain(upto int) {
	owed := 0
	for _, p := range r.in.phases[:upto] {
		owed += p.owed
	}
	start := time.Now()
	last, lastChange := -1, start
	for time.Since(start) < drainCap {
		got := r.c.sink.delivered()
		if got >= owed {
			time.Sleep(ackGrace)
			return
		}
		if got != last {
			last, lastChange = got, time.Now()
		} else if time.Since(lastChange) > r.cfg.tm.quiet {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runChurn executes the planned crash/rejoin schedule. Crash returns at
// once; Rejoin blocks until the peer is a ring member again, so each
// runs on its own goroutine and the schedule keeps its cadence.
func (r *runner) runChurn(loadStart int64) {
	open := make(map[int32]*offline)
	var rejoins sync.WaitGroup
	for _, e := range r.in.churn {
		if wait := loadStart + int64(e.at) - r.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if !e.rejoin {
			sp := &offline{peer: e.peer, crashAt: r.now()}
			r.c.nodes.Crash(e.peer)
			sp.crashNS = r.now() - sp.crashAt
			open[e.peer] = sp
			r.churnMu.Lock()
			r.spells = append(r.spells, sp)
			r.churnMu.Unlock()
			continue
		}
		sp := open[e.peer]
		delete(open, e.peer)
		rejoins.Add(1)
		go func() {
			defer rejoins.Done()
			ctx, cancel := context.WithTimeout(context.Background(), drainCap)
			defer cancel()
			call := r.now()
			err := r.c.nodes.Rejoin(ctx, sp.peer, -1)
			done := r.now()
			r.churnMu.Lock()
			sp.rejoinCall, sp.rejoinDone, sp.err = call, done, err
			r.churnMu.Unlock()
			r.c.tracer.call(spanRejoin, sp.peer, call, 0)
		}()
	}
	rejoins.Wait()
}

// rungVerdict is one ladder rung, scored.
type rungVerdict struct {
	ok           bool
	rate         float64 // offered publications/s
	owed, inTime int
	p99ms        float64
	notifPerS    float64 // delivered in time / rung length
}

// rungPasses scores rung pi: p99 within lateLimit, over everything the
// rung owes.
func (r *runner) rungPasses(pi int) rungVerdict {
	p := r.in.phases[pi]
	v := rungVerdict{rate: p.rate, owed: p.owed}
	lat := make([]float64, 0, len(r.col.byPhase[pi]))
	for _, rec := range r.col.byPhase[pi] {
		l := rec.at - r.due[rec.pub]
		if l <= int64(r.cfg.tm.deadline) {
			v.inTime++
		}
		lat = append(lat, float64(l)/1e6)
	}
	// Undelivered notifications count as slower than any delivered one.
	sort.Float64s(lat)
	if rank := int(0.99 * float64(v.owed)); rank < len(lat) {
		v.p99ms = lat[rank]
	} else {
		v.p99ms = ms(drainCap)
	}
	v.notifPerS = float64(v.inTime) / p.dur.Seconds()
	v.ok = v.owed > 0 && v.p99ms <= ms(lateLimit)
	return v
}
