package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// score verifies the outputs and turns the run's measurements into
// metrics. It runs after shutdown, when no handler can still be called.
func (r *runner) score(shutdownMS float64) {
	res, d, in, col := r.res, &r.d, r.in, r.col
	c0, c1 := d.w0.counters, d.w1.counters
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }

	// Every owed (publication, subscriber) pair of the measured window is
	// one operation. It fails when it was not delivered by the end of the
	// drain; duplicates and corrupt bodies fail the whole run.
	online := r.onlineAt()
	var owed, delivered, eligible, eligibleLate, offlineOwed, misses int
	var lat []float64
	for pi, p := range in.phases {
		if p.kind != phaseMeasure {
			continue
		}
		for i := p.first; i < p.first+p.count; i++ {
			in.subscribers(i, func(s int32) {
				owed++
				if online(s, r.due[i]) {
					eligible++
					if !col.has(s, i) {
						eligibleLate++
					}
				} else {
					offlineOwed++
				}
				if !col.has(s, i) && misses < 8 {
					misses++
					res.notef("failed: publication %d of peer %d (topic %d), due %.3f s into the window, never reached subscriber %d",
						i, in.pubs[i].publisher, in.pubs[i].topic, float64(r.due[i]-int64(d.w0.at))/1e9, s)
				}
			})
		}
		for _, rec := range col.byPhase[pi] {
			inTime := rec.at <= int64(d.w1.at) // else it arrived after the drain ended: a failed operation
			if inTime {
				delivered++
			} else if misses < 8 {
				misses++
				res.notef("failed: publication %d of peer %d (topic %d), due %.3f s into the window, reached subscriber %d %.3f s after it was due and %.3f s after the drain ended",
					rec.pub, in.pubs[rec.pub].publisher, in.pubs[rec.pub].topic, float64(r.due[rec.pub]-int64(d.w0.at))/1e9, rec.sub,
					float64(rec.at-r.due[rec.pub])/1e9, float64(rec.at-int64(d.w1.at))/1e9)
			}
			if !online(rec.sub, r.due[rec.pub]) {
				continue
			}
			l := rec.at - r.due[rec.pub]
			if inTime {
				lat = append(lat, float64(l)/1e6)
			}
			if l > int64(lateLimit) {
				eligibleLate++
			}
		}
	}
	corrupt := int(r.c.sink.corrupt.Load())
	res.attempted = owed
	res.failed = owed - delivered
	res.correct = col.duplicates == 0 && col.unexpected == 0 && corrupt == 0 && r.pubErrs == 0 && owed > 0
	res.notef("ops_attempted=%d ops_failed=%d duplicates=%d unexpected=%d corrupt=%d publish_errors=%d",
		owed, res.failed, col.duplicates, col.unexpected, corrupt, r.pubErrs)
	res.notef("latency samples n=%d (subscribers online at due time)", len(lat))

	perNotif := func(x float64) float64 { return ratio(x, float64(delivered)) }
	frac := func(a, b int) float64 { return ratio(float64(a), float64(b)) }

	// End to end.
	res.set("notify_p50_ms", quantile(lat, 0.50))
	res.set("notify_p99_ms", quantile(lat, 0.99))
	res.set("late_frac", frac(eligibleLate, eligible))
	res.set("ontime_frac", 1-frac(eligibleLate, eligible))
	res.set("failed_frac", frac(res.failed, owed))
	res.set("delivered_frac", frac(delivered, owed))
	cpuUS, frames, allocs := r.sliceCosts()
	res.set("cpu_us_per_notif", median(cpuUS))
	res.set("frames_per_notif", median(frames))
	res.set("allocs_per_notif", median(allocs))
	res.notef("per-notification costs are medians over %d slices of the window; CPU µs per notification by slice: min %.1f, quartiles %.1f %.1f %.1f, max %.1f",
		len(cpuUS), quantile(cpuUS, 0), quantile(cpuUS, 0.25), quantile(cpuUS, 0.5), quantile(cpuUS, 0.75), quantile(cpuUS, 1))
	res.set("idle_cpu_cores", d.idleCores)
	res.set("peak_rss_mb", d.w1.peakRSSMB) // read before the ladder, which overloads on purpose
	r.scoreLadder()
	catchups, replayRates := r.scoreChurn()

	// Frame conservation, from obs alone: every frame handed to a
	// transport was either dispatched to a handler (the sojourn
	// histogram counts those) or dropped under a named counter.
	drops := delta("drop_full_mailbox") + delta("drop_closed") + delta("tcp_send_queue_drop") + delta("tcp_write_drop")
	received := float64(sum(d.w1.sojourn) - sum(d.w0.sojourn))
	res.notef("frames: sent=%.0f received=%.0f named_drops=%.0f unnamed_loss=%.0f (in flight, or addressed to a crashed peer)",
		delta("transport_send"), received, drops, delta("transport_send")-received-drops)

	res.notef("durable tier: %.0f deposits, %.0f replays, %.0f dead letters", delta("inbox_deposit"), delta("inbox_replay"), delta("dead_letter"))

	// Set-up, layer by layer.
	res.set("datasets.generate_ms", r.c.generateMS)
	res.set("pubsub.build_select_ms", r.c.buildMS)
	res.set("node.start_ms", r.c.startMS)
	res.set("node.subscribe_rtt_p50_ms", median(r.c.subscribeRTTms))
	res.set("node.shutdown_ms", shutdownMS)

	// Transport, from counters.
	res.set("transport.frames_per_flush", ratio(delta("transport_send"), delta("tcp_flush")))
	res.set("transport.env_per_ingress_batch", ratio(received, delta("ingress_batch")))
	conns := 0
	if r.c.tcp != nil {
		conns = (d.w1.connGs - r.cfg.w.n) / 2 // one accept loop per peer, a reader and a writer per connection
	}
	res.set("transport.tcp_conns", float64(conns))
	res.set("transport.goroutines", float64(d.w1.connGs))
	res.set("transport.drops", drops)

	res.set("sched.loop_lag_p99_ms", binQuantile(d.w0.loopLag, d.w1.loopLag, 1000, 0.99))

	// Node.
	var calls, topicCalls, late []float64
	for _, p := range in.phases {
		if p.kind != phaseMeasure {
			continue
		}
		for i := p.first; i < p.first+p.count; i++ {
			late = append(late, float64(r.lateNS[i])/1e6)
			if in.pubs[i].topic >= 0 {
				topicCalls = append(topicCalls, float64(r.callNS[i])/1e3)
			} else {
				calls = append(calls, float64(r.callNS[i])/1e3)
			}
		}
	}
	res.set("node.publish_call_p50_us", quantile(calls, 0.50))
	res.set("node.publish_call_p99_us", quantile(calls, 0.99))
	res.set("node.topic_publish_call_p50_us", quantile(topicCalls, 0.50))
	res.set("node.hops_mean", binMean(d.w0.hops, d.w1.hops))
	res.set("node.sojourn_p99_ms", binQuantile(d.w0.sojourn, d.w1.sojourn, 1000, 0.99))
	res.set("node.forwarded_per_notif", perNotif(delta("publish_forwarded")))
	res.set("node.dup_copies_per_notif", perNotif(delta("publish_duplicate")))
	res.set("node.dead_end_per_notif", perNotif(delta("publish_dead_end")))
	res.set("node.retry_per_notif", perNotif(delta("retry_sent")))
	res.set("node.dead_letters", delta("dead_letter"))
	res.set("node.ack_ttl_drop", delta("ack_ttl_drop"))
	res.set("node.acks_per_batch", ratio(delta("ack_coalesced"), delta("ack_batch_sent")))
	res.set("node.heartbeat_suppressed_frac", ratio(delta("heartbeat_suppressed"), delta("heartbeat_suppressed")+delta("heartbeat_sent")))
	res.set("node.timer_shed", delta("timer_shed"))
	res.set("node.link_dead_evict", delta("link_dead_evict"))
	res.set("node.ring_splice", delta("ring_splice"))
	res.set("node.idle_frames_per_peer_s", d.idleFramesPerPeerS)
	res.set("node.topic_fanout_per_notif", perNotif(delta("topic_fanout")))
	res.set("node.topic_rehome", delta("topic_rehome"))
	res.set("node.topic_lease_expire", delta("topic_lease_expire"))
	res.set("node.topic_handoff", delta("topic_handoff"))

	// Durable tier.
	rejoins := 0
	var rejoinMS, crashUS []float64
	for _, sp := range r.spells {
		crashUS = append(crashUS, float64(sp.crashNS)/1e3)
		if sp.rejoinCall > 0 && sp.err == nil {
			rejoins++
			rejoinMS = append(rejoinMS, float64(sp.rejoinDone-sp.rejoinCall)/1e6)
		}
	}
	res.set("catchup_p50_ms", quantile(catchups, 0.50))
	res.set("node.inbox_deposits_per_owed", ratio(delta("inbox_deposit"), float64(offlineOwed)))
	res.set("node.inbox_replay_per_owed", ratio(delta("inbox_replay"), float64(offlineOwed)))
	res.set("node.inbox_lease_expire_per_rejoin", ratio(delta("inbox_lease_expire"), float64(rejoins)))
	res.set("node.inbox_replay_rate_per_sub", quantile(replayRates, 0.50))
	res.set("node.rejoin_call_p50_ms", quantile(rejoinMS, 0.50))
	res.set("node.crash_call_us", quantile(crashUS, 0.50))

	// Runtime.
	res.set("runtime.gc_cpu_frac", gcCPUFrac(d))
	res.set("runtime.gc_pause_p99_ms", gcPauseP99(&d.w0.mem, &d.w1.mem))
	res.set("runtime.heap_inuse_mb", float64(d.w1.mem.HeapInuse)/(1<<20))
	res.set("runtime.goroutines", float64(d.w1.goroutines))

	// The benchmark's own health.
	lateP99 := quantile(late, 0.99)
	res.notef("generator lateness ms: p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f", quantile(late, 0.5), quantile(late, 0.9), lateP99, quantile(late, 0.999), quantile(late, 1))
	res.set("bench.gen_late_p99_ms", lateP99)
	res.set("bench.gen_cpu_frac", ratio(d.genCPU.Seconds(), d.genWall.Seconds()))
	if lateP99 > ms(genLateLimit) {
		res.invalid = fmt.Sprintf("generator ran %.2f ms late at p99 (limit %v): the numbers measure the driver", lateP99, genLateLimit)
	}
	overhead := 0.0
	if len(d.segCPU) == 2 {
		// Traced run: the window's two halves offer the same load, the
		// second with span recording on.
		overhead = ratio(d.segCPU[1].Seconds(), d.segCPU[0].Seconds()) - 1
	}
	res.set("bench.trace_overhead_frac", overhead)
}

// sliceCosts cuts the measured window at the generator's ticks and
// returns, slice by slice, the process's CPU in µs, the frames handed to
// the transport and the heap allocations, each per notification delivered
// inside the slice. The end-to-end costs are the medians: a second in
// which the host ran something else, or the drain of a run that waited
// five idle seconds for one replayed straggler, then moves one slice and
// not the metric.
func (r *runner) sliceCosts() (cpuUS, frames, allocs []float64) {
	ticks := r.d.ticks
	if n := len(ticks); n > 2 && ticks[n-1].at-ticks[n-2].at < int64(sliceLen)/2 {
		ticks = ticks[:n-1] // the rest of a window that is no whole number of slices
	}
	delivered := make([]int, len(ticks)-1)
	for pi, p := range r.in.phases {
		if p.kind != phaseMeasure {
			continue
		}
		for _, rec := range r.col.byPhase[pi] {
			k := sort.Search(len(ticks), func(i int) bool { return ticks[i].at > rec.at }) - 1
			if k >= 0 && k < len(delivered) {
				delivered[k]++
			}
		}
	}
	for k, n := range delivered {
		if n == 0 {
			continue
		}
		a, b := ticks[k], ticks[k+1]
		cpuUS = append(cpuUS, float64((b.cpu-a.cpu).Microseconds())/float64(n))
		frames = append(frames, float64(b.frames-a.frames)/float64(n))
		allocs = append(allocs, float64(b.allocs-a.allocs)/float64(n))
	}
	return cpuUS, frames, allocs
}

// onlineAt returns the predicate "subscriber s was online at time t",
// from the executed crash → rejoin spells.
func (r *runner) onlineAt() func(s int32, t int64) bool {
	if len(r.spells) == 0 {
		return func(int32, int64) bool { return true }
	}
	by := make(map[int32][]*offline)
	for _, sp := range r.spells {
		by[sp.peer] = append(by[sp.peer], sp)
	}
	return func(s int32, t int64) bool {
		for _, sp := range by[s] {
			if t >= sp.crashAt && (sp.rejoinDone == 0 || t <= sp.rejoinDone) {
				return false
			}
		}
		return true
	}
}

// scoreLadder finds the knee: the delivered rate of the last rung
// before the first failing one.
func (r *runner) scoreLadder() {
	sustained := 0.0
	var verdicts []rungVerdict
	firstFail := -1
	for k, pi := range r.d.rungs {
		v := r.rungPasses(pi)
		if k == len(r.d.rungs)-1 && r.d.backlogStop {
			v.ok = false
		}
		verdicts = append(verdicts, v)
		if !v.ok && firstFail < 0 {
			firstFail = k
		}
	}
	for k, v := range verdicts {
		if firstFail >= 0 && k > firstFail {
			break
		}
		verdict := "pass"
		if !v.ok {
			verdict = "FAIL"
		}
		r.res.notef("ladder %s: %.0f pub/s, %d/%d notifications in time, p99 %.1f ms: %s",
			r.in.phases[r.d.rungs[k]].name, v.rate, v.inTime, v.owed, v.p99ms, verdict)
		if v.ok {
			sustained = v.notifPerS
		}
	}
	switch {
	case len(verdicts) == 0:
	case firstFail == 0:
		r.res.notef("ladder: the first rung failed; the knee is below the ladder")
	case firstFail < 0:
		r.res.notef("ladder: no rung failed; the knee is above the ladder")
	}
	r.res.set("sustained_notif_per_s", sustained)
}

// scoreChurn measures catch-up: for each rejoin called inside the
// measured window, the time from the Rejoin call to the last delivery
// of what the peer was owed while offline, and the replay rate that
// implies.
func (r *runner) scoreChurn() (catchupMS, replayPerS []float64) {
	if len(r.spells) == 0 {
		return nil, nil
	}
	lastAt := make(map[int64]int64) // (sub, pub) → delivery time
	for pi, p := range r.in.phases {
		if p.kind == phaseRung {
			continue
		}
		for _, rec := range r.col.byPhase[pi] {
			lastAt[int64(rec.sub)<<32|int64(rec.pub)] = rec.at
		}
	}
	var w0, w1 int64
	for pi, p := range r.in.phases {
		if p.kind == phaseMeasure {
			if w0 == 0 {
				w0 = r.phaseSpan[pi][0]
			}
			w1 = r.phaseSpan[pi][1]
		}
	}
	// r.due ascends (phases are contiguous; rungs that never ran read 0
	// at the tail), so each spell scans only its own interval.
	for _, sp := range r.spells {
		if sp.err != nil || sp.rejoinCall < w0 || sp.rejoinCall >= w1 {
			continue
		}
		owed, last, missing := 0, int64(0), false
		lo := sort.Search(len(r.due), func(i int) bool { return r.due[i] >= sp.crashAt || r.due[i] == 0 })
		for i := lo; i < len(r.due) && r.due[i] != 0 && r.due[i] <= sp.rejoinCall; i++ {
			if r.in.phases[r.in.pubs[i].phase].kind == phaseRung {
				break
			}
			if !r.in.owedTo(i, sp.peer) {
				continue
			}
			owed++
			at, ok := lastAt[int64(sp.peer)<<32|int64(i)]
			if !ok {
				missing = true
			} else if at > last {
				last = at
			}
		}
		if owed == 0 || missing || last <= sp.rejoinCall {
			continue
		}
		catch := float64(last-sp.rejoinCall) / 1e6
		catchupMS = append(catchupMS, catch)
		replayPerS = append(replayPerS, float64(owed)/(catch/1e3))
	}
	r.res.notef("churn: %d crash/rejoin spells, %d rejoins scored for catch-up", len(r.spells), len(catchupMS))
	return catchupMS, replayPerS
}

func sum(bins []int64) int64 {
	var t int64
	for _, b := range bins {
		t += b
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// binQuantile estimates quantile q of the observations an obs histogram
// over [0, max) gained between two snapshots, at bin midpoints.
func binQuantile(before, after []int64, max, q float64) float64 {
	total := sum(after) - sum(before)
	if total <= 0 {
		return 0
	}
	target := int64(q * float64(total))
	width := max / float64(len(after))
	var cum int64
	for i := range after {
		cum += after[i] - before[i]
		if cum > target {
			return (float64(i) + 0.5) * width
		}
	}
	return max
}

// binMean is the mean of the observations a unit-bin histogram gained.
func binMean(before, after []int64) float64 {
	var n, s float64
	for i := range after {
		k := float64(after[i] - before[i])
		n += k
		s += k * float64(i)
	}
	return ratio(s, n)
}

func gcCPUFrac(d *driven) float64 {
	return ratio(d.w1.gcCPU-d.w0.gcCPU, (d.w1.cpu - d.w0.cpu).Seconds())
}

// gcPauseP99 reads the stop-the-world pauses of the collections that ran
// between two MemStats snapshots (the runtime keeps the last 256).
func gcPauseP99(m0, m1 *runtime.MemStats) float64 {
	var pauses []float64
	for n := m0.NumGC; n < m1.NumGC && n < m0.NumGC+256; n++ {
		pauses = append(pauses, float64(m1.PauseNs[n%256])/float64(time.Millisecond))
	}
	return quantile(pauses, 0.99)
}
