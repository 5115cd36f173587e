package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// endToEnd derives the end-to-end metrics of a run: the costs a user of
// the stack pays, which are steady enough on a shared 2-core machine to
// carry a bound. CPU cost is the median over the windows of the timed
// phase of CPU time per accepted session (by ack time; the last window
// runs to the end of the final /flush).
func (o *outcome) endToEnd() []metric {
	_, cpu := o.windowRates()
	return []metric{
		{"setup_s", median(o.setups), "s"},
		{"cpu_us_per_session", median(cpu), "us"},
		{"live_heap_mb", o.liveHeapMB, "MB"},
	}
}

// loadgenMetrics derives the run's throughput and latencies as the load
// generator sees them: sessions accepted per second (median over the
// windows), and predict and event-post latencies timed from the scheduled
// send (open loop) or the first attempt (closed loop), as medians of
// per-window quantiles. On a shared 2-core machine they move with the
// other tenants' load far beyond any usable bound, so they are reported,
// not bounded: per run in the report line, and as per-layer metrics of
// the untraced run of a --trace 1 invocation.
func (o *outcome) loadgenMetrics() []metric {
	rec := o.rc.rec
	rates, _ := o.windowRates()
	return []metric{
		{"loadgen.sessions_per_s", median(rates), "1/s"},
		{"loadgen.predict_p50_ms", windowQuantile(rec.predictLat, 0.50), "ms"},
		{"loadgen.predict_p99_ms", windowQuantile(rec.predictLat, 0.99), "ms"},
		{"loadgen.event_p50_ms", windowQuantile(rec.eventLat, 0.50), "ms"},
		{"loadgen.event_p99_ms", windowQuantile(rec.eventLat, 0.99), "ms"},
	}
}

// windowRates cuts the timed phase into equal windows and returns, per
// window, the accepted sessions per second and the CPU microseconds per
// accepted session.
func (o *outcome) windowRates() (rates, cpu []float64) {
	rc := o.rc
	bounds := make([]time.Time, windows+1)
	for k := range bounds {
		bounds[k] = rc.t0.Add(time.Duration(float64(k) * rc.seconds / windows * float64(time.Second)))
	}
	bounds[windows] = rc.end
	perWindow := make([]float64, windows)
	for _, a := range rc.rec.acks {
		k, _ := slices.BinarySearchFunc(bounds[1:], a.at, func(b, t time.Time) int { return b.Compare(t) })
		perWindow[min(k, windows-1)] += float64(a.run.n)
	}
	for k, n := range perWindow {
		rates = append(rates, ratio(n, bounds[k+1].Sub(bounds[k]).Seconds()))
		if k+1 < len(rc.cpuMarks) {
			cpu = append(cpu, ratio((rc.cpuMarks[k+1]-rc.cpuMarks[k])*1e6, n))
		}
	}
	return rates, cpu
}

type layerInputs struct {
	c0, c1         counters
	rt0, rt1       rtSample
	sm             *sampler
	lr             ladderResult
	batch          float64
	forwards       int64
	forwardRetries int64
	caughtUp       time.Duration
}

// layerMetrics derives the per-layer metrics of a traced run. A layer the
// workload does not have reports 0.
func (o *outcome) layerMetrics(in layerInputs) []metric {
	rc, rec, st := o.rc, o.rc.rec, o.rc.st
	sessions := float64(rec.sessionCount())
	wall := rc.end.Sub(rc.t0).Seconds()
	var gets, puts hist
	var putBusy float64
	// The stores start empty, so WALSeq counts the run's records; their
	// size is the mean record size of the live log.
	var walBytes float64
	for _, r := range st.replicas {
		gets.merge(&r.tap.gets)
		puts.merge(&r.tap.puts)
		putBusy += float64(r.tap.putBusy.Load()) / 1e9
		if lc := r.st.Lifecycle(); lc.WALRecords > 0 {
			walBytes += float64(lc.WALBytes) / float64(lc.WALRecords) * float64(lc.WALSeq)
		}
	}
	var handler float64
	if st.routerTap != nil {
		handler = st.routerTap.event.quantile(0.5) / 1e6
	}
	timedPredicts := 0
	if c := rec.ops["timed.predict"]; c != nil {
		timedPredicts = c.Attempted
	}
	posts := 0
	if c := rec.ops["timed.events"]; c != nil {
		posts = c.Attempted
	}
	lanes := float64(runtime.GOMAXPROCS(0) * len(st.replicas))
	return []metric{
		{"loadgen.late_p99_ms", quantile(rec.late, 0.99), "ms"},
		{"wire.predict_rtt_p50_ms", rec.predictRTT.quantile(0.5) / 1e6, "ms"},
		{"wire.event_rtt_p50_ms", rec.eventRTT.quantile(0.5) / 1e6, "ms"},
		{"cluster.event_handler_p50_ms", handler, "ms"},
		// Both front doors forward: a post counts each event post and each
		// predict the router received in the timed phase.
		{"cluster.forwards_per_post", ratio(float64(in.forwards), float64(posts+timedPredicts)), "count"},
		{"cluster.forward_retries", float64(in.forwardRetries), "count"},
		{"server.finalize_batch_mean", in.batch, "count"},
		{"server.shed_retries_per_1k_sessions", ratio(float64(rec.shedRetries)*1000, sessions), "count"},
		{"server.backlog_max", float64(in.sm.backlogMax), "count"},
		{"server.drain_ms", float64(rc.drain.Nanoseconds()) / 1e6, "ms"},
		{"serving.cold_start_share", ratio(float64(in.c1.coldStarts-in.c0.coldStarts), float64(in.c1.predicts-in.c0.predicts)), "share"},
		{"serving.predict_us", in.lr.predictUS, "us"},
		{"serving.finalize_us_per_session", in.lr.finalizeUSPerSession, "us"},
		{"core.update_us_per_session", in.lr.updateUSPerSession, "us"},
		{"core.update_flops_per_session", in.lr.updateFlops, "flop"},
		{"store.get_p50_us", gets.quantile(0.5) / 1e3, "us"},
		{"store.put_p50_us", puts.quantile(0.5) / 1e3, "us"},
		{"store.put_busy_share", ratio(putBusy, wall*lanes), "share"},
		{"statestore.wal_bytes_per_session", ratio(walBytes, sessions), "B"},
		{"statestore.snapshots", float64(in.c1.snapshots - in.c0.snapshots), "count"},
		{"replication.lag_records_max", float64(in.sm.lagMax), "count"},
		{"replication.caught_up_ms", float64(in.caughtUp.Nanoseconds()) / 1e6, "ms"},
		{"runtime.alloc_bytes_per_session", ratio(float64(in.rt1.allocBytes-in.rt0.allocBytes), sessions), "B"},
		{"runtime.gc_cpu_share", ratio(in.rt1.gcCPU-in.rt0.gcCPU, in.rt1.totalCPU-in.rt0.totalCPU), "share"},
	}
}

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q of the samples at or below it (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// windowQuantile cuts a latency series into windows equal in time by
// when each sample's clock started, and returns the median over the
// windows of each window's nearest-rank q-quantile.
func windowQuantile(ls []latency, q float64) float64 {
	if len(ls) == 0 {
		return 0
	}
	lo, hi := ls[0].start, ls[0].start
	for _, l := range ls {
		if l.start.Before(lo) {
			lo = l.start
		}
		if l.start.After(hi) {
			hi = l.start
		}
	}
	span := hi.Sub(lo) + 1
	per := make([][]float64, windows)
	for _, l := range ls {
		k := int(int64(l.start.Sub(lo)) * windows / int64(span))
		per[k] = append(per[k], l.ms)
	}
	var qs []float64
	for _, w := range per {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

func millis(ls []latency) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = l.ms
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
