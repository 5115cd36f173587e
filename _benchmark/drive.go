package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/server"
	"repro/internal/wire"
)

// Load shapes. The open-loop rates are fixed; the closed loops send as
// fast as acks return. Unpaced, the cluster firehose reaches 16-17.5k
// sessions/s beside the predict stream on a 2-vCPU Xeon, so its rate
// leaves the stack more than 3x headroom and its latencies measure the
// stack, not a queue.
const (
	sessionStartRate = 2000.0 // sessions/s, Poisson arrivals
	clusterEventRate = 5000.0 // sessions/s in 64-event posts, evenly paced
	clusterPredRate  = 500.0  // predicts/s, Poisson arrivals
	readbackRate     = 2000.0 // predicts/s in the post-drain read-back
	eventsPerPost    = 64     // closed-loop post size (a start+access pair is never split)
	// shedBackoff is the pause before a closed-loop client re-sends a
	// shed post in place; giveUpAfter bounds how long one post may keep
	// being shed before it counts as failed.
	shedBackoff = time.Millisecond
	giveUpAfter = 10 * time.Second
	// maxBehind is how far behind its schedule the cluster firehose may end
	// the timed phase. A stack that cannot sustain the rate ends further
	// behind with every second of the run, and the run fails rather than
	// report the backlog's age as latency.
	maxBehind = time.Second
)

// opCount is the failure accounting of one operation kind in one phase.
type opCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	// Shed counts sheds: failures in an open loop, retries in a closed
	// loop.
	Shed int `json:"shed"`
}

// recorder collects one run's client-side observations.
type recorder struct {
	mu          sync.Mutex
	predictLat  []latency // from the scheduled send
	eventLat    []latency // from the scheduled send (open loop) or the first attempt (closed loop)
	late        []float64 // ms the generator dispatched an arrival after its due time
	ops         map[string]*opCount
	acks        []ack // accepted event posts
	shedRetries int
	firstErr    error

	predictRTT hist // client-side wire call time
	eventRTT   hist
}

func newRecorder() *recorder { return &recorder{ops: map[string]*opCount{}} }

func (r *recorder) op(key string) *opCount {
	c := r.ops[key]
	if c == nil {
		c = &opCount{}
		r.ops[key] = c
	}
	return c
}

// sessionRun names the sessions of one event post without listing them:
// n consecutive entries, from the from-th, of one send sequence — the
// global stream when seq < 0, else connection list seq. The generator so
// keeps a few bytes per post, not per session, and its own footprint
// stays out of the live heap.
type sessionRun struct{ seq, from, n int }

// ack is one accepted event post and when it was acked.
type ack struct {
	at  time.Time
	run sessionRun
}

// latency is one latency sample and the time its clock started.
type latency struct {
	start time.Time
	ms    float64
}

// done records a finished operation; run names the sessions an event
// post carried. A successful timed operation's latency runs from start to
// end.
func (r *recorder) done(key string, ok, shed bool, err error, start, end time.Time, run sessionRun) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.op(key)
	c.Attempted++
	if shed {
		c.Shed++
	}
	if !ok {
		c.Failed++
		if err != nil && r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", key, err)
		}
		return
	}
	c.Succeeded++
	if run.n > 0 {
		r.acks = append(r.acks, ack{end, run})
	}
	l := latency{start, float64(end.Sub(start).Nanoseconds()) / 1e6}
	switch key {
	case "timed.predict":
		r.predictLat = append(r.predictLat, l)
	case "timed.events":
		r.eventLat = append(r.eventLat, l)
	}
}

func (r *recorder) shedRetry(key string) {
	r.mu.Lock()
	r.shedRetries++
	r.op(key).Shed++
	r.mu.Unlock()
}

func (r *recorder) lateBy(d time.Duration) {
	r.mu.Lock()
	r.late = append(r.late, float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// bufferBytes is the memory the recorder's sample buffers hold, so the
// live-heap metric can leave the load generator's own records out: they
// grow with the number of posts, which a closed loop ties to throughput.
func (r *recorder) bufferBytes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint64(cap(r.acks))*uint64(unsafe.Sizeof(ack{})) +
		uint64(cap(r.predictLat)+cap(r.eventLat))*uint64(unsafe.Sizeof(latency{})) +
		uint64(cap(r.late))*uint64(unsafe.Sizeof(float64(0)))
}

// totals sums every operation kind and phase.
func (r *recorder) totals() (attempted, failed int) {
	for _, c := range r.ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return
}

// runCtx is one timed run of a workload against a started stack.
type runCtx struct {
	in      *stream
	seed    uint64
	seconds float64
	st      *stack
	tr      *tracer
	rec     *recorder

	t0, end time.Time // the timed phase, including the final /flush; t0 is set before drive
	// lists are the per-connection send sequences of a closed loop that
	// shards users over connections (see sessionRun).
	lists [][]int
	// accepted are the global indices of the accepted sessions, sorted;
	// set after the timed phase.
	accepted []int
	// cpuMarks is the process CPU time at each window boundary of the
	// timed phase (windows+1 readings, the last at end).
	cpuMarks []float64
	drain    time.Duration // the /flush call
	// behind is how far behind its schedule the cluster firehose was when
	// the timed phase ended (0 when it kept up).
	behind time.Duration
	// readback holds the answers of the post-drain predicts, checked
	// against the reference after the replay.
	readback []readbackResult
}

// acceptedSessions expands the accepted posts into sorted global session
// indices.
func (rc *runCtx) acceptedSessions() []int {
	var out []int
	for _, a := range rc.rec.acks {
		for k := a.run.from; k < a.run.from+a.run.n; k++ {
			if a.run.seq < 0 {
				out = append(out, k)
			} else {
				out = append(out, rc.in.connSession(rc.lists[a.run.seq], k))
			}
		}
	}
	slices.Sort(out)
	return out
}

// sessionCount is how many sessions the accepted posts carried.
func (r *recorder) sessionCount() int {
	n := 0
	for _, a := range r.acks {
		n += a.run.n
	}
	return n
}

// arrivals returns the Poisson schedule of an open loop: offsets from
// the start of the phase, for the phase's length.
func arrivals(rng *rand.Rand, rate, seconds float64) []time.Duration {
	var out []time.Duration
	for at := rng.ExpFloat64() / rate; at < seconds; at += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(at*float64(time.Second)))
	}
	return out
}

// waitDue sleeps until due and, when timed, records how late the
// generator got there.
func (rc *runCtx) waitDue(due time.Time, timed bool) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if timed {
		rc.rec.lateBy(time.Since(due))
	}
}

// predictAt sends one pipelined predict scheduled for due and records
// its latency from due under key.
func (rc *runCtx) predictAt(cl *wire.Client, lane int, s session, ts int64, due time.Time, key string, parent uint64) (wire.PredictReply, bool) {
	var cat [2]int
	payload := wire.AppendPredict(nil, int(s.user), ts, s.catInts(&cat))
	t := time.Now()
	pr, err := cl.SendPredict(uint64(lane), payload, 0)
	end := time.Now()
	rc.rec.predictRTT.add(end.Sub(t))
	rc.tr.record(rc.tr.newID(), parent, "wire.predict", t, end)
	ok := err == nil && pr.Status == wire.StatusOK
	shed := err == nil && pr.Status == wire.StatusShed
	if err == nil && !ok {
		err = fmt.Errorf("predict status %s: %s", wire.StatusText(pr.Status), pr.Msg)
	}
	rc.rec.done(key, ok, shed, err, due, end, sessionRun{})
	return pr, ok
}

// appendSession encodes s's start (and access) events onto buf.
func appendSession(buf []byte, s session, pass int) ([]byte, int) {
	var cat [2]int
	sid := s.sid(pass)
	buf = wire.AppendStart(buf, int(s.user), s.ts, sid, s.catInts(&cat))
	if !s.access {
		return buf, 1
	}
	return wire.AppendAccess(buf, int(s.user), s.ts+30, sid), 2
}

// sendEvents is one wire event post; shed reports a shed ack.
func (rc *runCtx) sendEvents(cl *wire.Client, lane, count int, buf []byte, parent uint64) (shed bool, err error) {
	t := time.Now()
	ack, err := cl.SendEvents(uint64(lane), count, buf)
	end := time.Now()
	rc.rec.eventRTT.add(end.Sub(t))
	rc.tr.record(rc.tr.newID(), parent, "wire.events", t, end)
	if err != nil {
		return false, err
	}
	switch ack.Status {
	case wire.StatusOK:
		return false, nil
	case wire.StatusShed:
		return true, nil
	}
	return false, fmt.Errorf("events status %s: %s", wire.StatusText(ack.Status), ack.Msg)
}

// postUntilAccepted sends one post and, while it is shed, backs off and
// re-sends it in place, so per-user order holds. Event latency runs from
// start — the first attempt in a closed loop, the due time in an open
// one — to the accepted ack.
func (rc *runCtx) postUntilAccepted(send func(parent uint64) (shed bool, err error), run sessionRun, start time.Time) bool {
	id := rc.tr.newID()
	first := time.Now()
	for {
		shed, err := send(id)
		if err == nil && !shed {
			end := time.Now()
			rc.tr.record(id, 0, "post", start, end)
			rc.rec.done("timed.events", true, false, nil, start, end, run)
			return true
		}
		if err == nil && time.Since(first) > giveUpAfter {
			err = fmt.Errorf("post still shed after %s", giveUpAfter)
		}
		if err != nil {
			rc.rec.done("timed.events", false, false, err, time.Time{}, time.Time{}, sessionRun{})
			return false
		}
		rc.rec.shedRetry("timed.events")
		time.Sleep(shedBackoff)
	}
}

// flush drains the stack through POST /flush and closes the timed phase.
func (rc *runCtx) flush() error {
	t := time.Now()
	resp, err := rc.st.ctl.Post(rc.st.base+"/flush", "application/json", nil)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rc.end = time.Now()
	rc.drain = rc.end.Sub(t)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flush: HTTP %d", resp.StatusCode)
	}
	return nil
}

// sessionStart is the open-loop session-start workload: Poisson arrivals
// at a fixed rate over two wire connections; each arrival sends one
// pipelined predict and that session's start(+access) post. A user's
// post waits for the ack of the user's previous post, which keeps
// per-user order without making any other arrival wait.
func (rc *runCtx) sessionStart() error {
	const conns = 2
	cl := wire.NewClient(rc.st.wireAddr, wire.ClientOptions{Conns: conns})
	defer cl.Close()
	sched := arrivals(rand.New(rand.NewPCG(rc.seed, 1)), sessionStartRate, rc.seconds)
	chain := map[int32]chan struct{}{}
	var wg sync.WaitGroup
	for g, off := range sched {
		due := rc.t0.Add(off)
		rc.waitDue(due, true)
		s, pass := rc.in.at(g)
		lane := laneOf(s.user, conns)
		prev := chain[s.user]
		done := make(chan struct{})
		chain[s.user] = done
		id := rc.tr.newID()
		wg.Add(2)
		go func() {
			defer wg.Done()
			rc.predictAt(cl, lane, s, s.ts, due, "timed.predict", id)
		}()
		go func() {
			defer wg.Done()
			defer close(done)
			if prev != nil {
				<-prev
			}
			buf, n := appendSession(nil, s, pass)
			shed, err := rc.sendEvents(cl, lane, n, buf, id)
			end := time.Now()
			rc.tr.record(id, 0, "arrival", due, end)
			rc.rec.done("timed.events", err == nil && !shed, shed, err, due, end, sessionRun{-1, g, 1})
		}()
	}
	wg.Wait()
	return rc.flush()
}

// catchUp is the closed-loop backlog replay: two wire connections each
// send their users' sessions in 64-event posts as fast as acks return,
// re-sending shed posts in place. It sends no predicts; its predict
// latency comes from the timed read-back after the drain.
func (rc *runCtx) catchUp() error {
	const conns = 2
	cl := wire.NewClient(rc.st.wireAddr, wire.ClientOptions{Conns: conns})
	defer cl.Close()
	rc.lists = rc.in.connLists(conns)
	var wg sync.WaitGroup
	deadline := rc.t0.Add(time.Duration(rc.seconds * float64(time.Second)))
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for k := 0; time.Now().Before(deadline); {
				buf = buf[:0]
				run := sessionRun{seq: c, from: k}
				events := 0
				for {
					s, pass := rc.in.at(rc.in.connSession(rc.lists[c], k))
					if events+1+btoi(s.access) > eventsPerPost {
						break
					}
					var n int
					buf, n = appendSession(buf, s, pass)
					events += n
					run.n++
					k++
				}
				send := func(parent uint64) (bool, error) { return rc.sendEvents(cl, c, events, buf, parent) }
				if !rc.postUntilAccepted(send, run, time.Now()) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return rc.flush()
}

// clusterMixed drives the router: connection 1 is a firehose of 64-event
// JSON posts to the HTTP front door, paced open loop at clusterEventRate
// sessions/s and sent in order (a late post goes out as soon as the one
// before it is acked) until the end of the timed phase; connection 2 is an open-loop stream of pipelined
// predicts to the wire front door, each for the session the firehose sent
// most recently. A closed-loop firehose on one HTTP/1.1 connection would
// make throughput the inverse of one post's round trip, which on a shared
// 2-core machine moves with other tenants' load far beyond any usable
// bound.
func (rc *runCtx) clusterMixed() error {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	pc := wire.NewClient(rc.st.wireAddr, wire.ClientOptions{Conns: 1})
	defer pc.Close()
	sched := arrivals(rand.New(rand.NewPCG(rc.seed, 2)), clusterPredRate, rc.seconds)
	var latest atomic.Int64
	var wg sync.WaitGroup
	deadline := rc.t0.Add(time.Duration(rc.seconds * float64(time.Second)))
	wg.Add(1)
	go func() {
		defer wg.Done()
		evs := make([]server.Event, 0, eventsPerPost)
		for g := 0; ; {
			evs = evs[:0]
			run := sessionRun{seq: -1, from: g}
			for {
				s, pass := rc.in.at(g)
				if len(evs)+1+btoi(s.access) > eventsPerPost {
					break
				}
				sid := s.sid(pass)
				evs = append(evs, server.Event{Type: "start", Session: sid, User: int(s.user), Ts: s.ts, Cat: []int{int(s.cat[0]), int(s.cat[1])}})
				if s.access {
					evs = append(evs, server.Event{Type: "access", Session: sid, Ts: s.ts + 30})
				}
				run.n++
				g++
			}
			due := rc.t0.Add(time.Duration(float64(g) / clusterEventRate * float64(time.Second)))
			if !due.Before(deadline) {
				return
			}
			if now := time.Now(); !now.Before(deadline) {
				// The phase ends with posts still due: the stack fell behind.
				rc.behind = now.Sub(due)
				return
			}
			body, err := json.Marshal(evs)
			if err != nil {
				rc.rec.done("timed.events", false, false, err, time.Time{}, time.Time{}, sessionRun{})
				return
			}
			rc.waitDue(due, true)
			latest.Store(int64(g - 1))
			// The router answers 429 when any replica shed its part of the
			// post, even if others took theirs, so the re-send repeats those
			// parts. That is idempotent here: a 64-event post of the 10k-user
			// cohort spans minutes of log time, less than the session length,
			// and only the firehose moves the replicas' clocks, so no session
			// of the post can have been finalised before its re-send. The
			// digest gate checks it.
			send := func(parent uint64) (bool, error) { return rc.postJSON(hc, body, parent) }
			if !rc.postUntilAccepted(send, run, due) {
				return
			}
		}
	}()
	for _, off := range sched {
		due := rc.t0.Add(off)
		rc.waitDue(due, true)
		s, _ := rc.in.at(int(latest.Load()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc.predictAt(pc, 0, s, s.ts, due, "timed.predict", 0)
		}()
	}
	wg.Wait()
	if rc.behind > maxBehind {
		return fmt.Errorf("the firehose ended %s behind its schedule: the stack does not sustain %.0f sessions/s, so latencies from the due time would measure the backlog", rc.behind.Round(time.Millisecond), clusterEventRate)
	}
	return rc.flush()
}

// postJSON is one firehose post to the router's HTTP front door.
func (rc *runCtx) postJSON(hc *http.Client, body []byte, parent uint64) (shed bool, err error) {
	req, err := http.NewRequest(http.MethodPost, rc.st.base+"/event", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := rc.tr.newID()
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	t := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rc.tr.record(id, parent, "http.event", t, time.Now())
	switch resp.StatusCode {
	case http.StatusAccepted:
		return false, nil
	case http.StatusTooManyRequests:
		return true, nil
	}
	return false, fmt.Errorf("event post: HTTP %d", resp.StatusCode)
}

// readbackResult is one post-drain predict and its answer.
type readbackResult struct {
	s     session
	ts    int64
	reply wire.PredictReply
	ok    bool
}

// readbackPhase sends n open-loop predicts, at readbackRate, to users
// the run updated — an hour after each user's last accepted session —
// and keeps the answers for the reference check.
func (rc *runCtx) readbackPhase(cl *wire.Client, conns, n int, key string) error {
	last := map[int32]int{}
	for _, g := range rc.accepted {
		s, _ := rc.in.at(g)
		last[s.user] = g
	}
	if len(last) == 0 {
		return fmt.Errorf("read-back: no session was accepted")
	}
	users := make([]int32, 0, len(last))
	for u := range last {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	sched := arrivals(rand.New(rand.NewPCG(rc.seed, 3)), readbackRate, float64(n)/readbackRate*2)
	if len(sched) > n {
		sched = sched[:n]
	}
	rc.readback = make([]readbackResult, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, off := range sched {
		due := t0.Add(off)
		rc.waitDue(due, key == "timed.predict")
		s, _ := rc.in.at(last[users[i%len(users)]])
		ts := s.ts + 3600*int64(1+i/len(users))
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, ok := rc.predictAt(cl, laneOf(s.user, conns), s, ts, due, key, 0)
			rc.readback[i] = readbackResult{s: s, ts: ts, reply: pr, ok: ok}
		}()
	}
	wg.Wait()
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
