// Command e2ebench is the repository's end-to-end serving benchmark. It
// brings the real serving stack up in-process on loopback listeners,
// drives one named workload for a fixed time, checks the served state
// against a sequential in-process replay of the same sessions, and prints
// one JSON result line last on standard output.
//
// Run from the repository root through the build wrapper:
//
//	bash _benchmark/run.sh --workload session-start --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// makes that run, then a traced run of the same inputs, and prints the
// per-layer metrics: the load generator's throughput and latencies from
// the untraced run, the layer metrics of the traced run, and the tracing
// overhead (traced minus untraced) of each of those run-level numbers.
// The line before the result is a report: environment and provenance,
// workload parameters, failure accounting per operation kind and phase,
// and the correctness gates.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/statestore"
	"repro/internal/synth"
	"repro/internal/wire"
)

// workload is one named traffic mix and the stack it runs against.
type workload struct {
	name    string
	why     string
	users   int // cohort size: the replayed half of server.ReplayLog
	tier    nn.PrecisionTier
	codec   statestore.Codec
	durable bool // WAL + snapshots under a state directory
	cluster bool // three replicas with followers behind a router
	drive   func(*runCtx) error
	// The read-back after the drain: readbackN predicts over readbackConns
	// wire connections. A timed read-back supplies the workload's predict
	// latency; otherwise it only feeds the correctness check.
	readbackN     int
	readbackConns int
	readbackTimed bool
}

var workloads = []*workload{
	{
		name:  "session-start",
		why:   "the paper's user-facing path: open-loop Poisson session starts at 2000/s over wire, each one predict plus one small post; predict and small-batch finalisation dominate",
		users: 1000, tier: nn.TierF64, codec: statestore.CodecFloat32,
		drive: (*runCtx).sessionStart, readbackN: 256, readbackConns: 2,
	},
	{
		name:  "catch-up",
		why:   "a consumer replaying a backlog: closed-loop 64-event wire posts into a durable f32 replica, shed posts re-sent; full-batch f32 finalisation, WAL and admission dominate",
		users: 1000, tier: nn.TierF32, codec: statestore.CodecF32, durable: true,
		drive: (*runCtx).catchUp, readbackN: 6000, readbackConns: 2, readbackTimed: true,
	},
	{
		name:  "cluster-mixed",
		why:   "writes beside reads: a 5000 sessions/s JSON firehose through the router to 3 durable replicas with followers, plus 500/s open-loop wire predicts; routing, forwarding, WAL shipping",
		users: 10000, tier: nn.TierF64, codec: statestore.CodecFloat32, durable: true, cluster: true,
		drive: (*runCtx).clusterMixed, readbackN: 256, readbackConns: 1,
	},
}

const (
	// setupRepeats is how many times a run brings its stack up; setup_s
	// is the median and the last stack serves the timed phase.
	setupRepeats = 21
	// windows is how many equal windows the timed phase (and each latency
	// series) is cut into; the rates, CPU cost and latency quantiles are
	// medians over the windows, so a burst of interference from other
	// tenants of a shared machine that spans less than half of the run
	// does not move them.
	windows = 10
	// minPredictSamples is the fewest predict latencies a run may report.
	minPredictSamples = 1000
	samplerEvery      = 20 * time.Millisecond
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload {session-start|catch-up|cluster-mixed} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	rep, res, err := benchmark(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range []any{map[string]any{"report": rep}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench %s: encoding output: %v\n", w.name, err)
			return 1
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "e2ebench %s: correctness gate failed\n", w.name)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

// benchmark generates the inputs, makes the untraced run and, when asked,
// the traced one, and assembles the report and the result.
func benchmark(w *workload, seed uint64, seconds int, traced bool) (map[string]any, *result, error) {
	in, err := newStream(w.users, seed)
	if err != nil {
		return nil, nil, err
	}
	mcfg := core.DefaultConfig()
	mcfg.HiddenDim, mcfg.MLPHidden, mcfg.Seed = 128, 128, seed
	m := core.New(synth.MobileTabSchema(), mcfg)

	rep := map[string]any{"provenance": provenance(w, seed, seconds, traced, len(in.base))}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	var runs []any
	// add folds a run into the result and the report. The run is then
	// dropped, so it does not weigh on the next run's live heap.
	add := func(o *outcome) []metric {
		att, failed := o.rc.rec.totals()
		res.Attempted += att
		res.Failed += failed
		res.Correct = res.Correct && o.gate.Passed
		runs = append(runs, o.summary())
		rep["runs"] = runs
		return append(o.endToEnd(), o.loadgenMetrics()...)
	}
	o, err := measure(w, m, in, seed, seconds, nil)
	if err != nil {
		return nil, nil, err
	}
	plain := add(o)
	e2e := len(o.endToEnd())
	if !traced {
		for _, mt := range plain[:e2e] {
			res.Metrics[mt.name] = metricValue{mt.value, mt.unit}
		}
		return rep, res, nil
	}
	for _, mt := range plain[e2e:] {
		res.Metrics[mt.name] = metricValue{mt.value, mt.unit}
	}
	o = nil
	runtime.GC()
	o, err = measure(w, m, in, seed, seconds, newTracer())
	if err != nil {
		return nil, nil, fmt.Errorf("traced run: %w", err)
	}
	for i, mt := range add(o) {
		res.Metrics["trace_overhead."+mt.name] = metricValue{mt.value - plain[i].value, mt.unit}
	}
	for _, mt := range o.layers {
		res.Metrics[mt.name] = metricValue{mt.value, mt.unit}
	}
	if err := o.rc.tr.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	return rep, res, nil
}

// outcome is one measured run.
type outcome struct {
	w          *workload
	setups     []float64 // seconds per stack bring-up
	rc         *runCtx
	cpuSeconds float64 // process user+sys over the timed phase
	// liveHeapMB is the heap in use after a forced GC at the end of the
	// timed phase, less the load generator's sample buffers.
	liveHeapMB float64
	gate       gateReport
	layers     []metric // traced runs only
	// phases is the wall time each phase of the run took, in seconds.
	phases map[string]float64
}

// counters is the sum of the replicas' server and store counters.
type counters struct {
	updates, batches, predicts, coldStarts, snapshots int64
}

func (s *stack) counters() counters {
	var c counters
	for _, r := range s.replicas {
		st := r.srv.Stats()
		c.updates += st.UpdatesRun
		c.batches += st.Batches
		c.predicts += st.Predicts
		c.coldStarts += st.ColdStarts
		c.snapshots += r.st.Lifecycle().Snapshots
	}
	return c
}

func (s *stack) setTaps(on bool) {
	for _, r := range s.replicas {
		if r.tap != nil {
			r.tap.on.Store(on)
		}
	}
	if s.routerTap != nil {
		s.routerTap.on.Store(on)
	}
}

// forwarding sums the router's forward attempts and retries (/statz).
func (s *stack) forwarding() (attempts, retries int64, err error) {
	var st cluster.Statz
	if err := getJSON(s.ctl, s.base+"/statz", &st); err != nil {
		return 0, 0, err
	}
	for _, f := range st.Forwarding {
		attempts += f.Attempts
		retries += f.Retries
	}
	return attempts, retries, nil
}

// getJSON decodes the 200 answer of GET url into out.
func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// measure brings the stack up setupRepeats times, runs the timed phase on
// the last one, reads back, checks the gates and, when traced, derives
// the per-layer metrics.
func measure(w *workload, m *core.Model, in *stream, seed uint64, seconds int, tr *tracer) (*outcome, error) {
	root := filepath.Join(".bench_build", "state", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(root)
	o := &outcome{w: w, phases: map[string]float64{}}
	mark := time.Now()
	phase := func(name string) {
		o.phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	var st *stack
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			st.stop()
		}
		t := time.Now()
		s, err := startStack(w, m, filepath.Join(root, strconv.Itoa(k)), tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		o.setups = append(o.setups, time.Since(t).Seconds())
		st = s
	}
	defer st.stop()
	phase("setup")
	rc := &runCtx{in: in, seed: seed, seconds: float64(seconds), st: st, tr: tr, rec: newRecorder()}
	o.rc = rc

	var fwd0, retry0 int64
	if tr != nil && w.cluster {
		var err error
		if fwd0, retry0, err = st.forwarding(); err != nil {
			return nil, err
		}
	}
	c0 := st.counters()
	runtime.GC()
	cpu0 := cpuSeconds()
	rt0, err := readRuntime()
	if err != nil {
		return nil, err
	}
	var sm *sampler
	if tr != nil {
		st.setTaps(true)
		sm = startSampler(st, samplerEvery)
	}
	rc.t0 = time.Now()
	stopMarks := cpuWindowMarks(rc.t0, rc.seconds, cpu0)
	driveErr := w.drive(rc)
	cpu1 := cpuSeconds()
	rc.cpuMarks = append(stopMarks(), cpu1)
	o.cpuSeconds = cpu1 - cpu0
	rt1, _ := readRuntime() // the names were checked by the first read
	if sm != nil {
		sm.finish()
		st.setTaps(false)
	}
	if driveErr != nil {
		return nil, driveErr
	}
	// The forward counters are read before the read-back and the gates,
	// whose predicts and /digest fan-out the router also forwards.
	var fwd, retries int64
	if tr != nil && w.cluster {
		f1, r1, err := st.forwarding()
		if err != nil {
			return nil, err
		}
		fwd, retries = f1-fwd0, r1-retry0
	}
	var caughtUp time.Duration
	if w.cluster {
		if err := st.waitFollowers(30 * time.Second); err != nil {
			return nil, err
		}
		caughtUp = time.Since(rc.end)
	}
	c1 := st.counters()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.liveHeapMB = float64(ms.HeapAlloc-rc.rec.bufferBytes()) / (1 << 20)
	rc.accepted = rc.acceptedSessions()

	phase("timed")
	cl := wire.NewClient(st.wireAddr, wire.ClientOptions{Conns: w.readbackConns})
	key := "readback.predict"
	if w.readbackTimed {
		key = "timed.predict"
	}
	err = rc.readbackPhase(cl, w.readbackConns, w.readbackN, key)
	cl.Close()
	if err != nil {
		return nil, err
	}
	if n := len(rc.rec.predictLat); n < minPredictSamples {
		return nil, fmt.Errorf("only %d predict latencies (need %d)", n, minPredictSamples)
	}
	phase("readback")
	ref, err := o.checkGates(m)
	if err != nil {
		return nil, err
	}
	phase("gates")
	if tr == nil {
		return o, nil
	}

	batch := ratio(float64(c1.updates-c0.updates), float64(c1.batches-c0.batches))
	lr, err := runLadder(m, w, in, rc.accepted, ref, rc.readback, int(math.Round(batch)))
	if err != nil {
		return nil, err
	}
	phase("ladder")
	o.layers = o.layerMetrics(layerInputs{
		c0: c0, c1: c1, rt0: rt0, rt1: rt1, sm: sm, lr: lr, batch: batch,
		forwards: fwd, forwardRetries: retries, caughtUp: caughtUp,
	})
	return o, nil
}

// summary is the report entry of one run.
func (o *outcome) summary() map[string]any {
	rec := o.rc.rec
	metrics := map[string]float64{}
	for _, mt := range append(o.endToEnd(), o.loadgenMetrics()...) {
		metrics[mt.name] = mt.value
	}
	s := map[string]any{
		"traced":            o.rc.tr != nil,
		"setup_s":           o.setups,
		"sessions_accepted": rec.sessionCount(),
		"predict_samples":   len(rec.predictLat),
		"event_samples":     len(rec.eventLat),
		"late_p99_ms":       quantile(rec.late, 0.99),
		"behind_ms":         float64(o.rc.behind.Nanoseconds()) / 1e6,
		"pooled": map[string]float64{
			"sessions_per_s":     ratio(float64(rec.sessionCount()), o.rc.end.Sub(o.rc.t0).Seconds()),
			"cpu_us_per_session": ratio(o.cpuSeconds*1e6, float64(rec.sessionCount())),
			"predict_p50_ms":     quantile(millis(rec.predictLat), 0.50),
			"predict_p99_ms":     quantile(millis(rec.predictLat), 0.99),
			"event_p50_ms":       quantile(millis(rec.eventLat), 0.50),
			"event_p99_ms":       quantile(millis(rec.eventLat), 0.99),
		},
		"shed_retries": rec.shedRetries,
		"ops":          rec.ops,
		"gate":         o.gate,
		"phase_s":      o.phases,
		"metrics":      metrics,
	}
	if rec.firstErr != nil {
		s["first_error"] = rec.firstErr.Error()
	}
	if o.layers != nil {
		l := map[string]float64{}
		for _, mt := range o.layers {
			l[mt.name] = mt.value
		}
		s["layers"] = l
	}
	return s
}

// provenance describes the environment and inputs of the result, so runs
// from different machines or code are never compared.
func provenance(w *workload, seed uint64, seconds int, traced bool, logSessions int) map[string]any {
	return map[string]any{
		"workload":     w.name,
		"why":          w.why,
		"seed":         seed,
		"seconds":      seconds,
		"traced":       traced,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"source":       sourceDigest(),
		"setup_repeat": setupRepeats,
		"params": map[string]any{
			"users": w.users, "log_sessions": logSessions, "tier": w.tier.String(), "codec": w.codec.String(),
			"durable": w.durable, "cluster": w.cluster, "hidden_dim": 128, "mlp_hidden": 128,
			"session_start_rate": sessionStartRate, "cluster_event_rate": clusterEventRate, "cluster_predict_rate": clusterPredRate,
			"readback_rate": readbackRate, "readback_predicts": w.readbackN, "readback_timed": w.readbackTimed,
			"events_per_post": eventsPerPost, "shed_backoff_ms": shedBackoff.Seconds() * 1e3,
			"server_options": "defaults (lanes=GOMAXPROCS, max_batch 32, max_wait 2ms, lane_depth 256)",
		},
	}
}

// sourceDigest hashes the repository's Go sources and module files, the
// stand-in for a commit in a checkout that is not a git repository.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); !d.IsDir() && (ext == ".go" || ext == ".s" || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unreadable: " + err.Error()
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("sha256:%s (%d files)", hex.EncodeToString(h.Sum(nil)), len(files))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuWindowMarks reads the process CPU time at each inner window boundary
// of a timed phase starting at t0, after the reading first at t0. The
// returned stop ends the readings and returns them.
func cpuWindowMarks(t0 time.Time, seconds, first float64) (stop func() []float64) {
	marks := make(chan []float64, 1)
	done := make(chan struct{})
	go func() {
		m := []float64{first}
		defer func() { marks <- m }()
		for k := 1; k < windows; k++ {
			t := time.NewTimer(time.Until(t0.Add(time.Duration(float64(k) * seconds / windows * float64(time.Second)))))
			select {
			case <-t.C:
				m = append(m, cpuSeconds())
			case <-done:
				t.Stop()
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-marks
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
