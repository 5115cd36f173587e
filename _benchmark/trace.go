package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
)

// The traced run records spans and counters at the boundaries the
// benchmark owns: its own client calls, a serving.Store wrapper around
// each replica's store, and an http.Handler wrapper around the router.
// Nothing inside the program is instrumented. Spans stay in memory and
// are written out when the run ends; the untraced run creates no tracer,
// so none of this code is on its path.

// spanHeader carries a client span's ID to the router's handler wrapper,
// which records its own span as the child.
const spanHeader = "X-Bench-Span"

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBlock is the allocation unit of span storage: fixed blocks, so
// recording never copies what it already holds.
const spanBlock = 8192

// tracer collects spans; a nil tracer records nothing.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	blocks [][]span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span ID (0 from a nil tracer).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores one finished span.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	sp := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	if n := len(t.blocks); n == 0 || len(t.blocks[n-1]) == spanBlock {
		t.blocks = append(t.blocks, make([]span, 0, spanBlock))
	}
	last := &t.blocks[len(t.blocks)-1]
	*last = append(*last, sp)
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.blocks {
		for i := range b {
			if err := enc.Encode(&b[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hist is a lock-free log-linear histogram of durations: 16 buckets per
// power of two, so quantiles are exact to about 4% before the
// within-bucket interpolation.
type hist struct {
	n       atomic.Int64
	buckets [64 * 16]atomic.Int64
}

func bucketOf(ns int64) int {
	if ns < 16 {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1 // ns in [2^e, 2^(e+1))
	return (e-3)*16 + int(uint64(ns)>>(e-4)&15)
}

// bucketRange inverts bucketOf: bucket b covers [lo, hi) nanoseconds.
func bucketRange(b int) (lo, hi float64) {
	if b < 16 {
		return float64(b), float64(b + 1)
	}
	e := b/16 + 3
	step := math.Ldexp(1, e-4)
	lo = math.Ldexp(1, e) + float64(b%16)*step
	return lo, lo + step
}

func (h *hist) add(d time.Duration) {
	ns := d.Nanoseconds()
	h.n.Add(1)
	h.buckets[bucketOf(ns)].Add(1)
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	h.n.Add(o.n.Load())
	for b := range h.buckets {
		h.buckets[b].Add(o.buckets[b].Load())
	}
}

// quantile returns the q-quantile in nanoseconds, interpolating inside
// the bucket that holds the rank (0 when empty).
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for b := range h.buckets {
		c := float64(h.buckets[b].Load())
		if c > 0 && cum+c >= rank {
			lo, hi := bucketRange(b)
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	lo, _ := bucketRange(len(h.buckets) - 1)
	return lo
}

// storeTap wraps a replica's serving.Store and times Get and Put while
// on is set (the timed phase), so digest reads and the reference replay
// stay out of the counts.
type storeTap struct {
	next    serving.Store
	on      atomic.Bool
	gets    hist
	puts    hist
	putBusy atomic.Int64 // ns spent in Put
}

func (s *storeTap) Get(key string) ([]byte, bool) {
	if !s.on.Load() {
		return s.next.Get(key)
	}
	t := time.Now()
	v, ok := s.next.Get(key)
	s.gets.add(time.Since(t))
	return v, ok
}

func (s *storeTap) Put(key string, value []byte) {
	if !s.on.Load() {
		s.next.Put(key, value)
		return
	}
	t := time.Now()
	s.next.Put(key, value)
	d := time.Since(t)
	s.puts.add(d)
	s.putBusy.Add(d.Nanoseconds())
}

func (s *storeTap) Delete(key string)    { s.next.Delete(key) }
func (s *storeTap) Keys() []string       { return s.next.Keys() }
func (s *storeTap) Stats() serving.Stats { return s.next.Stats() }

// handlerTap wraps the router's HTTP front door and times its event
// posts while on is set.
type handlerTap struct {
	next  http.Handler
	tr    *tracer
	on    atomic.Bool
	event hist
}

func (h *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	h.next.ServeHTTP(w, r)
	if !h.on.Load() {
		return
	}
	if r.URL.Path != "/event" {
		return
	}
	end := time.Now()
	h.event.add(end.Sub(t))
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	h.tr.record(h.tr.newID(), parent, "router"+r.URL.Path, t, end)
}

// rtSample is a reading of the runtime counters the run reports deltas
// of.
type rtSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() (rtSample, error) {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindFloat64 || s[2].Value.Kind() != metrics.KindFloat64 {
		return rtSample{}, fmt.Errorf("runtime/metrics does not support %v", rtNames)
	}
	return rtSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}, nil
}

// sampler polls the replicas' Server.Stats and the followers' status at a
// low rate during the timed phase of a traced run.
type sampler struct {
	stop       chan struct{}
	done       chan struct{}
	backlogMax int
	lagMax     int64
}

func startSampler(s *stack, every time.Duration) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			backlog := 0
			for _, r := range s.replicas {
				backlog += r.srv.Stats().Inflight
			}
			sm.backlogMax = max(sm.backlogMax, backlog)
			for _, f := range s.followers {
				sm.lagMax = max(sm.lagMax, f.primary.st.WALSeq()-f.f.Status().LastSeq)
			}
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return sm
}

// finish stops the sampler and waits for it; its fields are then safe to
// read.
func (sm *sampler) finish() {
	close(sm.stop)
	<-sm.done
}
