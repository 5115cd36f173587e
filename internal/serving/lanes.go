package serving

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// Lanes is the finalisation back half of §9's update pipeline, partitioned
// by user like a keyed Kafka consumer group: due sessions from a
// StreamProcessor sink (SetSink(lanes.Submit)) park in bounded per-lane
// queues, and one flusher goroutine per lane coalesces them — flush on
// MaxBatch or MaxWait — into its own BatchFinalizer. A user always hashes
// to the same lane (UserLane), so per-user update order, the only order
// RNNupdate depends on, is preserved while different users' GRU updates run
// concurrently; stored states stay byte-identical to inline finalisation.
//
// The online server and the replay drivers share this one pipeline. Submit
// must be called from one goroutine at a time (the processor's caller
// serialises it); Wait, Overloaded and the counters are safe from any
// goroutine. Flushers never call back into the processor, so a blocking
// Submit under the caller's ingest lock cannot deadlock.
type Lanes struct {
	lanes       []chan DueSession
	flushers    sync.WaitGroup
	maxInflight int

	// inflight counts submitted-but-unfinalised sessions; cond wakes Wait
	// when the pipeline drains.
	inflightMu   sync.Mutex
	inflightCond *sync.Cond
	inflight     int

	updatesRun atomic.Int64
	batches    atomic.Int64
}

// LaneOptions configures a Lanes pool.
type LaneOptions struct {
	// Lanes is the number of queues, each drained by one flusher goroutine
	// (<=0 selects GOMAXPROCS).
	Lanes int
	// MaxBatch flushes a queue once this many sessions are coalesced; it
	// also bounds the GEMM batch (<1 selects 1, per-session finalisation).
	MaxBatch int
	// MaxWait is how long a flusher waits for a partial batch to fill after
	// greedily taking what is parked. <=0 flushes greedily, never waiting.
	MaxWait time.Duration
	// LaneDepth bounds each queue (<=0 selects DefaultLaneDepth). A full
	// queue blocks Submit; Overloaded reports it so callers can shed first.
	LaneDepth int
	// Precision is the finalisation compute tier of every flusher.
	Precision nn.PrecisionTier
}

// DefaultLaneDepth is the per-lane queue bound when LaneOptions leaves it
// unset.
const DefaultLaneDepth = 256

// NewLanes starts the flusher goroutines. The store must be safe for
// concurrent use. TierF32 requires a cell with an f32 inference tier.
func NewLanes(model *core.Model, store Store, o LaneOptions) (*Lanes, error) {
	if o.Lanes <= 0 {
		o.Lanes = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = 1
	}
	if o.LaneDepth <= 0 {
		o.LaneDepth = DefaultLaneDepth
	}
	fins := make([]*BatchFinalizer, o.Lanes)
	for i := range fins {
		f, err := NewBatchFinalizerTier(model, store, o.MaxBatch, o.Precision)
		if err != nil {
			return nil, err
		}
		fins[i] = f
	}
	l := &Lanes{
		lanes:       make([]chan DueSession, o.Lanes),
		maxInflight: o.Lanes * o.LaneDepth,
	}
	l.inflightCond = sync.NewCond(&l.inflightMu)
	for i, fin := range fins {
		lane := make(chan DueSession, o.LaneDepth)
		l.lanes[i] = lane
		l.flushers.Add(1)
		go l.runFlusher(lane, fin, o.MaxBatch, o.MaxWait)
	}
	return l, nil
}

// UserLane maps a user to one of n lanes (Fibonacci mix over the raw ID —
// no key string is built). It is THE user-partitioning function: the
// finalisation lanes and the load generator's connection sharding both
// call it, so "all of a user's sessions ride one lane" holds by
// construction across every tier.
func UserLane(userID, n int) int {
	h := uint32(userID) * 2654435761
	return int(h % uint32(n))
}

// Submit hands a due session to its user's lane — the StreamProcessor
// sink. Calls in drain order keep each lane FIFO in drain order. The send
// blocks while the lane is full.
func (l *Lanes) Submit(d DueSession) {
	l.inflightMu.Lock()
	l.inflight++
	l.inflightMu.Unlock()
	l.lanes[UserLane(d.UserID, len(l.lanes))] <- d
}

// retire counts n finalised sessions and wakes Wait when the pipeline
// drains.
func (l *Lanes) retire(n int) {
	l.updatesRun.Add(int64(n))
	l.inflightMu.Lock()
	l.inflight -= n
	if l.inflight == 0 {
		l.inflightCond.Broadcast()
	}
	l.inflightMu.Unlock()
}

// Wait blocks until every submitted session is finalised in the store.
// Advance followed by Wait gives replays the inline path's
// read-your-writes behaviour.
func (l *Lanes) Wait() {
	l.inflightMu.Lock()
	for l.inflight > 0 {
		l.inflightCond.Wait()
	}
	l.inflightMu.Unlock()
}

// Inflight returns the number of submitted-but-unfinalised sessions.
func (l *Lanes) Inflight() int {
	l.inflightMu.Lock()
	defer l.inflightMu.Unlock()
	return l.inflight
}

// Overloaded reports whether the backlog has reached the admission
// watermark — Lanes×LaneDepth in flight, or any single lane full. The
// per-lane check matters under skew: a hot lane fills long before the
// global watermark trips, and a Submit into it would block the caller's
// ingest lock instead of letting it shed. Channel len/cap reads are racy
// by nature; admission is approximate and errs by shedding early, never
// by unbounded queueing.
func (l *Lanes) Overloaded() bool {
	if l.Inflight() >= l.maxInflight {
		return true
	}
	for _, lane := range l.lanes {
		if len(lane) == cap(lane) {
			return true
		}
	}
	return false
}

// UpdatesRun counts finalised sessions.
func (l *Lanes) UpdatesRun() int64 { return l.updatesRun.Load() }

// Batches counts flushed batches (UpdatesRun/Batches is the mean batch).
func (l *Lanes) Batches() int64 { return l.batches.Load() }

// Close stops the pool: flushers finalise whatever is parked and exit, and
// Close returns once they have. Submit must not be called after (or
// concurrently with) Close.
func (l *Lanes) Close() {
	for _, lane := range l.lanes {
		close(lane)
	}
	l.flushers.Wait()
}

// runFlusher drains one lane: take the first parked session, coalesce up
// to maxBatch (waiting at most maxWait for stragglers), then finalise the
// batch through the wave-partitioned GEMM cell.
func (l *Lanes) runFlusher(lane chan DueSession, fin *BatchFinalizer, maxBatch int, maxWait time.Duration) {
	defer l.flushers.Done()
	batch := make([]DueSession, 0, maxBatch)
	timer := NewStoppedTimer()
	for d := range lane {
		batch = append(batch[:0], d)
		FillBatch(lane, &batch, maxBatch, maxWait, timer)
		fin.Finalize(batch)
		l.batches.Add(1)
		l.retire(len(batch))
	}
}

// NewStoppedTimer returns a stopped timer for FillBatch to re-arm. One
// timer per flusher goroutine replaces a time.NewTimer per partial flush;
// with Go 1.23+ timer semantics Stop and Reset need no channel drain.
func NewStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// FillBatch coalesces queued items into batch: greedily take whatever is
// already parked, then wait up to maxWait (on the caller's timer) for a
// fuller flush. Flushes early when the batch fills or the queue closes;
// maxWait <= 0 is a greedy drain that never waits.
func FillBatch[T any](q chan T, batch *[]T, maxBatch int, maxWait time.Duration, timer *time.Timer) {
	for len(*batch) < maxBatch {
		select {
		case d, ok := <-q:
			if !ok {
				return
			}
			*batch = append(*batch, d)
			continue
		default:
		}
		if maxWait <= 0 {
			return
		}
		timer.Reset(maxWait)
		for len(*batch) < maxBatch {
			select {
			case d, ok := <-q:
				if !ok {
					timer.Stop()
					return
				}
				*batch = append(*batch, d)
			case <-timer.C:
				return
			}
		}
		timer.Stop()
		return
	}
}
