package serving

import (
	"container/heap"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The stream processor reproduces §9's update pipeline: context variables
// are published at session start, access events arrive during the session,
// both tagged by session ID; a timer fires after the session length (+
// processing lag ε), at which point the processor joins the buffered
// events, retrieves the user's hidden state, executes the GRU part of the
// model and writes the new hidden state back.

// timerEntry schedules a session finalisation.
type timerEntry struct {
	fireAt    int64
	sessionID string
}

type timerHeap []timerEntry

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].fireAt < h[j].fireAt }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// StreamProcessor consumes session-start and access events (the Kafka
// analogue) and maintains per-user hidden states in the KV store.
type StreamProcessor struct {
	model *core.Model
	store Store
	// Epsilon is the processing lag ε added to the session length before
	// the finalisation timer fires.
	Epsilon int64

	// buffers holds each in-flight session's joined events until its
	// timer fires.
	buffers map[string]*DueSession
	timers  timerHeap
	now     int64

	// precision selects the compute tier of finalisation: TierF64 (the
	// bit-exact training reference, default) or TierF32 (the fused float32
	// kernels; see SetPrecision). The stored wire format is the same either
	// way, so the tier can be switched mid-replay without a store rewrite.
	precision nn.PrecisionTier

	// inferBatch > 1 drains due sessions in groups of up to that size and
	// finalises them through the batched GEMM cell path (see batch.go).
	// Inline finalisation runs through fin, built on first use at the
	// current batch size and tier; due collects the group being drained.
	inferBatch int
	fin        *BatchFinalizer
	due        []DueSession

	// sink, when set, receives due sessions instead of inline finalisation
	// (the async submit seam; see async.go).
	sink func(DueSession)

	// UpdatesRun counts GRU executions (the paper's most expensive model
	// component runs once per session, off the critical path).
	UpdatesRun int64
}

// NewStreamProcessor wires a model and store.
func NewStreamProcessor(model *core.Model, store Store) *StreamProcessor {
	return &StreamProcessor{
		model:   model,
		store:   store,
		Epsilon: core.DefaultEpsilon,
		buffers: make(map[string]*DueSession),
	}
}

// SetInferBatch selects batched finalisation: due sessions are drained in
// groups of up to n and advanced through the batched cell, which computes
// all gate pre-activations as two GEMMs per wave instead of two
// matrix-vector products per session. n <= 1 restores the per-session
// path. Stored states are byte-identical either way.
func (p *StreamProcessor) SetInferBatch(n int) {
	p.inferBatch, p.fin = n, nil
}

// SetPrecision selects the finalisation compute tier. TierF32 routes
// session updates through the fused float32 kernels — roughly 2-4× the f64
// throughput at the paper's hidden sizes — and requires a cell with an f32
// tier (the GRU; stacked/LSTM/tanh cells return an error). All f32 paths
// store bit-identical states; agreement with the f64 tier is bounded-error
// (see DESIGN.md "Precision tiers"). Not safe to call concurrently with
// event ingestion.
func (p *StreamProcessor) SetPrecision(t nn.PrecisionTier) error {
	if t == nn.TierF32 && !p.model.SupportsF32() {
		return fmt.Errorf("serving: %s cell has no f32 inference tier", p.model.Cfg.Cell)
	}
	p.precision, p.fin = t, nil
	return nil
}

// Precision returns the finalisation compute tier.
func (p *StreamProcessor) Precision() nn.PrecisionTier { return p.precision }

// hiddenKey is the per-user KV key.
func hiddenKey(userID int) string { return "h:" + strconv.Itoa(userID) }

// HiddenKey exposes the per-user KV key to the cluster tier: a user's ring
// position is the hash of their hidden-state key, so routing a user and
// matching their stored key against a hash arc agree by construction.
func HiddenKey(userID int) string { return hiddenKey(userID) }

// UserKeyHash is KeyHash(HiddenKey(userID)) computed without building the
// key string. The router's splice path calls it once per event, so the
// digits render into a stack buffer and hash in place; a test pins the
// equivalence against the string path.
func UserKeyHash(userID int) uint32 {
	var buf [24]byte
	b := append(buf[:0], 'h', ':')
	b = strconv.AppendInt(b, int64(userID), 10)
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime
	}
	return h
}

// updateScratch holds the reusable buffers of the singleton-wave
// finalisation path — one per BatchFinalizer, so GRU updates run
// allocation-free apart from the store's defensive copies.
type updateScratch struct {
	state, next, in, cell tensor.Vector
	enc                   []byte
}

func newUpdateScratch(m *core.Model) *updateScratch {
	return &updateScratch{
		state: tensor.NewVector(m.StateSize()),
		next:  tensor.NewVector(m.StateSize()),
		in:    tensor.NewVector(m.UpdateDim()),
		cell:  tensor.NewVector(m.UpdateScratchSize()),
	}
}

// Advance moves the virtual clock to ts, firing any due timers in order.
// Due sessions are finalised inline in groups of up to the infer batch or,
// with a sink set (SetSink), submitted to it instead.
func (p *StreamProcessor) Advance(ts int64) {
	for len(p.timers) > 0 && p.timers[0].fireAt <= ts {
		e := heap.Pop(&p.timers).(timerEntry)
		p.now = e.fireAt
		d, ok := p.buffers[e.sessionID]
		if !ok {
			continue
		}
		delete(p.buffers, e.sessionID)
		if p.sink != nil {
			p.sink(*d)
			continue
		}
		p.due = append(p.due, *d)
		if len(p.due) >= p.inferBatch {
			p.finalizeDue()
		}
	}
	if len(p.due) > 0 {
		p.finalizeDue()
	}
	if ts > p.now {
		p.now = ts
	}
}

// finalizeDue runs the collected group through the inline finalizer.
// Groups are cut in drain order and the finalizer's wave partition keeps
// per-user order inside each, so stored states match per-session
// finalisation byte for byte at any batch size.
func (p *StreamProcessor) finalizeDue() {
	if p.fin == nil {
		f, err := NewBatchFinalizerTier(p.model, p.store, p.inferBatch, p.precision)
		if err != nil {
			panic(err) // unreachable: SetPrecision validated the tier
		}
		p.fin = f
	}
	p.fin.Finalize(p.due)
	p.UpdatesRun += int64(len(p.due))
	p.due = p.due[:0]
}

// OnSessionStart records the context of a new session and arms its
// finalisation timer.
func (p *StreamProcessor) OnSessionStart(sessionID string, userID int, ts int64, cat []int) {
	p.Advance(ts)
	p.buffers[sessionID] = &DueSession{
		UserID: userID,
		Start:  ts,
		Cat:    append([]int(nil), cat...),
	}
	heap.Push(&p.timers, timerEntry{
		fireAt:    ts + p.model.Schema.SessionLength + p.Epsilon,
		sessionID: sessionID,
	})
}

// OnAccess records an access event for an in-flight session. Events for
// unknown or already-finalised sessions are dropped (matching at-most-once
// buffering semantics).
func (p *StreamProcessor) OnAccess(sessionID string, ts int64) {
	p.Advance(ts)
	if d, ok := p.buffers[sessionID]; ok {
		d.Accessed = true
	}
}

// applySessionUpdate is the per-session finalisation step, the batch
// kernel's singleton-wave path: read the user's hidden state, fold the
// session in with RNNupdate, write the new state back. Model inference is
// read-only and the Store implementations are concurrency-safe, so this is
// safe to run from many goroutines as long as no two run for the same user
// at once and each caller owns its scratch.
func applySessionUpdate(model *core.Model, store Store, d *DueSession, sc *updateScratch) {
	key := hiddenKey(d.UserID)
	var lastTS int64
	decoded := false
	if raw, found := store.Get(key); found {
		// DecodeHiddenInto fails on a dimension mismatch, which doubles as
		// the stale-state check (len == StateSize) of the scratch-free path.
		lastTS, decoded = DecodeHiddenInto(raw, sc.state)
	}
	if !decoded {
		sc.state.Zero() // h_0 (§6.1)
		lastTS = 0
	}
	var dt int64
	if lastTS != 0 {
		dt = d.Start - lastTS
	}
	in := model.BuildUpdateInput(d.Start, d.Cat, d.Accessed, dt, sc.in)
	model.UpdateStateInto(sc.next, sc.state, in, sc.cell)
	sc.enc = EncodeHiddenInto(sc.enc, sc.next, d.Start)
	store.Put(key, sc.enc)
}

// Flush fires all outstanding timers regardless of the clock (end of
// replay).
func (p *StreamProcessor) Flush() {
	if len(p.timers) == 0 {
		return
	}
	last := p.timers[0].fireAt
	for _, e := range p.timers {
		if e.fireAt > last {
			last = e.fireAt
		}
	}
	p.Advance(last)
}

// Pending returns the number of in-flight sessions.
func (p *StreamProcessor) Pending() int { return len(p.buffers) }
