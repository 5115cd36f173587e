package serving

import (
	"repro/internal/core"
	"repro/internal/tensor"
)

// Batched session finalisation: instead of advancing one GRU per due
// session (2 matrix-vector products each, re-streaming the 3h×d weight
// matrices from memory every time), due sessions are drained in groups and
// advanced through the batched cell — two GEMMs per wave, weights read
// once per wave.
//
// Correctness hinges on per-user update order (the only order RNNupdate
// depends on): a drained group may hold several sessions of the same user,
// so the group is partitioned into "waves" by per-user step depth — a
// user's k-th session in the group lands in wave k — and the waves run
// sequentially. Within a wave every row belongs to a distinct user, so the
// wave's reads all precede its writes safely, and stored states stay
// byte-identical to the sequential per-session path (pinned by
// TestBatchedFinalisationMatchesSequential).

// waves is the wave partition of one drained group, shared by both tiers'
// batch kernels.
type waves struct {
	// seen counts sessions per user within the group; wave holds each
	// session's assigned wave; rows indexes the current wave's sessions.
	seen map[int]int
	wave []int
	rows []int
}

// each partitions due by per-user step depth — a user's k-th session in
// the group lands in wave k — and calls apply once per wave, in wave
// order, with the wave's row indices into due.
func (wv *waves) each(due []DueSession, apply func(rows []int)) {
	if wv.seen == nil {
		wv.seen = make(map[int]int)
	}
	clear(wv.seen)
	wv.wave = wv.wave[:0]
	maxWave := 0
	for _, d := range due {
		w := wv.seen[d.UserID]
		wv.seen[d.UserID] = w + 1
		wv.wave = append(wv.wave, w)
		if w > maxWave {
			maxWave = w
		}
	}
	for w := 0; w <= maxWave; w++ {
		wv.rows = wv.rows[:0]
		for i, bw := range wv.wave {
			if bw == w {
				wv.rows = append(wv.rows, i)
			}
		}
		apply(wv.rows)
	}
}

// batchScratch holds the reusable buffers of the batched finalisation hot
// path — one per BatchFinalizer.
type batchScratch struct {
	scalar *updateScratch // singleton waves take the scalar path
	arena  *tensor.Arena
	enc    []byte
	waves  waves
	// keys holds the current wave's KV keys (built once, used for Get and
	// Put).
	keys []string
}

// newBatchScratch sizes the arena for the worst-case wave (maxBatch rows
// of state/input/next panels plus the cell's gate panels) so the batched
// path never allocates after construction.
func newBatchScratch(m *core.Model, maxBatch int) *batchScratch {
	panel := maxBatch * (2*m.StateSize() + m.UpdateDim())
	return &batchScratch{
		scalar: newUpdateScratch(m),
		arena:  tensor.NewArena(panel + m.BatchUpdateScratchSize(maxBatch)),
		keys:   make([]string, 0, maxBatch),
	}
}

// applySessionUpdateBatch finalises a group of due sessions through the
// batched cell, preserving per-user order via wave partitioning. The group
// must be in finalisation (timer) order.
func applySessionUpdateBatch(model *core.Model, store Store, due []DueSession, bs *batchScratch) {
	if len(due) == 1 {
		applySessionUpdate(model, store, &due[0], bs.scalar)
		return
	}
	bs.waves.each(due, func(rows []int) { bs.applyWave(model, store, due, rows) })
}

// applyWave runs one wave of the group: gather states and inputs into
// panels, one batched cell advance, scatter the results back to the store.
// Get/Put counts per session match the scalar path exactly.
func (bs *batchScratch) applyWave(model *core.Model, store Store, due []DueSession, rows []int) {
	if len(rows) == 1 {
		applySessionUpdate(model, store, &due[rows[0]], bs.scalar)
		return
	}
	w := len(rows)
	bs.arena.Reset()
	states := bs.arena.Matrix(w, model.StateSize())
	xs := bs.arena.Matrix(w, model.UpdateDim())
	next := bs.arena.Matrix(w, model.StateSize())
	bs.keys = bs.keys[:0]
	for r, i := range rows {
		d := &due[i]
		bs.keys = append(bs.keys, hiddenKey(d.UserID))
		row := states.Row(r)
		var lastTS int64
		decoded := false
		if raw, found := store.Get(bs.keys[r]); found {
			lastTS, decoded = DecodeHiddenInto(raw, row)
		}
		if !decoded {
			row.Zero() // h_0 (§6.1)
			lastTS = 0
		}
		var dt int64
		if lastTS != 0 {
			dt = d.Start - lastTS
		}
		model.BuildUpdateInput(d.Start, d.Cat, d.Accessed, dt, xs.Row(r))
	}
	model.UpdateStatesInto(next, states, xs, bs.arena)
	for r, i := range rows {
		bs.enc = EncodeHiddenInto(bs.enc, next.Row(r), due[i].Start)
		store.Put(bs.keys[r], bs.enc)
	}
}
