package serving

import (
	"repro/internal/core"
	"repro/internal/tensor"
)

// f32 fast-tier finalisation: the same read→update→write pipeline as
// applySessionUpdate/applySessionUpdateBatch, threaded through the model's
// float32 fused GRU kernels. The wire format is shared with the f64 tier
// (the store is float32 already), so switching tiers never rewrites the
// store — an f64-written state decodes losslessly into the f32 path and
// vice versa. Within the f32 tier every path (scalar, batched, parallel)
// stores bit-identical states, exactly like the f64 tier; across tiers the
// agreement is bounded-error, pinned by TestF32TierBoundedErrorVsF64.

// updateScratch32 is updateScratch for the f32 tier.
type updateScratch32 struct {
	state, next, in, cell tensor.Vector32
	enc                   []byte
}

func newUpdateScratch32(m *core.Model) *updateScratch32 {
	return &updateScratch32{
		state: tensor.NewVector32(m.StateSize()),
		next:  tensor.NewVector32(m.StateSize()),
		in:    tensor.NewVector32(m.UpdateDim32()),
		cell:  tensor.NewVector32(m.UpdateScratchSize32()),
	}
}

// applySessionUpdate32 is applySessionUpdate on the f32 tier: same store
// traffic (one Get, one Put), same h_0 and Δt semantics, float32 compute.
func applySessionUpdate32(model *core.Model, store Store, d *DueSession, sc *updateScratch32) {
	key := hiddenKey(d.UserID)
	var lastTS int64
	decoded := false
	if raw, found := store.Get(key); found {
		lastTS, decoded = DecodeHiddenInto32(raw, sc.state)
	}
	if !decoded {
		sc.state.Zero() // h_0 (§6.1)
		lastTS = 0
	}
	var dt int64
	if lastTS != 0 {
		dt = d.Start - lastTS
	}
	in := model.BuildUpdateInput32(d.Start, d.Cat, d.Accessed, dt, sc.in)
	model.UpdateStateInto32(sc.next, sc.state, in, sc.cell)
	sc.enc = EncodeHiddenInto32(sc.enc, sc.next, d.Start)
	store.Put(key, sc.enc)
}

// batchScratch32 is batchScratch for the f32 tier. The input panel is
// UpdateDim32 wide (padded to the packed-kernel reduction width).
type batchScratch32 struct {
	scalar *updateScratch32 // singleton waves take the scalar path
	arena  *tensor.Arena32
	enc    []byte
	waves  waves
	keys   []string
}

func newBatchScratch32(m *core.Model, maxBatch int) *batchScratch32 {
	panel := maxBatch * (2*m.StateSize() + m.UpdateDim32())
	return &batchScratch32{
		scalar: newUpdateScratch32(m),
		arena:  tensor.NewArena32(panel + m.BatchUpdateScratchSize32(maxBatch)),
		keys:   make([]string, 0, maxBatch),
	}
}

// applySessionUpdateBatch32 is applySessionUpdateBatch on the f32 tier:
// the same wave partition (per-user step depth, waves sequential), float32
// panels and cell. Bit-identity with the scalar f32 path follows from the
// cell's row contract plus the shared per-row input routing.
func applySessionUpdateBatch32(model *core.Model, store Store, due []DueSession, bs *batchScratch32) {
	if len(due) == 1 {
		applySessionUpdate32(model, store, &due[0], bs.scalar)
		return
	}
	bs.waves.each(due, func(rows []int) { bs.applyWave(model, store, due, rows) })
}

// applyWave is batchScratch.applyWave on the f32 tier: gather, one batched
// f32 cell advance, scatter. Get/Put counts per session match the scalar
// path exactly.
func (bs *batchScratch32) applyWave(model *core.Model, store Store, due []DueSession, rows []int) {
	if len(rows) == 1 {
		applySessionUpdate32(model, store, &due[rows[0]], bs.scalar)
		return
	}
	w := len(rows)
	bs.arena.Reset()
	states := bs.arena.Matrix(w, model.StateSize())
	xs := bs.arena.Matrix(w, model.UpdateDim32())
	next := bs.arena.Matrix(w, model.StateSize())
	bs.keys = bs.keys[:0]
	for r, i := range rows {
		d := &due[i]
		bs.keys = append(bs.keys, hiddenKey(d.UserID))
		row := states.Row(r)
		var lastTS int64
		decoded := false
		if raw, found := store.Get(bs.keys[r]); found {
			lastTS, decoded = DecodeHiddenInto32(raw, row)
		}
		if !decoded {
			row.Zero() // h_0 (§6.1)
			lastTS = 0
		}
		var dt int64
		if lastTS != 0 {
			dt = d.Start - lastTS
		}
		model.BuildUpdateInput32(d.Start, d.Cat, d.Accessed, dt, xs.Row(r))
	}
	model.UpdateStatesInto32(next, states, xs, bs.arena)
	for r, i := range rows {
		bs.enc = EncodeHiddenInto32(bs.enc, next.Row(r), due[i].Start)
		store.Put(bs.keys[r], bs.enc)
	}
}
