package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/tensor"
)

// The layer ladder replays a traced run's own inputs, in process and on
// one goroutine, through the public layer entry points below the server:
// PredictionService.OnSessionStart, BatchFinalizer.Finalize and
// Model.UpdateStatesInto{,32}. Each rung costs the layer alone, at the
// batch size the run observed, so a change in an end-to-end number can be
// traced to the layer that moved.

// Work per rung: enough calls to time, few enough to keep the run short.
const (
	ladderPredicts = 5000
	ladderSessions = 8192
)

type ladderResult struct {
	predictUS            float64 // per OnSessionStart call
	finalizeUSPerSession float64 // per session through BatchFinalizer.Finalize
	updateUSPerSession   float64 // per row of Model.UpdateStatesInto{,32}
	updateFlops          float64 // per session, from the model's dimensions
}

// runLadder times the three rungs. accepted are the run's sorted session
// indices; ref is the reference store after the run's replay; targets
// are the read-back predicts; batch is the run's mean finalisation batch.
func runLadder(m *core.Model, w *workload, in *stream, accepted []int, ref serving.Store, targets []readbackResult, batch int) (ladderResult, error) {
	var lr ladderResult
	if len(targets) == 0 || len(accepted) == 0 {
		return lr, fmt.Errorf("ladder: the run has no predicts or sessions to replay")
	}
	batch = min(max(batch, 1), 32)

	svc := serving.NewPredictionService(m, ref, 0.5)
	var cat [2]int
	t := time.Now()
	for i := 0; i < ladderPredicts; i++ {
		r := targets[i%len(targets)]
		svc.OnSessionStart(int(r.s.user), r.ts, r.s.catInts(&cat))
	}
	lr.predictUS = float64(time.Since(t).Nanoseconds()) / 1e3 / ladderPredicts

	var dues []serving.DueSession
	err := replayDue(m, in, accepted[:min(len(accepted), ladderSessions)], func(d []serving.DueSession) {
		dues = append(dues, d...)
	})
	if err != nil {
		return lr, err
	}
	store, err := statestore.Open(statestore.Options{Codec: w.codec})
	if err != nil {
		return lr, err
	}
	fin, err := serving.NewBatchFinalizerTier(m, store, batch, w.tier)
	if err != nil {
		return lr, err
	}
	t = time.Now()
	for i := 0; i < len(dues); i += batch {
		fin.Finalize(dues[i:min(i+batch, len(dues))])
	}
	lr.finalizeUSPerSession = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(dues))

	lr.updateUSPerSession = timeUpdates(m, w.tier, dues, batch)
	h, x := m.HiddenDim(), m.UpdateDim()
	// A GRU step is three gates, each an input and a recurrent
	// matrix-vector product: 2 FLOPs per multiply-add.
	lr.updateFlops = float64(2 * 3 * h * (x + h))
	return lr, nil
}

// timeUpdates runs the dues' update inputs through the batched GRU step at
// the given batch size and returns microseconds per session. States start
// at h_0; the step's cost does not depend on their values.
func timeUpdates(m *core.Model, tier nn.PrecisionTier, dues []serving.DueSession, batch int) float64 {
	n := len(dues) - len(dues)%batch
	if n == 0 {
		n, batch = len(dues), len(dues)
	}
	if tier == nn.TierF32 {
		xs := tensor.NewMatrix32(n, m.UpdateDim32())
		for i := 0; i < n; i++ {
			m.BuildUpdateInput32(dues[i].Start, dues[i].Cat, dues[i].Accessed, 0, xs.Row(i))
		}
		states := tensor.NewMatrix32(batch, m.StateSize())
		dst := tensor.NewMatrix32(batch, m.StateSize())
		arena := tensor.NewArena32(m.BatchUpdateScratchSize32(batch))
		chunk := &tensor.Matrix32{Rows: batch, Cols: xs.Cols}
		t := time.Now()
		for i := 0; i < n; i += batch {
			chunk.Data = xs.Data[i*xs.Cols : (i+batch)*xs.Cols]
			arena.Reset()
			m.UpdateStatesInto32(dst, states, chunk, arena)
		}
		return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(n)
	}
	xs := tensor.NewMatrix(n, m.UpdateDim())
	for i := 0; i < n; i++ {
		m.BuildUpdateInput(dues[i].Start, dues[i].Cat, dues[i].Accessed, 0, xs.Row(i))
	}
	states := tensor.NewMatrix(batch, m.StateSize())
	dst := tensor.NewMatrix(batch, m.StateSize())
	arena := tensor.NewArena(m.BatchUpdateScratchSize(batch))
	chunk := &tensor.Matrix{Rows: batch, Cols: xs.Cols}
	t := time.Now()
	for i := 0; i < n; i += batch {
		chunk.Data = xs.Data[i*xs.Cols : (i+batch)*xs.Cols]
		arena.Reset()
		m.UpdateStatesInto(dst, states, chunk, arena)
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(n)
}
