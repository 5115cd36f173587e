package serving

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tensor"
)

// PredictionService is the session-startup path of §9: retrieve the most
// recent hidden state (one KV lookup), run the MLP part of the model with
// the current context, and precompute eagerly when the probability clears
// the threshold.
//
// The service is safe for concurrent use: model inference is read-only,
// the store is concurrency-safe, and the decision counters are atomics.
type PredictionService struct {
	model *core.Model
	store Store
	// Threshold is the precompute decision boundary, chosen offline to
	// target a precision (60% in the production experiment).
	Threshold float64

	// Decision counters for the precision/recall bookkeeping (atomics so
	// batch fan-out never races, and aligned on 32-bit platforms).
	Predictions atomic.Int64
	Precomputes atomic.Int64
	// ColdStarts counts predictions served from h_0 because no usable
	// hidden state was stored (miss, decode failure, or dimension
	// mismatch); DecodeFailures counts the subset where a state WAS stored
	// but could not be used. A nonzero DecodeFailures means the store is
	// corrupting or mis-sizing states — before these counters existed, that
	// was silently indistinguishable from a new user.
	ColdStarts     atomic.Int64
	DecodeFailures atomic.Int64
}

// NewPredictionService wires a model and store.
func NewPredictionService(model *core.Model, store Store, threshold float64) *PredictionService {
	return &PredictionService{model: model, store: store, Threshold: threshold}
}

// Decision is the outcome of one session-startup prediction.
type Decision struct {
	Probability float64
	Precompute  bool
}

// OnSessionStart serves one prediction. Users with no stored hidden state
// fall back to h_0 (cold start, §9). It is the one-request call of
// ScoreBatch.
func (s *PredictionService) OnSessionStart(userID int, ts int64, cat []int) Decision {
	sc := scoreScratch.Get().(*ScoreScratch)
	reqs := [1]PredictRequest{{UserID: userID, Ts: ts, Cat: cat}}
	var out [1]Decision
	s.ScoreBatch(out[:], reqs[:], sc)
	scoreScratch.Put(sc)
	return out[0]
}

// PredictRequest is one element of a prediction batch.
type PredictRequest struct {
	UserID int
	Ts     int64
	Cat    []int
}

// ScoreScratch is the caller-owned working memory of ScoreBatch: the
// decoded-state and predict-input panels, the scores, and the model's
// scorer scratch. The zero value is ready to use. Panels hold at most
// scoreChunk rows whatever the batch size, so a scratch stays a few tens
// of KB and steady-state scoring allocates nothing beyond the store's
// own Get. Not safe for concurrent use.
type ScoreScratch struct {
	hs, fs tensor.Matrix
	probs  [scoreChunk]float64
	pred   core.PredictScratch
}

// scoreChunk is how many requests ScoreBatch decodes and scores per
// PredictBatch call. The scorer's cost per row is flat in the batch size
// at d = 128 (W1's hidden block stays cache-resident), so a bounded chunk
// costs nothing and keeps the scratch small: at MobileTab and d = 128,
// eight rows of state, predict-input, latent-cross and MLP panels are
// about 40 KB.
const scoreChunk = 8

// scoreScratch recycles the scratch of the per-request and replay paths.
var scoreScratch = sync.Pool{New: func() any { return new(ScoreScratch) }}

// panel resizes m to rows×cols over its existing storage when it fits.
func panel(m *tensor.Matrix, rows, cols int) {
	if cap(m.Data) < rows*cols {
		m.Data = make([]float64, rows*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// ScoreBatch serves reqs into out[:len(reqs)]: stored states are decoded
// into the rows of one panel (h_0 on a miss, a decode failure or a
// mis-sized state) and scored together through core.Model.PredictBatch,
// scoreChunk rows per call. Decisions and counters equal calling
// OnSessionStart per request, because predictions read the store but
// never write it.
func (s *PredictionService) ScoreBatch(out []Decision, reqs []PredictRequest, sc *ScoreScratch) {
	var cold, failed, precomputes int64
	for lo := 0; lo < len(reqs); lo += scoreChunk {
		hi := min(lo+scoreChunk, len(reqs))
		c, f, p := s.scoreRows(out[lo:hi], reqs[lo:hi], sc)
		cold, failed, precomputes = cold+c, failed+f, precomputes+p
	}
	s.Predictions.Add(int64(len(reqs)))
	if precomputes > 0 {
		s.Precomputes.Add(precomputes)
	}
	if cold > 0 {
		s.ColdStarts.Add(cold)
	}
	if failed > 0 {
		s.DecodeFailures.Add(failed)
	}
}

// scoreRows decodes and scores at most scoreChunk requests, returning
// how many started cold, how many of those held an undecodable state, and
// how many cleared the threshold.
func (s *PredictionService) scoreRows(out []Decision, reqs []PredictRequest, sc *ScoreScratch) (cold, failed, precomputes int64) {
	m := s.model
	B := len(reqs)
	panel(&sc.hs, B, m.StateSize())
	panel(&sc.fs, B, m.PredictDim())
	for b, r := range reqs {
		row := sc.hs.Row(b)
		var lastTS int64
		ok := false
		if raw, found := s.store.Get(hiddenKey(r.UserID)); found {
			if lastTS, ok = DecodeHiddenInto(raw, row); !ok {
				failed++
			}
		}
		if !ok {
			cold++
			row.Zero() // h_0 (§6.1)
			lastTS = 0
		}
		var sinceK int64
		if lastTS != 0 {
			sinceK = r.Ts - lastTS
		}
		m.BuildPredictInput(r.Ts, r.Cat, sinceK, sc.fs.Row(b))
	}
	probs := sc.probs[:B]
	m.PredictBatch(probs, &sc.hs, &sc.fs, &sc.pred)
	for b, p := range probs {
		out[b] = Decision{Probability: p, Precompute: p >= s.Threshold}
		if out[b].Precompute {
			precomputes++
		}
	}
	return cold, failed, precomputes
}

// OnSessionStartBatch serves a batch of independent predictions and
// returns the decisions in request order. The requests are split into
// `workers` contiguous chunks (<=0 selects GOMAXPROCS), each scored by one
// goroutine through ScoreBatch; decisions and counters are identical to
// calling OnSessionStart per request. Replay mode uses the fan-out to
// score a timestamp's burst of session starts on every core; the online
// server scores each micro-batch inline through ScoreBatch instead.
func (s *PredictionService) OnSessionStartBatch(reqs []PredictRequest, workers int) []Decision {
	out := make([]Decision, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (len(reqs) + workers - 1) / workers
	parallelFor((len(reqs)+chunk-1)/chunk, workers, func(c int) {
		lo, hi := c*chunk, min((c+1)*chunk, len(reqs))
		sc := scoreScratch.Get().(*ScoreScratch)
		s.ScoreBatch(out[lo:hi], reqs[lo:hi], sc)
		scoreScratch.Put(sc)
	})
	return out
}

// parallelFor runs fn(0..n-1) across `workers` work-stealing goroutines
// (workers <= 1 runs inline). fn must be safe to call concurrently for
// distinct indices.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
