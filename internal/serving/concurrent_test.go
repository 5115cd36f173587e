package serving

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func TestShardedKVStoreBasics(t *testing.T) {
	s := NewShardedKVStore(16)
	if _, ok := s.Get("missing"); ok {
		t.Fatalf("missing key must miss")
	}
	s.Put("a", []byte{1, 2, 3})
	v, ok := s.Get("a")
	if !ok || len(v) != 3 || v[0] != 1 {
		t.Fatalf("Get after Put: %v %v", v, ok)
	}
	// Returned slice must be a copy.
	v[0] = 99
	v2, _ := s.Get("a")
	if v2[0] != 1 {
		t.Fatalf("Get must return a copy")
	}
	// Stored slice must be a copy too.
	buf := []byte{7, 8}
	s.Put("b", buf)
	buf[0] = 9
	vb, _ := s.Get("b")
	if vb[0] != 7 {
		t.Fatalf("Put must copy the value")
	}
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatalf("Delete failed")
	}
	st := s.Stats()
	if st.Gets != 5 || st.Puts != 2 || st.Misses != 2 || st.Keys != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.BytesStored != int64(len("b")+2) {
		t.Fatalf("BytesStored: %d", st.BytesStored)
	}
}

func TestShardedKVStoreShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := NewShardedKVStore(tc.in).NumShards(); got != tc.want {
			t.Fatalf("NumShards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestShardedKVStoreConcurrent hammers one store from many goroutines with
// overlapping keys; run under -race this is the shard-locking proof.
func TestShardedKVStoreConcurrent(t *testing.T) {
	s := NewShardedKVStore(8)
	const goroutines = 16
	const opsPerG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(64))
				switch rng.Intn(4) {
				case 0:
					s.Put(key, []byte{byte(g), byte(i)})
				case 1:
					if v, ok := s.Get(key); ok && len(v) != 2 {
						t.Errorf("corrupt value %v", v)
					}
				case 2:
					s.Delete(key)
				default:
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Puts == 0 || st.Gets == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
}

// replayEvent is one synthetic session for the equivalence replays.
type replayEvent struct {
	sid    string
	userID int
	ts     int64
	cat    []int
	access bool
}

// syntheticLog builds a deterministic interleaved session log: users×rounds
// sessions in global timestamp order with varying contexts and access
// patterns.
func syntheticLog(users, rounds int) []replayEvent {
	var evs []replayEvent
	start := synth.DefaultStart
	for r := 0; r < rounds; r++ {
		for u := 0; u < users; u++ {
			ts := start + int64(r)*7200 + int64(u)*11
			evs = append(evs, replayEvent{
				sid:    fmt.Sprintf("u%d-s%d", u, r),
				userID: u,
				ts:     ts,
				cat:    []int{(u + r) % 4, u % 3},
				access: (u+r)%3 == 0,
			})
		}
	}
	return evs
}

// newLaneProcessor composes the replay pipeline: a StreamProcessor whose
// due sessions finalise on a Lanes pool. Callers end a replay with
// p.Flush() then lanes.Close().
func newLaneProcessor(tb testing.TB, m *core.Model, store Store, o LaneOptions) (*StreamProcessor, *Lanes) {
	tb.Helper()
	lanes, err := NewLanes(m, store, o)
	if err != nil {
		tb.Fatalf("NewLanes: %v", err)
	}
	p := NewStreamProcessor(m, store)
	p.SetSink(lanes.Submit)
	return p, lanes
}

// TestParallelMatchesSequential replays the same synthetic log through the
// sequential processor (single-mutex store) and the lane pipeline (sharded
// store, 8 lanes) and requires byte-identical stored hidden states:
// per-user lanes keep each user's update order, and each user's state
// chain depends only on that user's sessions.
func TestParallelMatchesSequential(t *testing.T) {
	m := testModel()
	evs := syntheticLog(24, 6)

	seqStore := NewKVStore()
	seq := NewStreamProcessor(m, seqStore)
	for _, e := range evs {
		seq.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			seq.OnAccess(e.sid, e.ts+30)
		}
	}
	seq.Flush()

	parStore := NewShardedKVStore(16)
	par, lanes := newLaneProcessor(t, m, parStore, LaneOptions{Lanes: 8})
	for _, e := range evs {
		par.OnSessionStart(e.sid, e.userID, e.ts, e.cat)
		if e.access {
			par.OnAccess(e.sid, e.ts+30)
		}
	}
	par.Flush()
	lanes.Close()

	if got, want := lanes.UpdatesRun(), seq.UpdatesRun; got != want {
		t.Fatalf("UpdatesRun: parallel %d vs sequential %d", got, want)
	}
	for u := 0; u < 24; u++ {
		a, okA := seqStore.Get(hiddenKey(u))
		b, okB := parStore.Get(hiddenKey(u))
		if !okA || !okB {
			t.Fatalf("user %d: missing state (seq %v, par %v)", u, okA, okB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("user %d: parallel hidden state differs from sequential", u)
		}
	}
}

// driveConcurrently feeds users×rounds sessions into p from one goroutine
// per user (so per-user event order stays well defined), every call under
// one caller-held mutex — the online server's ingest discipline — then
// flushes the processor and closes the lanes.
func driveConcurrently(p *StreamProcessor, lanes *Lanes, users, rounds int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			start := synth.DefaultStart
			for r := 0; r < rounds; r++ {
				ts := start + int64(r)*7200
				sid := fmt.Sprintf("u%d-s%d", u, r)
				mu.Lock()
				p.OnSessionStart(sid, u, ts, []int{u % 4, r % 3})
				if r%2 == 0 {
					p.OnAccess(sid, ts+30)
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	mu.Lock()
	p.Flush()
	mu.Unlock()
	lanes.Close()
}

// TestLanesConcurrentIngest drives the lane pipeline from many
// goroutines at once and checks every session is finalised exactly once.
func TestLanesConcurrentIngest(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(16)
	p, lanes := newLaneProcessor(t, m, store, LaneOptions{Lanes: 4})

	const users = 12
	const rounds = 8
	driveConcurrently(p, lanes, users, rounds)

	if got := lanes.UpdatesRun(); got != users*rounds {
		t.Fatalf("UpdatesRun: %d, want %d", got, users*rounds)
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending after Close: %d", p.Pending())
	}
	st := store.Stats()
	if st.Keys != users {
		t.Fatalf("stored keys: %d, want %d", st.Keys, users)
	}
}

// TestParallelSyncVisibility checks Advance+Wait gives the sequential
// path's read-your-writes behaviour: after Wait, the finalised session's
// state is visible in the store.
func TestParallelSyncVisibility(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(4)
	p, lanes := newLaneProcessor(t, m, store, LaneOptions{Lanes: 2})
	defer lanes.Close()

	start := synth.DefaultStart
	p.OnSessionStart("s1", 7, start, []int{1, 2})
	p.OnAccess("s1", start+60)
	if _, ok := store.Get(hiddenKey(7)); ok {
		t.Fatalf("hidden must not exist before finalisation")
	}
	p.Advance(start + m.Schema.SessionLength + p.Epsilon + 1)
	lanes.Wait()
	raw, ok := store.Get(hiddenKey(7))
	if !ok {
		t.Fatalf("hidden state missing after Advance+Wait")
	}
	if h, ts, ok2 := DecodeHidden(raw); !ok2 || ts != start || len(h) != m.StateSize() {
		t.Fatalf("stored hidden malformed")
	}
}

// TestBatchPredictionMatchesSequential compares OnSessionStartBatch against
// per-request OnSessionStart calls on a warmed store.
func TestBatchPredictionMatchesSequential(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(8)

	// Warm hidden states for half the users (the rest exercise cold start).
	proc := NewStreamProcessor(m, store)
	start := synth.DefaultStart
	for u := 0; u < 10; u += 2 {
		proc.OnSessionStart(fmt.Sprintf("w%d", u), u, start, []int{u % 4, 0})
	}
	proc.Flush()

	svc := NewPredictionService(m, store, 0.5)
	var reqs []PredictRequest
	for u := 0; u < 10; u++ {
		reqs = append(reqs, PredictRequest{UserID: u, Ts: start + 9000, Cat: []int{u % 4, 1}})
	}
	want := make([]Decision, len(reqs))
	for i, r := range reqs {
		want[i] = svc.OnSessionStart(r.UserID, r.Ts, r.Cat)
	}
	for _, workers := range []int{1, 4, 8} {
		got := svc.OnSessionStartBatch(reqs, workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d req %d: %+v vs %+v", workers, i, got[i], want[i])
			}
		}
	}
	if svc.Predictions.Load() != int64(len(reqs)*4) {
		t.Fatalf("Predictions counter: %d", svc.Predictions.Load())
	}
}

// TestStreamProcessorAcceptsShardedStore checks the sequential processor
// works unchanged against the sharded store (the Store interface seam).
func TestStreamProcessorAcceptsShardedStore(t *testing.T) {
	m := testModel()
	store := NewShardedKVStore(4)
	p := NewStreamProcessor(m, store)
	p.OnSessionStart("s", 3, synth.DefaultStart, []int{0, 1})
	p.Flush()
	if _, ok := store.Get(hiddenKey(3)); !ok {
		t.Fatalf("sequential processor must work with the sharded store")
	}
}

// refOnSessionStart is the per-request session-start path written out
// longhand — allocate-and-decode, classify, build, score one row — as an
// independent reference for the batched scorer's decode and counting.
func refOnSessionStart(m *core.Model, store Store, threshold float64, r PredictRequest) (d Decision, cold, failed bool) {
	var h tensor.Vector
	var lastTS int64
	if raw, ok := store.Get(hiddenKey(r.UserID)); ok {
		if dec, ts, ok2 := DecodeHidden(raw); ok2 && len(dec) == m.StateSize() {
			h, lastTS = dec, ts
		} else {
			failed = true
		}
	}
	if h == nil {
		cold = true
		h = m.InitialState()
	}
	var sinceK int64
	if lastTS != 0 {
		sinceK = r.Ts - lastTS
	}
	p := m.Predict(h[:m.HiddenDim()], m.BuildPredictInput(r.Ts, r.Cat, sinceK, nil))
	return Decision{Probability: p, Precompute: p >= threshold}, cold, failed
}

// TestBatchPredictionCountersMatchPerRequest pins OnSessionStartBatch and
// ScoreBatch against the per-request path on a store holding warm,
// missing, mis-sized and malformed states: every decision bit for bit, and
// all four counters (predictions, precomputes, cold starts, decode
// failures) exactly, at every worker count and across scratch reuse over
// changing batch sizes.
func TestBatchPredictionCountersMatchPerRequest(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HiddenDim, cfg.MLPHidden = 16, 30
	m := core.New(synth.MobileTabSchema(), cfg)
	store := NewShardedKVStore(8)
	proc := NewStreamProcessor(m, store)
	start := synth.DefaultStart
	const users = 40
	for u := 0; u < users; u++ {
		switch u % 4 {
		case 0, 1: // warm
			proc.OnSessionStart(fmt.Sprintf("w%d", u), u, start+int64(u), []int{u % 4, u % 3})
			proc.OnAccess(fmt.Sprintf("w%d", u), start+int64(u)+5)
		case 2: // mis-sized: a state of another dimension
			store.Put(hiddenKey(u), EncodeHidden(tensor.NewVector(m.StateSize()+3), start))
		case 3: // cold when u%8 == 3; malformed bytes otherwise
			if u%8 == 7 {
				store.Put(hiddenKey(u), []byte{1, 2, 3})
			}
		}
	}
	proc.Flush()

	var reqs []PredictRequest
	for i := 0; i < 3*users; i++ {
		u := (i * 7) % users
		reqs = append(reqs, PredictRequest{UserID: u, Ts: start + 9000 + int64(i), Cat: []int{i % 4, i % 3}})
	}
	want := make([]Decision, len(reqs))
	var wantCold, wantFailed, wantPre int64
	for i, r := range reqs {
		d, cold, failed := refOnSessionStart(m, store, 0.5, r)
		want[i] = d
		if cold {
			wantCold++
		}
		if failed {
			wantFailed++
		}
		if d.Precompute {
			wantPre++
		}
	}
	if wantCold == 0 || wantFailed == 0 || wantCold == int64(len(reqs)) {
		t.Fatalf("fixture must mix warm, cold and undecodable states: cold %d failed %d", wantCold, wantFailed)
	}

	check := func(name string, svc *PredictionService, got []Decision) {
		t.Helper()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: req %d: %+v, want %+v", name, i, got[i], want[i])
			}
		}
		if svc.Predictions.Load() != int64(len(reqs)) || svc.Precomputes.Load() != wantPre ||
			svc.ColdStarts.Load() != wantCold || svc.DecodeFailures.Load() != wantFailed {
			t.Fatalf("%s: counters predictions %d precomputes %d cold %d failures %d, want %d %d %d %d", name,
				svc.Predictions.Load(), svc.Precomputes.Load(), svc.ColdStarts.Load(), svc.DecodeFailures.Load(),
				len(reqs), wantPre, wantCold, wantFailed)
		}
	}

	perReq := NewPredictionService(m, store, 0.5)
	got := make([]Decision, len(reqs))
	for i, r := range reqs {
		got[i] = perReq.OnSessionStart(r.UserID, r.Ts, r.Cat)
	}
	check("OnSessionStart", perReq, got)

	for _, workers := range []int{1, 3, 8} {
		svc := NewPredictionService(m, store, 0.5)
		check(fmt.Sprintf("OnSessionStartBatch workers=%d", workers), svc, svc.OnSessionStartBatch(reqs, workers))
	}

	// One scratch across batch sizes 1..9, as a flusher sees them.
	svc := NewPredictionService(m, store, 0.5)
	var sc ScoreScratch
	for lo, B := 0, 1; lo < len(reqs); lo, B = lo+B, B%9+1 {
		hi := min(lo+B, len(reqs))
		svc.ScoreBatch(got[lo:hi], reqs[lo:hi], &sc)
	}
	check("ScoreBatch", svc, got)
}
