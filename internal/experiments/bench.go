package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/synth"
)

// The serving benchmark suite is the tracked perf baseline: it replays a
// fixed synthetic session log through the finalisation path in each
// configuration and emits machine-readable JSON (BENCH_serving.json), so
// every perf PR from here on records its before/after trajectory. CI runs
// the quick shape on every push; the full shape produces the numbers in
// EXPERIMENTS.md.

// ServingBenchResult is one (hidden-dim, configuration) measurement.
type ServingBenchResult struct {
	Config           string  `json:"config"`
	HiddenDim        int     `json:"hidden_dim"`
	Workers          int     `json:"workers"`
	InferBatch       int     `json:"infer_batch"`
	Precision        string  `json:"precision"`
	Sessions         int     `json:"sessions"`
	NsPerSession     float64 `json:"ns_per_session"`
	SessionsPerSec   float64 `json:"sessions_per_sec"`
	AllocsPerSession float64 `json:"allocs_per_session"`
	BytesPerSession  float64 `json:"bytes_per_session"`
	// SpeedupVsScalar is relative to the sequential per-session path at the
	// same hidden dim (the PR 1 baseline).
	SpeedupVsScalar float64 `json:"speedup_vs_scalar"`
}

// ServingBenchSuite is the JSON document written to BENCH_serving.json.
type ServingBenchSuite struct {
	SchemaVersion int                  `json:"schema_version"`
	GeneratedAt   string               `json:"generated_at"`
	GoVersion     string               `json:"go_version"`
	GOOS          string               `json:"goos"`
	GOARCH        string               `json:"goarch"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	Quick         bool                 `json:"quick"`
	Results       []ServingBenchResult `json:"results"`
}

// servingBenchRunner drives one warm processor through rounds of `users`
// concurrent sessions: each round ingests every session (plus access
// events) and advances the clock past their finalisation timers, so the
// timed region is ingest + a full drain — the production steady state.
// The processor (and its scratch/arena) is constructed once, outside the
// timed region, exactly as a long-lived stream processor would run.
type servingBenchRunner struct {
	users     int
	round     int64
	onSession func(sid string, userID int, ts int64, cat []int)
	onAccess  func(sid string, ts int64)
	advance   func(ts int64)
	window    int64 // session length + epsilon
}

func (r *servingBenchRunner) runRound() {
	base := synth.DefaultStart + r.round*7200
	r.round++
	for u := 0; u < r.users; u++ {
		ts := base + int64(u)*11
		sid := fmt.Sprintf("u%d-s%d", u, r.round)
		r.onSession(sid, u, ts, []int{u % 4, u % 3})
		if (u+int(r.round))%3 == 0 {
			r.onAccess(sid, ts+30)
		}
	}
	r.advance(base + int64(r.users)*11 + r.window + 1)
}

// RunServingBench measures steady-state session-finalisation throughput
// across hidden dims and batch/worker configurations. quick shrinks the
// iteration budget for the CI short mode; the configurations are identical
// either way so the JSON stays comparable across runs of the same mode.
// Each configuration takes the fastest of three measurements — on small
// shared boxes the minimum is the noise-robust estimator (see the
// 2-core benchmarking notes in EXPERIMENTS.md).
func RunServingBench(quick bool) *ServingBenchSuite {
	// Many short fixed-count windows, keeping the minimum: on small shared
	// boxes the throttle/noise windows last seconds, so a single long
	// measurement averages noise in while the min of many short windows
	// lands inside clean periods.
	const users = 64
	iters, reps := 25, 12
	if quick {
		iters, reps = 10, 5
	}

	suite := &ServingBenchSuite{
		SchemaVersion: 1,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Quick:         quick,
	}

	type cfg struct {
		name       string
		workers    int // 0 = sequential processor
		inferBatch int
		precision  nn.PrecisionTier
	}
	cfgs := []cfg{
		{"sequential", 0, 1, nn.TierF64},
		{"sequential-batch8", 0, 8, nn.TierF64},
		{"sequential-batch32", 0, 32, nn.TierF64},
		{"sequential-batch64", 0, 64, nn.TierF64},
		{"parallel-4", 4, 1, nn.TierF64},
		{"parallel-4-batch32", 4, 32, nn.TierF64},
		// f32 compute tier over the same shapes: the scalar fused path, the
		// batched GEMM finaliser the ≥2× gate tracks, and the worker pool.
		{"sequential-f32", 0, 1, nn.TierF32},
		{"sequential-batch64-f32", 0, 64, nn.TierF32},
		{"parallel-4-batch32-f32", 4, 32, nn.TierF32},
	}

	for _, d := range []int{32, 64, 128} {
		mcfg := core.DefaultConfig()
		mcfg.HiddenDim = d
		mcfg.MLPHidden = 64
		m := core.New(synth.MobileTabSchema(), mcfg)

		var scalarNs float64
		for _, c := range cfgs {
			runner := &servingBenchRunner{users: users, window: m.Schema.SessionLength + core.DefaultEpsilon}
			var store serving.Store = serving.NewKVStore()
			if c.workers > 0 {
				store = serving.NewShardedKVStore(16)
			}
			p := serving.NewStreamProcessor(m, store)
			p.SetInferBatch(c.inferBatch)
			if err := p.SetPrecision(c.precision); err != nil {
				panic(err) // the bench model is a single GRU; every tier applies
			}
			runner.onSession = p.OnSessionStart
			runner.onAccess = p.OnAccess
			runner.advance = p.Advance
			closeProc := p.Flush
			if c.workers > 0 {
				lanes, err := serving.NewLanes(m, store, serving.LaneOptions{
					Lanes: c.workers, MaxBatch: c.inferBatch, MaxWait: -1, Precision: c.precision,
				})
				if err != nil {
					panic(err)
				}
				p.SetSink(lanes.Submit)
				runner.advance = func(ts int64) { p.Advance(ts); lanes.Wait() }
				closeProc = func() { p.Flush(); lanes.Close() }
			}
			runner.runRound() // warm states, scratch, and arena

			var best benchMeasurement
			for rep := 0; rep < reps; rep++ {
				r := benchmarkN(iters, runner.runRound)
				if rep == 0 || r.nsPerOp < best.nsPerOp {
					best = r
				}
			}
			closeProc()

			perSession := best.nsPerOp / float64(users)
			res := ServingBenchResult{
				Config:           c.name,
				HiddenDim:        d,
				Workers:          c.workers,
				InferBatch:       c.inferBatch,
				Precision:        c.precision.String(),
				Sessions:         users * iters,
				NsPerSession:     perSession,
				SessionsPerSec:   1e9 / perSession,
				AllocsPerSession: best.allocsPerOp / float64(users),
				BytesPerSession:  best.bytesPerOp / float64(users),
			}
			if c.name == "sequential" {
				scalarNs = perSession
			}
			if scalarNs > 0 {
				res.SpeedupVsScalar = scalarNs / perSession
			}
			suite.Results = append(suite.Results, res)
		}
	}
	return suite
}

// benchMeasurement is one fixed-count timing run.
type benchMeasurement struct {
	nsPerOp     float64
	allocsPerOp float64
	bytesPerOp  float64
}

// benchmarkN runs fn exactly n times and reports per-op time and
// allocation. The fixed iteration count keeps run-to-run work identical,
// which is what makes min-of-3 a meaningful noise filter.
func benchmarkN(n int, fn func()) benchMeasurement {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	dur := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return benchMeasurement{
		nsPerOp:     float64(dur.Nanoseconds()) / float64(n),
		allocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		bytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
	}
}

// WriteJSON writes the suite to path (pretty-printed, trailing newline).
func (s *ServingBenchSuite) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render formats the suite as the standard report table for stdout.
func (s *ServingBenchSuite) Render() string {
	r := &Report{
		ID:     "bench-serving",
		Title:  "Serving finalisation benchmark (replayed synthetic log)",
		Header: []string{"D", "CONFIG", "NS/SESSION", "SESSIONS/S", "ALLOCS/SESSION", "SPEEDUP"},
	}
	for _, b := range s.Results {
		r.Rows = append(r.Rows, []string{
			fint(b.HiddenDim), b.Config,
			fmt.Sprintf("%.0f", b.NsPerSession),
			fmt.Sprintf("%.0f", b.SessionsPerSec),
			fmt.Sprintf("%.1f", b.AllocsPerSession),
			fmt.Sprintf("%.2fx", b.SpeedupVsScalar),
		})
	}
	r.Notes = append(r.Notes, fmt.Sprintf("go %s %s/%s GOMAXPROCS=%d quick=%v",
		s.GoVersion, s.GOOS, s.GOARCH, s.GOMAXPROCS, s.Quick))
	return r.Render()
}
