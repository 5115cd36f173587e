package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/synth"
)

// TestServingBenchSuiteRoundTrip checks the JSON document and table
// renderer over a hand-built suite (running the actual benchmarks is the
// CI bench step's job, not a unit test's).
func TestServingBenchSuiteRoundTrip(t *testing.T) {
	s := &ServingBenchSuite{
		SchemaVersion: 1,
		GeneratedAt:   "2026-07-29T00:00:00Z",
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		GOMAXPROCS:    2,
		Results: []ServingBenchResult{
			{Config: "sequential", HiddenDim: 64, InferBatch: 1, Sessions: 1600,
				NsPerSession: 20000, SessionsPerSec: 50000, AllocsPerSession: 9, SpeedupVsScalar: 1},
			{Config: "sequential-batch32", HiddenDim: 64, InferBatch: 32, Sessions: 1600,
				NsPerSession: 15000, SessionsPerSec: 66666, AllocsPerSession: 9, SpeedupVsScalar: 1.33},
		},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := s.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	var got ServingBenchSuite
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.SchemaVersion != 1 || len(got.Results) != 2 || got.Results[1].SpeedupVsScalar != 1.33 {
		t.Fatalf("round trip mangled the suite: %+v", got)
	}
	out := s.Render()
	for _, want := range []string{"sequential-batch32", "1.33x", "bench-serving"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestServingBenchRunnerRounds checks the round driver arms and drains
// every session (cheap smoke: 2 rounds at a tiny dim through the real
// processors, no timing).
func TestServingBenchRunnerRounds(t *testing.T) {
	suiteSmokeRounds(t, 0, 1, nn.TierF64) // sequential scalar
	suiteSmokeRounds(t, 0, 4, nn.TierF64) // sequential batched
	suiteSmokeRounds(t, 2, 4, nn.TierF64) // parallel batched
	suiteSmokeRounds(t, 0, 4, nn.TierF32) // sequential batched, f32 tier
	suiteSmokeRounds(t, 2, 4, nn.TierF32) // parallel batched, f32 tier
}

func suiteSmokeRounds(t *testing.T, workers, inferBatch int, tier nn.PrecisionTier) {
	t.Helper()
	mcfg := core.DefaultConfig()
	mcfg.HiddenDim = 8
	mcfg.MLPHidden = 8
	m := core.New(synth.MobileTabSchema(), mcfg)
	runner := &servingBenchRunner{users: 6, window: m.Schema.SessionLength + core.DefaultEpsilon}
	store := serving.NewKVStore()
	p := serving.NewStreamProcessor(m, store)
	p.SetInferBatch(inferBatch)
	if err := p.SetPrecision(tier); err != nil {
		t.Fatal(err)
	}
	runner.onSession = p.OnSessionStart
	runner.onAccess = p.OnAccess
	runner.advance = p.Advance
	updates := func() int64 { return p.UpdatesRun }
	closeProc := p.Flush
	if workers > 0 {
		lanes, err := serving.NewLanes(m, store, serving.LaneOptions{
			Lanes: workers, MaxBatch: inferBatch, MaxWait: -1, Precision: tier,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.SetSink(lanes.Submit)
		runner.advance = func(ts int64) { p.Advance(ts); lanes.Wait() }
		updates = lanes.UpdatesRun
		closeProc = func() { p.Flush(); lanes.Close() }
	}
	runner.runRound()
	runner.runRound()
	closeProc()
	if got := updates(); got != 12 {
		t.Fatalf("workers=%d batch=%d: %d updates after 2 rounds of 6, want 12", workers, inferBatch, got)
	}
}
