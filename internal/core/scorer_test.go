package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// scrambleParams replaces every parameter (biases included, which New
// leaves at zero) with random values, so each term of the scorer's chains
// is exercised.
func scrambleParams(m *Model, seed uint64) {
	rng := tensor.NewRNG(seed)
	for _, p := range m.Params() {
		for i := range p.Value {
			p.Value[i] = 0.3 * rng.NormFloat64()
		}
	}
}

// scorerCase builds a batch of B (state, predict input) rows: warm random
// states (salted with ±0 and subnormals when salt is set), a cold
// (all-zero) row, and predict inputs from random contexts.
func scorerCase(m *Model, B int, seed uint64, salt bool) (hs, fs *tensor.Matrix) {
	rng := tensor.NewRNG(seed)
	hs = tensor.NewMatrix(B, m.StateSize())
	fs = tensor.NewMatrix(B, m.PredictDim())
	for b := 0; b < B; b++ {
		if b != 1 { // row 1 stays h_0, the cold-start state
			for i := range hs.Row(b) {
				switch k := rng.Intn(10); {
				case !salt:
					hs.Set(b, i, 2*rng.Float64()-1)
				case k == 0:
					hs.Set(b, i, math.Copysign(0, -1))
				case k == 1:
					hs.Set(b, i, 4e-320)
				default:
					hs.Set(b, i, 2*rng.Float64()-1)
				}
			}
		}
		since := int64(rng.Intn(30 * 86400))
		switch {
		case m.Cfg.Timeshift:
			m.BuildTimeshiftPredictInput(since, fs.Row(b))
		default:
			cat := make([]int, len(m.Schema.Cat))
			for i, c := range m.Schema.Cat {
				cat[i] = rng.Intn(c.Cardinality)
			}
			m.BuildPredictInput(synth.DefaultStart+int64(rng.Intn(7*86400)), cat, since, fs.Row(b))
		}
	}
	return hs, fs
}

// TestPredictBatchMatchesPredictForward pins the scorer's bit-identity:
// for every batch size a ragged GEMM row meets, each score equals
// σ(predictForward(train=false)) on that row alone — with a ragged MLP
// width (30), latent cross on and off, the minimal and timeshift inputs,
// the paper's d=128 shape, and an LSTM whose packed state is wider than
// its hidden vector.
func TestPredictBatchMatchesPredictForward(t *testing.T) {
	cases := map[string]func(*Config){
		"latent-cross":    func(*Config) {},
		"no-latent-cross": func(c *Config) { c.LatentCross = false },
		"minimal":         func(c *Config) { c.Minimal = true },
		"timeshift":       func(c *Config) { c.Timeshift = true },
		"lstm":            func(c *Config) { c.Cell = nn.CellLSTM },
		"d128": func(c *Config) {
			c.HiddenDim, c.MLPHidden = 128, 128
		},
	}
	for name, mod := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.HiddenDim, cfg.MLPHidden = 16, 30
			mod(&cfg)
			m := New(synth.MobileTabSchema(), cfg)
			scrambleParams(m, 5)
			var sc PredictScratch
			for B := 1; B <= 9; B++ {
				hs, fs := scorerCase(m, B, uint64(100+B), true)
				got := make([]float64, B)
				m.PredictBatch(got, hs, fs, &sc)
				for b := 0; b < B; b++ {
					h := hs.Row(b)[:m.HiddenDim()]
					want := nn.Sigmoid(m.predictForward(h, fs.Row(b), false, nil, nil))
					if math.Float64bits(got[b]) != math.Float64bits(want) {
						t.Fatalf("B=%d row %d: PredictBatch %v, predictForward %v", B, b, got[b], want)
					}
					if p := m.Predict(h, fs.Row(b)); math.Float64bits(p) != math.Float64bits(want) {
						t.Fatalf("B=%d row %d: Predict %v, predictForward %v", B, b, p, want)
					}
				}
			}
		})
	}
}

// TestPredictBatchSteadyStateAllocs pins the scorer's allocation contract:
// once its scratch has seen the batch size, scoring allocates nothing.
func TestPredictBatchSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim, cfg.MLPHidden = 128, 128
	m := New(synth.MobileTabSchema(), cfg)
	for _, B := range []int{1, 4, 32} {
		hs, fs := scorerCase(m, B, 7, false)
		dst := make([]float64, B)
		var sc PredictScratch
		m.PredictBatch(dst, hs, fs, &sc)
		if allocs := testing.AllocsPerRun(20, func() { m.PredictBatch(dst, hs, fs, &sc) }); allocs != 0 {
			t.Fatalf("B=%d: %v allocs per batch, want 0", B, allocs)
		}
	}
}

func TestPredictBatchShapePanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HiddenDim = 8
	m := tinyModel(cfg)
	var sc PredictScratch
	for name, fn := range map[string]func(){
		"narrow hs": func() {
			m.PredictBatch(make([]float64, 1), tensor.NewMatrix(1, 7), tensor.NewMatrix(1, m.PredictDim()), &sc)
		},
		"fs width": func() {
			m.PredictBatch(make([]float64, 1), tensor.NewMatrix(1, 8), tensor.NewMatrix(1, m.PredictDim()+1), &sc)
		},
		"short dst": func() {
			m.PredictBatch(make([]float64, 1), tensor.NewMatrix(2, 8), tensor.NewMatrix(2, m.PredictDim()), &sc)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: PredictBatch must panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkPredictBatch reports the scorer's cost per prediction at the
// paper's shape (d = 128, MLP 128) over MobileTab predict inputs.
func BenchmarkPredictBatch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.HiddenDim, cfg.MLPHidden = 128, 128
	m := New(synth.MobileTabSchema(), cfg)
	for _, B := range []int{1, 4, 32} {
		hs, fs := scorerCase(m, B, 9, false)
		dst := make([]float64, B)
		var sc PredictScratch
		b.Run(fmt.Sprintf("B%d", B), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(dst, hs, fs, &sc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/prediction")
		})
	}
}
