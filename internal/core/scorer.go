package core

import (
	"fmt"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Batched RNNpredict. This is the inference half of predictForward,
// restructured around the shape of a predict input: f = [context;
// T(t − t_k)] is a handful of ones in a few hundred columns (5 of 278 in a
// MobileTab request), so the context block of W1 — two-thirds of its
// multiply-adds — is evaluated over f's nonzeros only, and the dense
// hidden block runs as one GEMM over the whole batch. Per row the
// arithmetic is the same chain of the same terms in the same order as
// predictForward(train=false):
//
//	lf_i = (Σ_{j∈nz(f)} L_ij·f_j) + bL_i,   h'_i = h_i·(1 + lf_i)
//	z_i  = (Σ_{k<d} W1_ik·h'_k + Σ_{j∈nz(f)} W1_i,d+j·f_j) + b1_i
//	p    = σ((Σ_i w2_i·ReLU(z_i)) + b2)
//
// where the first sum of z_i is the K-prefix GEMM (tensor.MulMatTPrefix)
// and the second continues the same accumulator in ascending column order.
// The skipped terms are zero products, which never move a running sum that
// starts from +0 (tensor.MulVecDense documents why), so every score is
// bit-identical to the single-row reference.

// PredictScratch is the caller-owned working memory of PredictBatch. The
// zero value is ready to use; its buffers grow to the largest batch seen
// and are reused after that, so steady-state scoring allocates nothing. A
// PredictScratch is not safe for concurrent use: give each goroutine its
// own.
type PredictScratch struct {
	hp, z, lf []float64
	// nz holds every row's nonzero predict-input columns back to back;
	// row b's run ends at nzEnd[b].
	nz    []int32
	nzEnd []int
}

// growFloats returns buf resized to n, reallocating only when it is too
// small.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// PredictBatch runs RNNpredict in inference mode over a batch: dst[b] =
// P(access) for the hidden vector in the leading HiddenDim columns of row
// b of hs and the predict input in row b of fs (B × PredictDim). Rows of
// hs may be wider than HiddenDim — a packed recurrent state — and are read
// in place. Each score is bit-identical to Predict on that row alone.
func (m *Model) PredictBatch(dst []float64, hs, fs *tensor.Matrix, sc *PredictScratch) {
	d, H, P := m.Cfg.HiddenDim, m.Cfg.MLPHidden, m.predictDim
	B := hs.Rows
	if hs.Cols < d || fs.Cols != P || fs.Rows != B || len(dst) < B {
		predictShapePanic(hs, fs, len(dst), d, P)
	}
	// One gather per row serves both the latent cross and W1's context
	// block.
	sc.nz, sc.nzEnd = sc.nz[:0], sc.nzEnd[:0]
	for b := 0; b < B; b++ {
		for j, v := range fs.Data[b*P : (b+1)*P] {
			if v != 0 {
				sc.nz = append(sc.nz, int32(j))
			}
		}
		sc.nzEnd = append(sc.nzEnd, len(sc.nz))
	}

	hp := tensor.Matrix{Rows: B, Cols: hs.Cols, Data: hs.Data}
	if m.Cfg.LatentCross {
		sc.hp = growFloats(sc.hp, B*d)
		sc.lf = growFloats(sc.lf, d)
		l := tensor.Matrix{Rows: d, Cols: P, Data: m.l.W.Value}
		bl := m.l.B.Value[:d]
		lo := 0
		for b := 0; b < B; b++ {
			hi := sc.nzEnd[b]
			l.MulVecSparse(sc.lf, fs.Data[b*P:(b+1)*P], sc.nz[lo:hi])
			lo = hi
			h := hs.Data[b*hs.Cols : b*hs.Cols+d]
			out := sc.hp[b*d : (b+1)*d]
			for i, s := range sc.lf {
				lf := s + bl[i]
				out[i] = h[i] * (1 + lf)
			}
		}
		hp = tensor.Matrix{Rows: B, Cols: d, Data: sc.hp}
	}

	sc.z = growFloats(sc.z, B*H)
	z := tensor.Matrix{Rows: B, Cols: H, Data: sc.z}
	w1 := tensor.Matrix{Rows: H, Cols: d + P, Data: m.w1.W.Value}
	hp.MulMatTPrefix(&z, &w1, d)

	b1, w2, b2 := m.w1.B.Value[:H], m.w2.W.Value[:H], m.w2.B.Value[0]
	lo := 0
	for b := 0; b < B; b++ {
		hi := sc.nzEnd[b]
		nz := sc.nz[lo:hi]
		lo = hi
		f := fs.Data[b*P : (b+1)*P]
		zb := sc.z[b*H : (b+1)*H]
		var s float64
		for i, acc := range zb {
			ctx := w1.Data[i*w1.Cols+d : (i+1)*w1.Cols]
			for _, j := range nz {
				acc += ctx[j] * f[j]
			}
			acc += b1[i]
			var r float64 // ReLU; inference-mode dropout is the identity
			if acc > 0 {
				r = acc
			}
			s += w2[i] * r
		}
		dst[b] = nn.Sigmoid(s + b2)
	}
}

// predictShapePanic is kept out of line so PredictBatch's fast path stays
// free of the formatting's heap escapes.
//
//go:noinline
func predictShapePanic(hs, fs *tensor.Matrix, nDst, d, p int) {
	panic(fmt.Sprintf("core: PredictBatch: hs %dx%d (want ≥%d cols), fs %dx%d (want %d cols, %d rows), dst %d",
		hs.Rows, hs.Cols, d, fs.Rows, fs.Cols, p, hs.Rows, nDst))
}

// predictScratch recycles the one-row scratch of Predict, which callers
// use from many goroutines at once.
var predictScratch = sync.Pool{New: func() any { return new(PredictScratch) }}

// Predict runs RNNpredict in inference mode and returns P(access). It is
// the one-row call of PredictBatch, so inference has a single
// implementation.
func (m *Model) Predict(h, f tensor.Vector) float64 {
	sc := predictScratch.Get().(*PredictScratch)
	var p [1]float64
	hs := tensor.Matrix{Rows: 1, Cols: len(h), Data: h}
	fs := tensor.Matrix{Rows: 1, Cols: len(f), Data: f}
	m.PredictBatch(p[:], &hs, &fs, sc)
	predictScratch.Put(sc)
	return p[0]
}
