package tensor

import (
	"fmt"
	"math"
	"testing"
)

// refMulMat is the k-ordered reference GEMM: one accumulator per element,
// terms added in ascending k — the exact contract the blocked kernels
// promise, so the comparison below is for bit equality, not tolerance.
func refMulMat(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
}

func randMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// gemmShapes covers tile-aligned, ragged, tiny, and block-crossing shapes
// (K > gemmKC exercises the partial-sum spill between k-blocks).
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {5, 7, 3}, {8, 16, 8},
	{17, 33, 9}, {64, 300, 12}, {7, 260, 5}, {130, 13, 70},
}

func TestMulMatBitIdenticalToReference(t *testing.T) {
	rng := NewRNG(7)
	for _, sh := range gemmShapes {
		a := randMatrix(rng, sh.m, sh.k)
		b := randMatrix(rng, sh.k, sh.n)
		want := NewMatrix(sh.m, sh.n)
		refMulMat(want, a, b)
		got := NewMatrix(sh.m, sh.n)
		a.MulMat(got, b)
		for i, w := range want.Data {
			if got.Data[i] != w {
				t.Fatalf("%dx%dx%d: element %d: got %v want %v", sh.m, sh.k, sh.n, i, got.Data[i], w)
			}
		}
	}
}

func TestMulMatTBitIdenticalToMulVec(t *testing.T) {
	rng := NewRNG(8)
	for _, sh := range gemmShapes {
		// dst = a · wᵀ: row i of dst must match w.MulVec(row i of a).
		a := randMatrix(rng, sh.m, sh.k)
		w := randMatrix(rng, sh.n, sh.k)
		got := NewMatrix(sh.m, sh.n)
		a.MulMatT(got, w)
		want := NewVector(sh.n)
		for i := 0; i < sh.m; i++ {
			w.MulVec(want, a.Row(i))
			for j, x := range want {
				if got.At(i, j) != x {
					t.Fatalf("%dx%dx%d: row %d col %d: got %v want %v", sh.m, sh.k, sh.n, i, j, got.At(i, j), x)
				}
			}
		}
	}
}

func TestMulMatAddAccumulates(t *testing.T) {
	rng := NewRNG(9)
	a := randMatrix(rng, 9, 21)
	b := randMatrix(rng, 21, 6)
	base := randMatrix(rng, 9, 6)

	// The accumulate contract folds each product term into the existing dst
	// value in ascending k (not dst + full-product, which differs in the
	// last ulp): mirror that chain in the reference.
	want := base.Clone()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			acc := want.At(i, j)
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, acc)
		}
	}

	got := base.Clone()
	a.MulMatAdd(got, b)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}

	gotT := base.Clone()
	bT := NewMatrix(6, 21)
	for i := 0; i < 21; i++ {
		for j := 0; j < 6; j++ {
			bT.Set(j, i, b.At(i, j))
		}
	}
	a.MulMatTAdd(gotT, bT)
	for i := range gotT.Data {
		if gotT.Data[i] != want.Data[i] {
			t.Fatalf("NT element %d: got %v want %v", i, gotT.Data[i], want.Data[i])
		}
	}
}

func TestMulMatShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 2) // inner mismatch
	dst := NewMatrix(2, 2)
	for _, fn := range []func(){
		func() { a.MulMat(dst, b) },
		func() { a.MulMatAdd(dst, b) },
		func() { a.MulMatT(NewMatrix(2, 5), NewMatrix(5, 4)) }, // inner mismatch (4 != 3)
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("shape mismatch must panic")
				}
			}()
			fn()
		}()
	}
}

// TestMulVecAddMatchesMulVec is the property test pinning the sparse fast
// path: MulVecAdd on a zeroed destination must be bit-identical to MulVec,
// across dense, sparse (one-hot-like), and empty inputs.
func TestMulVecAddMatchesMulVec(t *testing.T) {
	rng := NewRNG(10)
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(400)
		m := randMatrix(rng, rows, cols)
		x := NewVector(cols)
		switch trial % 3 {
		case 0: // dense
			for i := range x {
				x[i] = rng.NormFloat64()
			}
		case 1: // sparse one-hot-ish (the GRU update-input shape)
			for i := 0; i < 1+rng.Intn(4); i++ {
				x[rng.Intn(cols)] = 1
			}
		case 2: // all zero
		}
		want := NewVector(rows)
		m.MulVec(want, x)
		got := NewVector(rows)
		m.MulVecAdd(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%dx%d) row %d: MulVecAdd %v vs MulVec %v", trial, rows, cols, i, got[i], want[i])
			}
		}
		// And accumulation: a second MulVecAdd must add the product again.
		m.MulVecAdd(got, x)
		for i := range want {
			if got[i] != want[i]+want[i] {
				t.Fatalf("trial %d row %d: accumulate %v vs %v", trial, i, got[i], want[i]+want[i])
			}
		}
	}
}

func TestMulVecDenseMatchesMulVec(t *testing.T) {
	rng := NewRNG(11)
	m := randMatrix(rng, 24, 96)
	x := NewVector(96)
	x[3], x[90] = 1, 2.5 // sparse: MulVec takes the gather path
	want := NewVector(24)
	m.MulVec(want, x)
	got := NewVector(24)
	m.MulVecDense(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: dense %v vs sparse %v", i, got[i], want[i])
		}
	}
}

// TestMulVecSteadyStateAllocs pins the gatherNonzeros pool fix: sparse
// matrix-vector products must not allocate per call.
func TestMulVecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts, so the nzPool buffer reallocates")
	}
	rng := NewRNG(12)
	m := randMatrix(rng, 48, 300)
	x := NewVector(300)
	x[5], x[120], x[299] = 1, 1, 1
	dst := NewVector(48)
	m.MulVec(dst, x) // warm the pool
	for name, fn := range map[string]func(){
		"MulVec":     func() { m.MulVec(dst, x) },
		"MulVecAdd":  func() { m.MulVecAdd(dst, x) },
		"RankOneAdd": func() { m.RankOneAdd(0.5, dst, x) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Fatalf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestArenaReuse(t *testing.T) {
	a := NewArena(0)
	a.Reset()
	m1 := a.Matrix(4, 8)
	v1 := a.Vector(16)
	if m1.Rows != 4 || m1.Cols != 8 || len(m1.Data) != 32 || len(v1) != 16 {
		t.Fatalf("arena shapes wrong: %dx%d len %d / %d", m1.Rows, m1.Cols, len(m1.Data), len(v1))
	}
	m1.Data[0] = 42
	a.Reset()
	// Same demand → same backing storage, no allocation.
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		m := a.Matrix(4, 8)
		_ = a.Vector(16)
		m.Data[0] = 1
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena allocs: %v, want 0", allocs)
	}
	// Growth: a bigger cycle is satisfied (from the heap at first, from the
	// regrown slab afterwards).
	a.Reset()
	big := a.Matrix(64, 64)
	big.Data[4095] = 7
	a.Reset()
	if got := testing.AllocsPerRun(10, func() {
		a.Reset()
		_ = a.Matrix(64, 64)
	}); got != 0 {
		t.Fatalf("post-growth arena allocs: %v, want 0", got)
	}
}

// BenchmarkGEMM measures the blocked kernels at the batched-GRU shapes:
// a (B × d) panel against the (3h × d) gate weights.
func BenchmarkGEMM(b *testing.B) {
	rng := NewRNG(13)
	for _, d := range []int{32, 64, 128} {
		for _, batch := range []int{8, 32} {
			x := randMatrix(rng, batch, d)
			w := randMatrix(rng, 3*d, d)
			dst := NewMatrix(batch, 3*d)
			b.Run(fmt.Sprintf("NT-d%d-B%d", d, batch), func(b *testing.B) {
				b.SetBytes(int64(8 * (batch*d + 3*d*d + batch*3*d)))
				for i := 0; i < b.N; i++ {
					x.MulMatT(dst, w)
				}
			})
		}
	}
}

// BenchmarkMulVecVsGEMM contrasts B MulVecs against one GEMM at the same
// total work — the weight-reuse win the batched finaliser banks on.
func BenchmarkMulVecVsGEMM(b *testing.B) {
	rng := NewRNG(14)
	const d, batch = 64, 32
	w := randMatrix(rng, 3*d, d)
	x := randMatrix(rng, batch, d)
	dstV := NewVector(3 * d)
	dstM := NewMatrix(batch, 3*d)
	b.Run("mulvec-x32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < batch; r++ {
				w.MulVec(dstV, x.Row(r))
			}
		}
	})
	b.Run("gemm-32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.MulMatT(dstM, w)
		}
	})
}

// Shapes of the small-batch property tests: every batch size a ragged-row
// tile meets (M ≤ 9), output widths from a lone column to the GRU gate
// panel (3·128), and inner widths that cross gemmKC (300).
var (
	smallM = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	smallN = []int{1, 3, 5, 15, 128, 384}
	smallK = []int{1, 7, 128, 300}
)

// edgeMatrix fills a rows×cols matrix with normal values salted with the
// IEEE-754 entries a reassociating kernel would mishandle: +0, −0 and
// subnormals.
func edgeMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		case 2:
			m.Data[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 3:
			m.Data[i] = -2.5e-310 * rng.Float64()
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// naiveDot is the single-chain reference: terms added in ascending k,
// starting from +0.
func naiveDot(a, b []float64) float64 {
	var s float64
	for k := range a {
		s += a[k] * b[k]
	}
	return s
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestMulMatTPrefixMatchesNaive pins the 1×4 edge tile, the 2×4 tile and
// the K-prefix entry point: every element of m[:, :k] · w[:, :k]ᵀ equals
// the naive chain bit for bit, with both operands wider than k (row
// strides are the full widths) and at the full width, where MulMatT must
// agree too.
func TestMulMatTPrefixMatchesNaive(t *testing.T) {
	rng := NewRNG(21)
	for _, M := range smallM {
		for _, N := range smallN {
			for _, K := range smallK {
				for _, pad := range []struct{ a, b int }{{0, 0}, {3, 5}} {
					a := edgeMatrix(rng, M, K+pad.a)
					w := edgeMatrix(rng, N, K+pad.b)
					got := NewMatrix(M, N)
					a.MulMatTPrefix(got, w, K)
					for i := 0; i < M; i++ {
						for j := 0; j < N; j++ {
							want := naiveDot(a.Row(i)[:K], w.Row(j)[:K])
							if !sameBits(got.At(i, j), want) {
								t.Fatalf("M=%d N=%d K=%d pad=%v (%d,%d): got %v want %v",
									M, N, K, pad, i, j, got.At(i, j), want)
							}
						}
					}
					if pad.a == 0 && pad.b == 0 {
						full := NewMatrix(M, N)
						a.MulMatT(full, w)
						for e := range full.Data {
							if !sameBits(full.Data[e], got.Data[e]) {
								t.Fatalf("M=%d N=%d K=%d: MulMatT element %d differs from the prefix form", M, N, K, e)
							}
						}
					}
				}
			}
		}
	}
}

// TestMulVecFourRowMatchesNaive pins the four-row MulVecDense and sparse
// MulVec row loops (and MulVecSparse over a caller gather): each output
// equals the naive single chain over the full row, for dense and sparse
// inputs salted with ±0 and subnormals.
func TestMulVecFourRowMatchesNaive(t *testing.T) {
	rng := NewRNG(22)
	for _, N := range smallN {
		for _, K := range smallK {
			w := edgeMatrix(rng, N, K)
			dense := edgeMatrix(rng, 1, K).Row(0)
			sparse := NewVector(K)
			for _, j := range []int{0, K / 3, K - 1} {
				sparse[j] = rng.NormFloat64()
			}
			sparse[K/2] = math.Copysign(0, -1)
			sparse[(2*K)/3] = 3e-320
			for name, x := range map[string]Vector{"dense": dense, "sparse": sparse} {
				var idx []int32
				for j, v := range x {
					if v != 0 {
						idx = append(idx, int32(j))
					}
				}
				got := map[string]Vector{"MulVec": NewVector(N), "MulVecDense": NewVector(N), "MulVecSparse": NewVector(N)}
				w.MulVec(got["MulVec"], x)
				w.MulVecDense(got["MulVecDense"], x)
				w.MulVecSparse(got["MulVecSparse"], x, idx)
				for i := 0; i < N; i++ {
					want := naiveDot(w.Row(i), x)
					for kernel, g := range got {
						if !sameBits(g[i], want) {
							t.Fatalf("%s N=%d K=%d %s row %d: got %v want %v", kernel, N, K, name, i, g[i], want)
						}
					}
				}
			}
		}
	}
}

// BenchmarkSmallBatchNT times the ragged-row regime the serving tier sees
// at low load: B ≤ 9 rows against the GRU's 3·128 × 128 recurrent weights.
func BenchmarkSmallBatchNT(b *testing.B) {
	rng := NewRNG(23)
	const d = 128
	w := randMatrix(rng, 3*d, d)
	for _, batch := range []int{1, 2, 3, 4, 5, 6, 8, 9} {
		x := randMatrix(rng, batch, d)
		dst := NewMatrix(batch, 3*d)
		b.Run(fmt.Sprintf("B%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.MulMatT(dst, w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*batch), "us/row")
		})
	}
}
