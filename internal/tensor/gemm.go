package tensor

// Cache-blocked GEMM kernels for the batched inference path.
//
// The serving tier batches B session finalisations into matrix-matrix
// products so the 3h×d GRU weight matrices are streamed from memory once
// per step instead of once per session — the classic fix for the
// memory-bound matrix-vector regime. Two kernel families are provided:
//
//   - MulMat / MulMatAdd:   dst = (+=) m · other        (NN)
//   - MulMatT / MulMatTAdd: dst = (+=) m · otherᵀ       (NT)
//
// The NT form is the serving workhorse: weights are stored row-major as
// (out × in), and a row-major (B × in) panel of packed inputs times the
// transposed weight gives a (B × out) panel of gate pre-activations with
// fully contiguous inner loops on both operands.
//
// Bit-exactness contract: every output element is accumulated strictly in
// ascending k with a single accumulator chain, exactly like MulVec's inner
// loop. Cache blocking over k spills the running partial sum to dst between
// blocks — a float64 round-trip through memory is exact — and the 4×4
// register-tiled micro-kernel keeps one independent accumulator per output
// element, never a split/pairwise reduction. Batched GRU states are
// therefore bit-identical to the per-session MulVec path, which the serving
// equivalence tests pin down.
//
// Two further rules keep small batches fast without bending that contract:
//
//   - Four-chain rule. Ragged NT rows (the rows a 4×4 tile cannot cover,
//     i.e. every row of a batch smaller than four) run a 1×4 tile: one
//     input row against four weight rows, four independent accumulator
//     chains, each strictly ascending in k. MulVec and MulVecDense compute
//     four output rows at a time under the same rule. Interleaving
//     independent chains changes which instruction runs when, never the
//     order in which any one element's terms are added.
//   - K-prefix rule. MulMatTPrefix multiplies over the first K columns of
//     both operands in place (the row strides stay the full widths), with
//     each element's chain ascending over k < K — so a caller that
//     continues the chain over the remaining columns in ascending order
//     reproduces the full-width product bit for bit.

// Blocking parameters. The k and column blocks are sized so one weight
// panel (kc × nc float64s ≈ 2·10⁵ B) stays L2-resident while row panels
// stream through. A 4×4 micro-tile wants 16 live accumulators, more than
// the 15 float registers Go's amd64 ABI leaves free (X15 is reserved), so
// the serving-path NT tile runs as two 2×4 passes of 8; the NN tile,
// off the serving path, still spills.
const (
	gemmMC = 64  // row cache block
	gemmKC = 256 // k-dimension cache block
	gemmNC = 128 // column cache block
)

// MostlySparse reports whether the rows of m clear the sparse-path
// threshold of MulVec (row length ≥ sparseCutoff, panel density < 1/4).
// The batched GRU uses it to route input panels: packed one-hot update
// inputs go row-by-row through the sparse matrix-vector path, dense panels
// through the GEMM — both bit-identical, very different work.
func (m *Matrix) MostlySparse() bool {
	if m.Cols < sparseCutoff {
		return false
	}
	nz := 0
	limit := len(m.Data) / 4
	for _, v := range m.Data {
		if v != 0 {
			nz++
			if nz >= limit {
				return false
			}
		}
	}
	return true
}

// MulMat computes dst = m · other. dst must be m.Rows × other.Cols and is
// overwritten; it must not alias m or other.
func (m *Matrix) MulMat(dst, other *Matrix) {
	checkLen("Matrix.MulMat inner", m.Cols, other.Rows)
	checkLen("Matrix.MulMat rows", dst.Rows, m.Rows)
	checkLen("Matrix.MulMat cols", dst.Cols, other.Cols)
	dst.Zero()
	gemmNN(dst, m, other)
}

// MulMatAdd computes dst += m · other.
func (m *Matrix) MulMatAdd(dst, other *Matrix) {
	checkLen("Matrix.MulMatAdd inner", m.Cols, other.Rows)
	checkLen("Matrix.MulMatAdd rows", dst.Rows, m.Rows)
	checkLen("Matrix.MulMatAdd cols", dst.Cols, other.Cols)
	gemmNN(dst, m, other)
}

// MulMatT computes dst = m · otherᵀ. dst must be m.Rows × other.Rows and is
// overwritten; it must not alias m or other. Both operands are traversed
// row-contiguously, so this is the preferred form when the right-hand side
// is a row-major (out × in) weight matrix.
func (m *Matrix) MulMatT(dst, other *Matrix) {
	checkLen("Matrix.MulMatT inner", m.Cols, other.Cols)
	checkLen("Matrix.MulMatT rows", dst.Rows, m.Rows)
	checkLen("Matrix.MulMatT cols", dst.Cols, other.Rows)
	dst.Zero()
	gemmNT(dst, m, other, m.Cols)
}

// MulMatTAdd computes dst += m · otherᵀ.
func (m *Matrix) MulMatTAdd(dst, other *Matrix) {
	checkLen("Matrix.MulMatTAdd inner", m.Cols, other.Cols)
	checkLen("Matrix.MulMatTAdd rows", dst.Rows, m.Rows)
	checkLen("Matrix.MulMatTAdd cols", dst.Cols, other.Rows)
	gemmNT(dst, m, other, m.Cols)
}

// MulMatTPrefix computes dst = m[:, :k] · other[:, :k]ᵀ: the NT product over
// the first k columns of both operands, read in place — neither operand is
// packed or copied, so a weight matrix's leading column block (e.g. the
// hidden-state block of a concatenated-input layer) multiplies without a
// sliced copy. dst must be m.Rows × other.Rows and is overwritten; it must
// not alias m or other. Each element is one chain ascending over k' < k
// (the K-prefix rule in the header).
func (m *Matrix) MulMatTPrefix(dst, other *Matrix, k int) {
	if k < 0 || k > m.Cols || k > other.Cols {
		lenPanic("Matrix.MulMatTPrefix k", min(m.Cols, other.Cols), k)
	}
	checkLen("Matrix.MulMatTPrefix rows", dst.Rows, m.Rows)
	checkLen("Matrix.MulMatTPrefix cols", dst.Cols, other.Rows)
	dst.Zero()
	gemmNT(dst, m, other, k)
}

// gemmNN accumulates dst += a · b with cache blocking and a 4×4
// register-tiled micro-kernel.
func gemmNN(dst, a, b *Matrix) {
	M, K, N := a.Rows, a.Cols, b.Cols
	for jc := 0; jc < N; jc += gemmNC {
		nc := min(gemmNC, N-jc)
		for kc := 0; kc < K; kc += gemmKC {
			kb := min(gemmKC, K-kc)
			for ic := 0; ic < M; ic += gemmMC {
				mc := min(gemmMC, M-ic)
				gemmNNBlock(dst, a, b, ic, jc, kc, mc, nc, kb)
			}
		}
	}
}

// gemmNNBlock computes dst[ic:ic+mc, jc:jc+nc] += a[ic:, kc:kc+kb] · b[kc:, jc:].
func gemmNNBlock(dst, a, b *Matrix, ic, jc, kc, mc, nc, kb int) {
	i := 0
	for ; i+4 <= mc; i += 4 {
		j := 0
		for ; j+4 <= nc; j += 4 {
			microNN4x4(dst, a, b, ic+i, jc+j, kc, kb)
		}
		if j < nc {
			gemmNNEdge(dst, a, b, ic+i, 4, jc+j, nc-j, kc, kb)
		}
	}
	if i < mc {
		gemmNNEdge(dst, a, b, ic+i, mc-i, jc, nc, kc, kb)
	}
}

// microNN4x4 computes the 4×4 tile dst[i0:i0+4, j0:j0+4] += Σ_k a·b over
// k ∈ [kc, kc+kb). The 16 accumulators are loaded from dst so the per-element
// accumulation chain stays strictly k-ordered across k-blocks.
func microNN4x4(dst, a, b *Matrix, i0, j0, kc, kb int) {
	ld, la, lb := dst.Cols, a.Cols, b.Cols
	d0 := dst.Data[(i0+0)*ld+j0 : (i0+0)*ld+j0+4 : (i0+0)*ld+j0+4]
	d1 := dst.Data[(i0+1)*ld+j0 : (i0+1)*ld+j0+4 : (i0+1)*ld+j0+4]
	d2 := dst.Data[(i0+2)*ld+j0 : (i0+2)*ld+j0+4 : (i0+2)*ld+j0+4]
	d3 := dst.Data[(i0+3)*ld+j0 : (i0+3)*ld+j0+4 : (i0+3)*ld+j0+4]
	c00, c01, c02, c03 := d0[0], d0[1], d0[2], d0[3]
	c10, c11, c12, c13 := d1[0], d1[1], d1[2], d1[3]
	c20, c21, c22, c23 := d2[0], d2[1], d2[2], d2[3]
	c30, c31, c32, c33 := d3[0], d3[1], d3[2], d3[3]
	a0 := a.Data[(i0+0)*la+kc : (i0+0)*la+kc+kb : (i0+0)*la+kc+kb]
	a1 := a.Data[(i0+1)*la+kc : (i0+1)*la+kc+kb : (i0+1)*la+kc+kb]
	a2 := a.Data[(i0+2)*la+kc : (i0+2)*la+kc+kb : (i0+2)*la+kc+kb]
	a3 := a.Data[(i0+3)*la+kc : (i0+3)*la+kc+kb : (i0+3)*la+kc+kb]
	for k := 0; k < kb; k++ {
		brow := b.Data[(kc+k)*lb+j0 : (kc+k)*lb+j0+4 : (kc+k)*lb+j0+4]
		b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
		av := a0[k]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = a1[k]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = a2[k]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = a3[k]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
	}
	d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
	d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
	d2[0], d2[1], d2[2], d2[3] = c20, c21, c22, c23
	d3[0], d3[1], d3[2], d3[3] = c30, c31, c32, c33
}

// gemmNNEdge handles the ragged rows/columns a 4×4 tile cannot cover, with
// the same single-accumulator k-order per element.
func gemmNNEdge(dst, a, b *Matrix, i0, ni, j0, nj, kc, kb int) {
	for i := i0; i < i0+ni; i++ {
		arow := a.Data[i*a.Cols+kc : i*a.Cols+kc+kb]
		drow := dst.Data[i*dst.Cols+j0 : i*dst.Cols+j0+nj]
		for j := range drow {
			acc := drow[j]
			for k, av := range arow {
				acc += av * b.Data[(kc+k)*b.Cols+j0+j]
			}
			drow[j] = acc
		}
	}
}

// gemmNT accumulates dst += a[:, :K] · b[:, :K]ᵀ (a: M×≥K, b: N×≥K, dst:
// M×N) with cache blocking and a 4×4 micro-kernel of contiguous dot
// products. The kernels index with the operands' own row strides, so K
// below the full width reads a column prefix in place.
func gemmNT(dst, a, b *Matrix, K int) {
	M, N := a.Rows, b.Rows
	for kc := 0; kc < K; kc += gemmKC {
		kb := min(gemmKC, K-kc)
		for jc := 0; jc < N; jc += gemmNC {
			nc := min(gemmNC, N-jc)
			for ic := 0; ic < M; ic += gemmMC {
				mc := min(gemmMC, M-ic)
				gemmNTBlock(dst, a, b, ic, jc, kc, mc, nc, kb)
			}
		}
	}
}

func gemmNTBlock(dst, a, b *Matrix, ic, jc, kc, mc, nc, kb int) {
	i := 0
	for ; i+4 <= mc; i += 4 {
		j := 0
		for ; j+4 <= nc; j += 4 {
			microNT4x4(dst, a, b, ic+i, jc+j, kc, kb)
		}
		if j < nc {
			gemmNTEdge(dst, a, b, ic+i, 4, jc+j, nc-j, kc, kb)
		}
	}
	if i < mc {
		gemmNTEdge(dst, a, b, ic+i, mc-i, jc, nc, kc, kb)
	}
}

// microNT4x4 computes dst[i0:i0+4, j0:j0+4] += a[i0:i0+4, kc:kc+kb] ·
// b[j0:j0+4, kc:kc+kb]ᵀ as two 2×4 passes over the same four contiguous
// b-rows. Sixteen live accumulators exceed the fifteen float registers
// Go's amd64 ABI leaves free and spill to the stack every k step; eight
// per pass stay in registers, and the b-rows are L1-resident for the
// second pass.
func microNT4x4(dst, a, b *Matrix, i0, j0, kc, kb int) {
	microNT2x4(dst, a, b, i0, j0, kc, kb)
	microNT2x4(dst, a, b, i0+2, j0, kc, kb)
}

// microNT2x4 computes dst[i0:i0+2, j0:j0+4] += a[i0:i0+2, kc:kc+kb] ·
// b[j0:j0+4, kc:kc+kb]ᵀ — eight simultaneous dot products, each one chain
// ascending in k, loaded from dst so the order holds across k-blocks.
func microNT2x4(dst, a, b *Matrix, i0, j0, kc, kb int) {
	la, lb, ld := a.Cols, b.Cols, dst.Cols
	a0 := a.Data[(i0+0)*la+kc : (i0+0)*la+kc+kb : (i0+0)*la+kc+kb]
	a1 := a.Data[(i0+1)*la+kc : (i0+1)*la+kc+kb : (i0+1)*la+kc+kb]
	b0 := b.Data[(j0+0)*lb+kc : (j0+0)*lb+kc+kb : (j0+0)*lb+kc+kb]
	b1 := b.Data[(j0+1)*lb+kc : (j0+1)*lb+kc+kb : (j0+1)*lb+kc+kb]
	b2 := b.Data[(j0+2)*lb+kc : (j0+2)*lb+kc+kb : (j0+2)*lb+kc+kb]
	b3 := b.Data[(j0+3)*lb+kc : (j0+3)*lb+kc+kb : (j0+3)*lb+kc+kb]
	a1, b0, b1, b2, b3 = a1[:len(a0)], b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
	d0 := dst.Data[(i0+0)*ld+j0 : (i0+0)*ld+j0+4 : (i0+0)*ld+j0+4]
	d1 := dst.Data[(i0+1)*ld+j0 : (i0+1)*ld+j0+4 : (i0+1)*ld+j0+4]
	c00, c01, c02, c03 := d0[0], d0[1], d0[2], d0[3]
	c10, c11, c12, c13 := d1[0], d1[1], d1[2], d1[3]
	for k, av := range a0 {
		w0, w1, w2, w3 := b0[k], b1[k], b2[k], b3[k]
		c00 += av * w0
		c01 += av * w1
		c02 += av * w2
		c03 += av * w3
		av = a1[k]
		c10 += av * w0
		c11 += av * w1
		c12 += av * w2
		c13 += av * w3
	}
	d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
	d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
}

// gemmNTEdge handles the ragged rows/columns a 4×4 tile cannot cover. Each
// a-row meets the b-rows four at a time through the 1×4 tile; columns left
// over after that run one chain each. Every element keeps its single
// ascending-k chain (the four-chain rule in the header).
func gemmNTEdge(dst, a, b *Matrix, i0, ni, j0, nj, kc, kb int) {
	la, lb, ld := a.Cols, b.Cols, dst.Cols
	for i := i0; i < i0+ni; i++ {
		arow := a.Data[i*la+kc : i*la+kc+kb : i*la+kc+kb]
		drow := dst.Data[i*ld+j0 : i*ld+j0+nj : i*ld+j0+nj]
		j := 0
		for ; j+4 <= nj; j += 4 {
			microNT1x4(drow[j:j+4:j+4], arow, b, j0+j, kc)
		}
		for ; j < nj; j++ {
			brow := b.Data[(j0+j)*lb+kc : (j0+j)*lb+kc+kb : (j0+j)*lb+kc+kb]
			brow = brow[:len(arow)]
			acc := drow[j]
			for k, av := range arow {
				acc += av * brow[k]
			}
			drow[j] = acc
		}
	}
}

// microNT1x4 computes d[0:4] += arow · b[j0:j0+4, kc:kc+len(arow)]ᵀ — one
// input row against four weight rows, four independent accumulator chains
// loaded from d so the k-order holds across k-blocks. A lone row's dot
// products otherwise run one serial add chain per output; four chains
// overlap the add latency.
func microNT1x4(d, arow []float64, b *Matrix, j0, kc int) {
	lb, kb := b.Cols, len(arow)
	b0 := b.Data[(j0+0)*lb+kc : (j0+0)*lb+kc+kb : (j0+0)*lb+kc+kb]
	b1 := b.Data[(j0+1)*lb+kc : (j0+1)*lb+kc+kb : (j0+1)*lb+kc+kb]
	b2 := b.Data[(j0+2)*lb+kc : (j0+2)*lb+kc+kb : (j0+2)*lb+kc+kb]
	b3 := b.Data[(j0+3)*lb+kc : (j0+3)*lb+kc+kb : (j0+3)*lb+kc+kb]
	b0, b1, b2, b3 = b0[:len(arow)], b1[:len(arow)], b2[:len(arow)], b3[:len(arow)]
	d = d[:4]
	c0, c1, c2, c3 := d[0], d[1], d[2], d[3]
	for k, av := range arow {
		c0 += av * b0[k]
		c1 += av * b1[k]
		c2 += av * b2[k]
		c3 += av * b3[k]
	}
	d[0], d[1], d[2], d[3] = c0, c1, c2, c3
}
