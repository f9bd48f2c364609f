package core

// The dense EWM micro-kernel. For one transform coordinate e the element-
// wise stage of a chunk of K tiles is the GEMM V_e += Ŵ_eᵀ·X̂_e, with Ŵ_e
// packed [K][O_C] and X̂_e packed [K][I_C] (both zero-padded; the strides
// ldw and ldx step from one tile's row to the next). gemm4x8 keeps one
// 4-row × 8-column block of V_e in registers across all K tiles, so
// the accumulator is loaded and stored once per chunk instead of streamed
// once per tile. The dense unit's transforms reuse it: the output
// transform with K = α, Y[i][b] = Σ_e A[e][i]·V[e][b] from a zeroed block,
// and, when I_C is a multiple of 8, the input transform (see
// winograd.SymPlan.ChainPanel).
//
// Every element receives one rounded product and one rounded add per step,
// in step order: c[i][j] = c[i][j] + w[t][i]·x[t][j] for t = 0, 1, …. That
// is the exact operation sequence of the scalar r += w*x the rank-1 panels
// and the scalar output transform ran, so the kernel is bit-identical to
// them for finite operands. The amd64 kernel (gemm_amd64.s) uses SSE2
// MULPS then ADDPS — never FMA, which would drop the product's rounding.

// gemm4x8Go is the portable twin of the assembly kernel and its oracle in
// tests: c[i*ldc+j] += Σ_t w[t*ldw+i]·x[t*ldx+j] for i < 4, j < 8,
// accumulated in ascending t with one rounding per product and per add.
func gemm4x8Go(c []float32, ldc int, w []float32, ldw int, x []float32, ldx, k int) {
	for i := 0; i < 4; i++ {
		row := c[i*ldc : i*ldc+8 : i*ldc+8]
		r0, r1, r2, r3 := row[0], row[1], row[2], row[3]
		r4, r5, r6, r7 := row[4], row[5], row[6], row[7]
		for t := 0; t < k; t++ {
			wv := w[t*ldw+i]
			xs := x[t*ldx : t*ldx+8 : t*ldx+8]
			r0 += wv * xs[0]
			r1 += wv * xs[1]
			r2 += wv * xs[2]
			r3 += wv * xs[3]
			r4 += wv * xs[4]
			r5 += wv * xs[5]
			r6 += wv * xs[6]
			r7 += wv * xs[7]
		}
		row[0], row[1], row[2], row[3] = r0, r1, r2, r3
		row[4], row[5], row[6], row[7] = r4, r5, r6, r7
	}
}
