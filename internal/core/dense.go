package core

import (
	"time"

	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/obs"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// The dense WinRS unit: one (segment, f_h, width-tile) unit of a plan with
// I_C/G > 1, in FP32 or decoded-operand FP16. Its tiles — every unclipped
// (oh, ow0, nb) of the segment, in that order — run in chunks through
// three exclusive passes:
//
//  1. transform: gather each tile's X and apply Dᵀ (FP16 also rounds
//     through binary16) into the chunk's per-coordinate X̂ panels — with
//     gemm4x8 when I_C is a multiple of 8;
//  2. GEMM: per transform coordinate e, copy the chunk's Ŵ rows out of the
//     Ŵ cache into one panel and run gemm4x8 over every 4×8 block of the
//     accumulators V_e;
//  3. after the last chunk, apply Aᵀ one ∇W row block at a time, with
//     gemm4x8 again (K = α).
//
// The accumulators are laid out [O_C][α][I_C], so pass 3 reads each output
// channel's α rows as one contiguous block. O_C pads to a multiple of 4 and
// I_C to a multiple of 8 with zero lanes in the packs and the
// accumulators, so every layer — the I_C = 3 stem too — runs the one
// kernel with no scalar tail. Padded lanes are never written to the
// bucket. Each accumulator element receives its adds in tile order with
// one rounding per product and per add, exactly as the per-tile rank-1
// updates did, and each output sums its α products in ascending e from
// zero, exactly as the scalar output transform did, so ∇W is bit-identical
// to the rank-1 tier for finite operands.

// Chunk sizing: the X̂ panels of one chunk take at most chunkBytes per
// worker, and a chunk holds at least chunkMinTiles tiles (or all of a
// smaller unit's), so the accumulators are swept at most once per
// chunkMinTiles tiles.
const (
	chunkBytes    = 64 << 10
	chunkMinTiles = 8
)

func pad4(n int) int { return (n + 3) &^ 3 }
func pad8(n int) int { return (n + 7) &^ 7 }

// chunkTiles is the tile count of one chunk of a unit with unitTiles
// tiles, for an α-point kernel with I_C padded to icp lanes.
func chunkTiles(alpha, icp, unitTiles int) int {
	return min(max(chunkBytes/(4*pad4(alpha)*icp), chunkMinTiles), unitTiles)
}

// unitTiles bounds the tile count of one of the segment's units.
func unitTiles(p conv.Params, seg Segment) int {
	return seg.Rows() * (seg.Cols() / seg.K.R) * p.N
}

// denseScratchBytes is the per-worker scratch of a dense unit of the
// segment: the padded accumulators, one chunk of X̂ panels, the Ŵ panels
// of one coordinate, the tile transform buffers and the packed Dᵀ and Aᵀ.
func denseScratchBytes(p conv.Params, seg Segment) int64 {
	alpha, alpha4 := seg.K.Alpha, pad4(seg.K.Alpha)
	ocp, icp := pad4(p.OC), pad8(p.IC)
	t := chunkTiles(alpha, icp, unitTiles(p, seg))
	floats := alpha*ocp*icp + t*alpha4*icp + t*ocp + 2*alpha*p.IC + alpha*alpha4 + 4*alpha*4
	return int64(floats) * 4
}

// denseUnit runs one dense unit. x holds the layer's input in float32
// form (the FP32 operand, or the decoded mirror of the FP16 one) with
// shape xs; what is the segment's float32 Ŵ cache. half selects the FP16
// transforms: the eq. (7) matrices for α ≥ 16 and the binary16 rounding
// of X̂. ut, when non-nil, accumulates the three passes' durations.
func denseUnit(p conv.Params, seg Segment, fh, j int, xs tensor.Shape, x []float32,
	what, bucket []float32, half bool, ut *obs.UnitTimes) {
	tr := seg.K.Transform()
	var dtPlan *winograd.SymPlan
	var dMat, aMat *winograd.Mat
	if half {
		_, dMat, aMat = halfMats(tr)
	} else {
		// Balanced transforms keep FP32 cancellation in the paper's
		// accuracy band for the α = 16 kernels; the symmetric panel plan
		// implements the Figure 8 transform simplification.
		bal := tr.Balanced()
		_, dtPlan = bal.PanelPlans()
		aMat = bal.A
	}
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC
	ocp, icp, alpha4 := pad4(oc), pad8(ic), pad4(alpha)
	chunk := chunkTiles(alpha, icp, unitTiles(p, seg))

	s := getTileScratch()
	defer putTileScratch(s)
	v := growF32Zero(&s.v, alpha*ocp*icp)
	xRaw := growF32(&s.xRaw, alpha*ic)
	xHat := growF32(&s.xHatF, alpha*ic)
	xPack := growF32(&s.xPack, chunk*alpha4*icp)
	wPack := growF32(&s.wPack, chunk*ocp)
	// When I_C is a multiple of 8 the input transform runs on gemm4x8 too,
	// straight from the tile's rows into the X̂ panels: dPanel holds the
	// Dᵀ chains (see SymPlan.ChainPanel), one per X̂ row, padded to α4.
	var dPanel []float32
	var pairs [][2]int
	gemmX := ic == icp
	if gemmX {
		dPanel = growF32(&s.dPanel, alpha*alpha4)
		if half {
			clear(dPanel)
			for k := 0; k < alpha; k++ {
				for i := 0; i < alpha; i++ {
					dPanel[k*alpha4+i] = float32(dMat.At(k, i))
				}
			}
		} else {
			pairs = dtPlan.ChainPanel(dPanel, alpha4)
		}
	}
	colBase := j * n
	entry := alpha * oc
	tiles := seg.Cols() / r

	var sink obs.UnitTimes
	clk := unitClock{on: ut != nil}
	if clk.on {
		clk.t = time.Now()
	} else {
		ut = &sink
	}
	// The unclipped rows are contiguous, so a chunk's tiles occupy
	// consecutive Ŵ-cache entries from w0.
	nt, w0 := 0, 0
	runChunk := func() {
		if gemmX {
			finishX(xPack, pairs, nt, chunk, alpha, icp, half)
		}
		clk.lap(&ut.Transform)
		gemmChunk(v, what, w0, nt, xPack, wPack, alpha, oc, icp, chunk)
		clk.lap(&ut.EWM)
		nt = 0
	}
	for oh := seg.Row0; oh < seg.Row1; oh++ {
		ih := oh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue // height-axis clipping (Figure 7)
		}
		rowBase := (oh - seg.Row0) * tiles
		for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
			for nb := 0; nb < p.N; nb++ {
				if nt == 0 {
					w0 = ((rowBase+t)*p.N + nb) * entry
					if gemmX {
						clear(xPack)
					}
				}
				// An interior tile is one contiguous [α][I_C] block in the
				// (N,H,W,C) layout and feeds the transform in place; only
				// width-clipped tiles gather through xRaw (with implicit
				// zero padding).
				iw0 := ow0 + colBase - p.PW
				xSrc := xRaw
				if iw0 >= 0 && iw0+alpha <= p.IW {
					base := xs.Index(nb, ih, iw0, 0)
					xSrc = x[base : base+alpha*ic]
				} else {
					for u := 0; u < alpha; u++ {
						iw := iw0 + u
						dst := xRaw[u*ic : (u+1)*ic]
						if iw < 0 || iw >= p.IW {
							clear(dst)
							continue
						}
						base := xs.Index(nb, ih, iw, 0)
						copy(dst, x[base:base+ic])
					}
				}
				switch {
				case gemmX:
					for e0 := 0; e0 < alpha4; e0 += 4 {
						for b0 := 0; b0 < ic; b0 += 8 {
							gemm4x8(xPack[(e0*chunk+nt)*icp+b0:], chunk*icp, dPanel[e0:], alpha4, xSrc[b0:], ic, alpha)
						}
					}
				case half:
					matTMulF32(dMat, xSrc, xHat, alpha, ic)
					fp16.RoundSlice(xHat)
					packX(xPack, xHat, nt, chunk, alpha, ic, icp)
				default:
					dtPlan.MulPanel(xSrc, xHat, alpha, ic)
					packX(xPack, xHat, nt, chunk, alpha, ic, icp)
				}
				if nt++; nt == chunk {
					runChunk()
				}
			}
		}
	}
	if nt > 0 {
		runChunk()
	}
	aPack := packA(aMat, growF32(&s.acc, pad4(n)*alpha), n, alpha)
	denseOutput(p.DWShape(), aPack, v, bucket, fh, colBase, n, alpha, oc, ic, icp)
	clk.lap(&ut.Output)
}

// packX copies tile t's X̂ rows ([α][ic]) into the chunk's X̂ panels,
// laid out [α][chunk][icp]; the lanes past ic are zeroed. Layers whose I_C
// is a multiple of 8 write the panels directly instead (see denseUnit).
func packX(xPack, xHat []float32, t, chunk, alpha, ic, icp int) {
	for e := 0; e < alpha; e++ {
		dst := xPack[(e*chunk+t)*icp : (e*chunk+t+1)*icp]
		clear(dst[copy(dst, xHat[e*ic:(e+1)*ic]):])
	}
}

// finishX completes the X̂ panels of the chunk's first nt tiles after the
// chain GEMMs: symmetric pairs combine as (u, v) ← (u + v, u − v), and
// FP16 rounds every X̂ value through binary16.
func finishX(xPack []float32, pairs [][2]int, nt, chunk, alpha, icp int, half bool) {
	rowLen := nt * icp
	for _, pr := range pairs {
		ru := xPack[pr[0]*chunk*icp:][:rowLen]
		rv := xPack[pr[1]*chunk*icp:][:rowLen]
		for x, even := range ru {
			odd := rv[x]
			ru[x], rv[x] = even+odd, even-odd
		}
	}
	if half {
		for e := 0; e < alpha; e++ {
			fp16.RoundSlice(xPack[e*chunk*icp:][:rowLen])
		}
	}
}

// gemmChunk adds one chunk's products into the accumulators v
// ([ocp][α][icp]). The chunk's tiles are consecutive in the Ŵ cache,
// starting at offset w0; xPack holds their X̂ panels (see packX). Per
// coordinate e the tiles' Ŵ rows are copied into wPack as [kt][ocp], and
// every 4×8 block of V_e takes one gemm4x8 call over all kt tiles.
func gemmChunk(v, what []float32, w0, kt int, xPack, wPack []float32,
	alpha, oc, icp, chunk int) {
	ocp := pad4(oc)
	entry := alpha * oc
	ldc := alpha * icp
	for e := 0; e < alpha; e++ {
		for t := 0; t < kt; t++ {
			src := what[w0+t*entry+e*oc:][:oc]
			dst := wPack[t*ocp : (t+1)*ocp]
			clear(dst[copy(dst, src):])
		}
		for b0 := 0; b0 < icp; b0 += 8 {
			xp := xPack[e*chunk*icp+b0:]
			for a0 := 0; a0 < ocp; a0 += 4 {
				gemm4x8(v[a0*ldc+e*icp+b0:], ldc, wPack[a0:], ocp, xp, icp, kt)
			}
		}
	}
}

// packA lays Aᵀ out as gemm4x8 Ŵ panels: dst[(ib*α+e)*4+ii] =
// A[e][4·ib+ii], zero past the n output columns.
func packA(aMat *winograd.Mat, dst []float32, n, alpha int) []float32 {
	for ib := 0; ib*4 < n; ib++ {
		for e := 0; e < alpha; e++ {
			for ii := 0; ii < 4; ii++ {
				var c float32
				if i := ib*4 + ii; i < n {
					c = float32(aMat.At(e, i))
				}
				dst[(ib*alpha+e)*4+ii] = c
			}
		}
	}
	return dst
}

// denseOutput applies the output transform Aᵀ to the accumulators v
// ([ocp][α][icp]) and adds the n output columns into the bucket at
// (·, fh, colBase…, ·). Per output channel a, 4-column block of the n
// outputs and 8-lane block of I_C, one gemm4x8 call sums the α products
// from a zeroed block; only the real rows and lanes reach the bucket.
func denseOutput(dw tensor.Shape, aPack, v, bucket []float32,
	fh, colBase, n, alpha, oc, ic, icp int) {
	var blk [32]float32
	for a := 0; a < oc; a++ {
		va := v[a*alpha*icp : (a+1)*alpha*icp]
		for ib := 0; ib*4 < n; ib++ {
			ap := aPack[ib*alpha*4 : (ib+1)*alpha*4]
			for b0 := 0; b0 < ic; b0 += 8 {
				blk = [32]float32{}
				gemm4x8(blk[:], 8, ap, 4, va[b0:], icp, alpha)
				lanes := min(8, ic-b0)
				for ii := 0; ii < 4 && ib*4+ii < n; ii++ {
					dst := bucket[dw.Index(a, fh, colBase+ib*4+ii, b0):][:lanes]
					for jj, sv := range blk[ii*8 : ii*8+lanes] {
						dst[jj] += sv
					}
				}
			}
		}
	}
}

// unitClock splits a traced unit into exclusive spans: each lap adds the
// time since the previous lap to one stage. Off, it only branches.
type unitClock struct {
	t  time.Time
	on bool
}

// lap closes the current span into *d.
func (c *unitClock) lap(d *time.Duration) {
	if c.on {
		now := time.Now()
		*d += now.Sub(c.t)
		c.t = now
	}
}
