package core

import (
	"time"

	"winrs/internal/fp16"
	"winrs/internal/kahan"
	"winrs/internal/obs"
	"winrs/internal/sched"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// The channel pass: every plan whose per-group input slice is a single
// channel (I_C/G == 1 — depthwise, depthwise with a channel multiplier
// O_C = m·I_C, and ungrouped I_C == 1) runs as ONE sweep over all output
// channels instead of G one-channel WinRS pipelines.
//
// With one input channel per group, output channel o depends only on input
// channel o/m, and in the (N,H,W,C) layout the channels of a tile row are
// already contiguous. So a work unit is a block of cb output channels, and
// every transform runs channel-vectorized: the ∇Y unit of (oh, ow0, nb) is
// one [r][cb] panel whose Ŵ = G·∇Y is computed once and reused by every
// (f_h, width-tile) of the block; X̂ = Dᵀ·X is an [α][cb/m] panel,
// transformed once per input row and reused by the F_H output rows that
// read it; and the EWM degenerates into the Hadamard product
// v[e][c] += ŵ[e][c]·x̂[e][c/m] (with no zero skip, like the dense
// units: 0·NaN must reach the accumulator). Each unit walks the segments, rows, tiles and images in the
// per-group pipeline's order, applies Aᵀ per segment and Kahan-combines
// the per-segment results straight into its own ∇W rows.
//
// Nothing is shared between units, so the pass needs no Ŵ cache (each
// unit's Ŵ panel is consumed while hot), no segment buckets (the Kahan
// combine replaces the reduce), no staging ring and no phase gates:
// Config.WorkspaceBytes and WHatCacheBytes are 0 and the only scratch is
// the per-worker tile — accumulators, panels and the X̂ row window
// (Config.ChannelTileBytes).
//
// Bit-identity with the per-group pipeline: every column goes through the
// same per-element operation sequence. The symmetric panel transforms and
// the float32 matrix products accumulate each column independently in the
// same ascending order with the same zero skips, whatever the panel width;
// each accumulator receives one fused add per (oh, ow0, nb) in the same
// order; the output transform sums Aᵀ rows in ascending e; and the Kahan
// combine adds the per-segment values in segment order, exactly as
// kahan.ReduceBuckets does over the buckets (a single segment's value is
// copied unchanged either way). A segment's bucket value is 0 + s, which
// equals s because s is accumulated from +0 and is never −0.

// channelPassOff routes I_C/G == 1 plans through the per-group pipeline
// (the grouped dispatch, or the ungrouped Ŵ-cache pipeline) instead of the
// channel pass. Test hook only: that pipeline is the channel pass's
// bit-identity oracle.
var channelPassOff bool

// ChannelPass reports whether the plan executes as the channel pass (every
// I_C/G == 1 plan).
func (c *Config) ChannelPass() bool {
	return c.exec().Params.IC == 1 && !channelPassOff
}

// channelBlockMax caps the channel block: 32 float32 lanes keep a block's
// accumulator tile (F_H·(F_W/n)·α·cb floats) in L1 for every registry
// kernel up to 7×7 filters.
const channelBlockMax = 32

// channelBlock returns the block width for c output channels on a pool of
// the given width: enough blocks to give every worker one, rounded up to a
// multiple of 8 lanes, capped at channelBlockMax and at c.
func channelBlock(c, width int) int {
	if width < 1 {
		width = 1
	}
	cb := (ceilDiv(c, width) + 7) &^ 7
	if cb > channelBlockMax {
		cb = channelBlockMax
	}
	if cb > c {
		cb = c
	}
	return cb
}

// ChannelTileBytes returns the per-worker scratch of the channel pass at
// its widest block: the accumulator tile v[F_H][F_W/n][α][cb], the ∇Y and
// X gathers, the Ŵ panel, the X̂ row cache (F_H input rows of
// [tile][N][F_W/n][α][cb/m] panels), the output-transform row and the
// Kahan state of the block's ∇W rows. 0 for plans that do not take the
// pass.
func (c *Config) ChannelTileBytes() int64 {
	if !c.ChannelPass() {
		return 0
	}
	p := c.Params
	cb := channelBlock(p.OC, 1)
	var floats int64
	for _, seg := range c.exec().Segments {
		k := seg.K
		jt := p.FW / k.N
		f := int64(p.FH*jt*k.Alpha*cb) + // v
			int64(k.R*cb+k.Alpha*cb) + // ∇Y gather + Ŵ
			int64(k.Alpha*cb) + // X gather (cb/m ≤ cb input channels)
			int64(p.FH)*int64(seg.Cols()/k.R)*int64(p.N)*int64(jt*k.Alpha*cb) + // X̂ rows
			int64(cb) // output-transform row
		if f > floats {
			floats = f
		}
	}
	return floats*4 + int64(p.FH*p.FW*cb)*8 // + kahan.Sum32 per ∇W element
}

// chanJob is the pooled sched.Task of one channel-pass execution: item b
// is output-channel block b. Embedded in the Workspace like execJob, so
// the steady-state dispatch allocates nothing.
type chanJob struct {
	cfg       *Config
	x32, dy32 *tensor.Float32
	x16, dy16 *tensor.Half
	dst       *tensor.Float32
	cb        int
	traceOn   bool
}

// Run executes channel blocks [lo, hi) — the sched.Task contract.
func (j *chanJob) Run(lo, hi int) {
	for b := lo; b < hi; b++ {
		if !j.traceOn {
			j.block(b, nil)
			continue
		}
		var ut obs.UnitTimes
		t0 := time.Now()
		j.block(b, &ut)
		obs.RecordUnit(time.Since(t0), ut)
	}
}

// runChannelPass executes an I_C/G == 1 plan into dst. Exactly one operand
// pair is non-nil: (x32, dy32) for FP32, (x16, dy16) for FP16. Reports
// ok=false when cancellation stopped the run; each channel block's ∇W rows
// are then either complete or untouched — a started block always runs to
// its end, and blocks write nothing before their last segment.
func runChannelPass(cfg *Config, ws *Workspace, x32, dy32 *tensor.Float32, x16, dy16 *tensor.Half, dst *tensor.Float32, cancel *sched.Batch) (*tensor.Float32, bool) {
	p := cfg.Params
	if dst == nil {
		dst = tensor.NewFloat32(p.DWShape())
	} else if dst.Shape != p.DWShape() {
		panic("core: reduce destination shape mismatch")
	}
	if ws == nil {
		ws = NewWorkspace(cfg)
	} else if !ws.Fits(cfg) {
		panic("core: workspace does not fit configuration")
	}
	pool := execPool()
	cb := channelBlock(p.OC, pool.Workers())
	ws.cjob = chanJob{cfg: cfg, x32: x32, dy32: dy32, x16: x16, dy16: dy16,
		dst: dst, cb: cb, traceOn: obs.TraceEnabled()}
	pool.RunBatch(ceilDiv(p.OC, cb), 1, &ws.cjob, cancel)
	ws.cjob = chanJob{}
	if cancel.Cancelled() {
		return nil, false
	}
	return dst, true
}

// block computes the ∇W rows of output channels [b·cb, b·cb+cb).
func (j *chanJob) block(b int, ut *obs.UnitTimes) {
	p := j.cfg.Params
	o0 := b * j.cb
	o1 := o0 + j.cb
	if o1 > p.OC {
		o1 = p.OC
	}
	cb := o1 - o0
	fhw := p.FH * p.FW

	s := getTileScratch()
	defer putTileScratch(s)
	if cap(s.ks) < fhw*cb {
		s.ks = make([]kahan.Sum32, fhw*cb)
	}
	ks := s.ks[:fhw*cb] // [f_h][f_w][cb]
	for i := range ks {
		ks[i].Reset()
	}
	var smp unitSampler
	for _, seg := range j.cfg.exec().Segments {
		j.segment(seg, o0, cb, s, ks, &smp, ut)
	}
	smp.flush(ut)

	out := j.dst.Data[o0*fhw : o1*fhw]
	for c := 0; c < cb; c++ {
		row := out[c*fhw : (c+1)*fhw]
		for k := range row {
			row[k] = ks[k*cb+c].Value()
		}
	}
}

// segment accumulates one segment of the block: the fused Ω_α(n,r) kernel
// over all (f_h, width-tile) units at once, then the output transform
// Kahan-added into ks.
func (j *chanJob) segment(seg Segment, o0, cb int, s *tileScratch, ks []kahan.Sum32,
	smp *unitSampler, ut *obs.UnitTimes) {
	p := j.cfg.Params
	half := j.x16 != nil
	tr := seg.K.Transform()
	var gPlan, dtPlan *winograd.SymPlan
	var gMat, dMat, aMat *winograd.Mat
	if half {
		gMat, dMat, aMat = halfMats(tr)
	} else {
		bal := tr.Balanced()
		gPlan, dtPlan = bal.PanelPlans()
		aMat = bal.A
	}
	n, r, alpha := tr.N, tr.R, tr.Alpha
	jt := p.FW / n
	m := p.OCG()
	i0 := o0 / m
	ci := (o0+cb-1)/m - i0 + 1 // input channels the block reads

	v := growF32Zero(&s.v, p.FH*jt*alpha*cb) // [f_h][j][α][cb]
	wRaw := growF32(&s.wRaw, r*cb)
	wHat := growF32(&s.wHatF, alpha*cb)
	xRaw := growF32(&s.xRaw, alpha*ci)

	// X̂ row cache: the X̂ panels of one input row ih ([tile][nb][j][α][ci])
	// serve all F_H output rows oh = ih − f_h + p_H that read it, so each is
	// transformed once per segment instead of once per f_h. F_H slots
	// indexed ih mod F_H hold the sliding window of rows.
	panel := alpha * ci
	rowElems := seg.Cols() / r * p.N * jt * panel
	xc := growF32(&s.xHatF, p.FH*rowElems)
	rowOf := growInt(&s.xcRow, p.FH)
	for k := range rowOf {
		rowOf[k] = -1
	}

	for oh := seg.Row0; oh < seg.Row1; oh++ {
		j.fillXHatRows(seg, oh, r, n, jt, i0, ci, alpha, xRaw, xc, rowOf, dtPlan, dMat, ut)
		for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
			for nb := 0; nb < p.N; nb++ {
				smp.begin(ut)
				// Ŵ = G·∇Y for the unit's r columns × the block's channels.
				// ∇Y is unpadded and segments tile O_W exactly, so the unit
				// never clips.
				if half {
					for u := 0; u < r; u++ {
						base := j.dy16.Shape.Index(nb, oh, ow0+u, o0)
						fp16.DecodeSlice(wRaw[u*cb:(u+1)*cb], j.dy16.Data[base:base+cb])
					}
					matMulF32(gMat, wRaw, wHat, r, cb)
					fp16.RoundSlice(wHat)
				} else {
					for u := 0; u < r; u++ {
						base := j.dy32.Shape.Index(nb, oh, ow0+u, o0)
						copy(wRaw[u*cb:(u+1)*cb], j.dy32.Data[base:base+cb])
					}
					gPlan.MulPanel(wRaw, wHat, r, cb)
				}
				smp.mark()
				for fh := 0; fh < p.FH; fh++ {
					ih := oh + fh - p.PH
					if ih < 0 || ih >= p.IH {
						continue // height-axis clipping (Figure 7)
					}
					for jj := 0; jj < jt; jj++ {
						off := (ih%p.FH)*rowElems + ((t*p.N+nb)*jt+jj)*panel
						hadamard(v[(fh*jt+jj)*alpha*cb:][:alpha*cb], wHat, xc[off:off+panel], alpha, o0, m)
					}
				}
				smp.end()
			}
		}
	}

	// Output transform y = Aᵀ·v per (f_h, j, i), channel-vectorized, and the
	// Kahan combine into the block's ∇W rows.
	row := growF32(&s.acc, cb)
	for fh := 0; fh < p.FH; fh++ {
		for jj := 0; jj < jt; jj++ {
			acc := v[(fh*jt+jj)*alpha*cb:]
			for i := 0; i < n; i++ {
				for c := range row {
					row[c] = 0
				}
				for e := 0; e < alpha; e++ {
					a := float32(aMat.At(e, i))
					for c, x := range acc[e*cb : (e+1)*cb] {
						row[c] += a * x
					}
				}
				k := ks[(fh*p.FW+jj*n+i)*cb:]
				k = k[:cb]
				for c, x := range row {
					k[c].Add(x)
				}
			}
		}
	}
}

// fillXHatRows makes the X̂ row cache hold every in-range input row that
// output row oh reads, transforming the rows the window has not seen yet
// (all F_H of them at a segment's first row, one per row after). Fill time
// is recorded whole as transform time when tracing.
func (j *chanJob) fillXHatRows(seg Segment, oh, r, n, jt, i0, ci, alpha int,
	xRaw, xc []float32, rowOf []int, dtPlan *winograd.SymPlan, dMat *winograd.Mat,
	ut *obs.UnitTimes) {
	p := j.cfg.Params
	panel := alpha * ci
	rowElems := seg.Cols() / r * p.N * jt * panel
	for fh := 0; fh < p.FH; fh++ {
		ih := oh + fh - p.PH
		if ih < 0 || ih >= p.IH || rowOf[ih%p.FH] == ih {
			continue
		}
		var t0 time.Time
		if ut != nil {
			t0 = time.Now()
		}
		slot := xc[(ih%p.FH)*rowElems : (ih%p.FH+1)*rowElems]
		k := 0
		for ow0 := seg.Col0; ow0 < seg.Col1; ow0 += r {
			for nb := 0; nb < p.N; nb++ {
				for jj := 0; jj < jt; jj++ {
					j.inputPanel(nb, ih, ow0+jj*n-p.PW, i0, ci, alpha, xRaw, slot[k:k+panel], dtPlan, dMat)
					k += panel
				}
			}
		}
		rowOf[ih%p.FH] = ih
		if ut != nil {
			ut.Transform += time.Since(t0)
		}
	}
}

// inputPanel gathers the X tile at (nb, ih, iw0..iw0+α) for input channels
// [i0, i0+ci) — width-clipped columns read as zero padding — and applies
// the input transform X̂ = Dᵀ·X into xHat ([α][ci]). FP32 uses the
// symmetric panel plan; FP16 decodes, transforms in float32 and rounds
// X̂ to binary16 storage.
func (j *chanJob) inputPanel(nb, ih, iw0, i0, ci, alpha int, xRaw, xHat []float32,
	dtPlan *winograd.SymPlan, dMat *winograd.Mat) {
	p := j.cfg.Params
	if j.x16 != nil {
		for u := 0; u < alpha; u++ {
			iw := iw0 + u
			dst := xRaw[u*ci : (u+1)*ci]
			if iw < 0 || iw >= p.IW {
				clear(dst)
				continue
			}
			base := j.x16.Shape.Index(nb, ih, iw, i0)
			fp16.DecodeSlice(dst, j.x16.Data[base:base+ci])
		}
		matTMulF32(dMat, xRaw, xHat, alpha, ci)
		fp16.RoundSlice(xHat)
		return
	}
	for u := 0; u < alpha; u++ {
		iw := iw0 + u
		dst := xRaw[u*ci : (u+1)*ci]
		if iw < 0 || iw >= p.IW {
			clear(dst)
			continue
		}
		base := j.x32.Shape.Index(nb, ih, iw, i0)
		copy(dst, j.x32.Data[base:base+ci])
	}
	dtPlan.MulPanel(xRaw, xHat, alpha, ci)
}

// hadamard is the channel pass's EWM: v[e][c] += ŵ[e][c]·x̂[e][·] over
// all α rows, where column c reads the x̂ lane of output channel o0+c's
// input channel. With m == 1
// (depthwise) the input and output lanes coincide.
func hadamard(v, wHat, xHat []float32, alpha, o0, m int) {
	cb := len(wHat) / alpha
	ci := len(xHat) / alpha
	for e := 0; e < alpha; e++ {
		ve := v[e*cb : (e+1)*cb : (e+1)*cb]
		we := wHat[e*cb : (e+1)*cb : (e+1)*cb]
		xe := xHat[e*ci : (e+1)*ci : (e+1)*ci]
		if m == 1 {
			xe = xe[:len(we)]
			for c, w := range we {
				ve[c] += w * xe[c]
			}
			continue
		}
		// Output lanes [c, cEnd) share input lane q.
		c := 0
		for q, xv := range xe {
			cEnd := (o0/m+q+1)*m - o0
			if cEnd > cb {
				cEnd = cb
			}
			for ; c < cEnd; c++ {
				ve[c] += we[c] * xv
			}
		}
	}
}
