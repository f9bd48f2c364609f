package core

import (
	"time"

	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/obs"
	"winrs/internal/sched"
	"winrs/internal/tensor"
	"winrs/internal/winograd"
)

// Execute runs the configured FP32 WinRS plan: a pre-pass gathers and
// transforms every ∇Y unit once into the workspace's Ŵ cache, every
// segment then executes the fused Ω_α(n,r) kernel into its own ∇W bucket,
// and the buckets are reduced with Kahan summation. Work units
// (segment × f_h × width-tile) schedule onto the persistent sched pool
// the way block groups map to SMs; no two units touch the same
// accumulator, so the execution is lock-free. Each call allocates fresh
// buckets and a fresh result; see ExecuteIn for the reusing variant.
func Execute(cfg *Config, x, dy *tensor.Float32) *tensor.Float32 {
	return ExecuteIn(cfg, nil, x, dy, nil)
}

// ExecuteHalf runs the FP16 Tensor-Core path: transforms computed in FP32
// and rounded to binary16 ("SMEM storage"), EWM products of binary16 values
// accumulated in FP32 (the MMA contract), output transform in FP32 with
// the eq. (7) scaling matrices for α = 16 kernels. Buckets and the Kahan
// reduction stay FP32.
func ExecuteHalf(cfg *Config, x, dy *tensor.Half) *tensor.Float32 {
	return ExecuteHalfIn(cfg, nil, x, dy, nil)
}

// unitOffsets builds the prefix table of per-segment work-unit counts:
// entry i is the first global unit index of segment i, and the final entry
// is the total unit count. Segment si contributes F_H·(F_W/r_si) units.
func unitOffsets(fw, fh int, segs []Segment) []int {
	off := make([]int, len(segs)+1)
	for i, seg := range segs {
		off[i+1] = off[i] + fh*(fw/seg.K.N)
	}
	return off
}

// schedule returns the unit prefix table and total unit count for cfg,
// deriving them locally for hand-built configs (tests).
func schedule(cfg *Config) ([]int, int) {
	off := cfg.unitOff
	if off == nil {
		off = unitOffsets(cfg.Params.FW, cfg.Params.FH, cfg.Segments)
	}
	return off, off[len(off)-1]
}

// testPool, when non-nil, overrides the shared scheduling pool; the
// pool-vs-inline determinism tests inject widths the host machine does
// not have. Production always runs on sched.Default().
var testPool *sched.Pool

// execPool returns the worker pool every execution path schedules onto.
// One process-wide pool means concurrent callers (the serving runtime's
// request workers, parallel trainers) co-schedule on GOMAXPROCS workers
// instead of oversubscribing the machine with per-call goroutine sets.
func execPool() *sched.Pool {
	if testPool != nil {
		return testPool
	}
	return sched.Default()
}

// runUnitsFunc schedules every (segment, f_h, width-tile) unit of cfg onto
// the shared pool via a closure — the convenience form used by the
// quantized path (the FP32/FP16 hot paths use the Workspace's pooled
// execJob instead, which boxes nothing).
func runUnitsFunc(cfg *Config, unit func(si int, seg Segment, fh, j int)) {
	off, total := schedule(cfg)
	fw := cfg.Params.FW
	execPool().RunFunc(total, 0, func(lo, hi int) {
		si := 0
		for i := lo; i < hi; i++ {
			for i >= off[si+1] {
				si++ // i only grows, so si scans forward
			}
			seg := cfg.Segments[si]
			jTiles := fw / seg.K.N
			local := i - off[si]
			unit(si, seg, local/jTiles, local%jTiles)
		}
	})
}

// execJob is the pooled unit-grid task of one ExecuteIn/ExecuteHalfIn
// call. It lives inside the Workspace so the steady-state dispatch
// allocates nothing: the fields are rewritten per call and the same
// *execJob is handed to the sched pool as a Task.
type execJob struct {
	cfg       *Config
	ws        *Workspace
	x32, dy32 *tensor.Float32
	x16       *tensor.Half // FP16 plans: the shape; units read ws.xDec
	traceOn   bool
}

// Run executes global units [lo, hi) — the sched.Task contract.
func (j *execJob) Run(lo, hi int) {
	cfg, ws := j.cfg, j.ws
	off := ws.unitOff
	fw := cfg.Params.FW
	si := 0
	for i := lo; i < hi; i++ {
		for i >= off[si+1] {
			si++
		}
		seg := cfg.Segments[si]
		jTiles := fw / seg.K.N
		local := i - off[si]
		fh, jt := local/jTiles, local%jTiles
		what := ws.what32[ws.whatOff[si]:ws.whatOff[si+1]]
		if j.x16 != nil {
			denseTileUnit(cfg.Params, seg, fh, jt, j.x16.Shape, ws.xDec, what, ws.buckets[si], true, j.traceOn)
		} else {
			denseTileUnit(cfg.Params, seg, fh, jt, j.x32.Shape, j.x32.Data, what, ws.buckets[si], false, j.traceOn)
		}
	}
}

// fillJob is the pooled Ŵ-cache pre-pass task: items are global segment
// rows (prefix table ws.rowOff), and each item gathers + filter-transforms
// every (width-tile, batch) ∇Y unit of that row into the cache. Like
// execJob it is embedded in the Workspace and reused across calls.
type fillJob struct {
	cfg  *Config
	ws   *Workspace
	dy32 *tensor.Float32
	dy16 *tensor.Half // FP16 plans: the shape; rows read ws.dyDec
}

// Run fills global segment rows [lo, hi).
func (f *fillJob) Run(lo, hi int) {
	cfg, ws := f.cfg, f.ws
	p := cfg.Params
	s := getTileScratch()
	defer putTileScratch(s)

	si := 0
	for i := lo; i < hi; i++ {
		for i >= ws.rowOff[si+1] {
			si++
		}
		seg := cfg.Segments[si]
		oh := seg.Row0 + (i - ws.rowOff[si])
		what := ws.what32[ws.whatOff[si]:ws.whatOff[si+1]]
		if f.dy16 != nil {
			fillRowHalfRes(p, seg, oh, f.dy16, ws.dyDec, s, what)
		} else {
			fillRow32(p, seg, oh, f.dy32, what)
		}
	}
}

// fillRow32 computes the FP32 Ŵ panels of one segment row: for every
// width tile and batch image, gather the r-wide ∇Y unit and apply the
// filter transform Ŵ = G·W directly into the cache slot. These values are
// what the pre-restructuring kernel recomputed F_H·(F_W/n) times per
// (oh, ow0, nb); computing them exactly once here keeps the execution
// bit-identical while amortizing the transform.
func fillRow32(p conv.Params, seg Segment, oh int, dy *tensor.Float32,
	what []float32) {
	tr := seg.K.Transform().Balanced()
	gPlan, _ := tr.PanelPlans()
	r, alpha, oc := tr.R, tr.Alpha, p.OC
	entry := alpha * oc
	tiles := seg.Cols() / r
	rowBase := (oh - seg.Row0) * tiles

	for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
		for nb := 0; nb < p.N; nb++ {
			// In the (N,H,W,C) layout the r unit rows are one contiguous
			// [r][O_C] block — ∇Y is unpadded and segments tile O_W exactly,
			// so the unit never clips. Transform straight from the tensor;
			// the gather copy the pre-tier code paid per unit is free.
			base := dy.Shape.Index(nb, oh, ow0, 0)
			dst := what[((rowBase+t)*p.N+nb)*entry:]
			gPlan.MulPanel(dy.Data[base:base+r*oc], dst[:entry], r, oc)
		}
	}
}

// halfMats returns the transform matrices of the FP16 path: balanced for
// the small-α kernels, the eq. (7) scaling matrices for α ≥ 16 (unit-L1 G
// and Dᵀ rows keep transformed binary16 values in dynamic range).
func halfMats(tr *winograd.Transform) (g, d, a *winograd.Mat) {
	bal := tr.Balanced()
	g, d, a = bal.G, bal.D, bal.A
	if tr.Alpha >= 16 {
		sc := tr.Scaled()
		g, d, a = sc.G, sc.D, sc.A
	}
	return g, d, a
}

// fillRowHalfRes is fillRow32 for the FP16 path: mixed-precision filter
// transform (FP32 arithmetic, binary16 storage). The ∇Y unit reads
// straight from the bulk-decoded dyDec mirror (one contiguous [r][O_C]
// block, like fillRow32), and the transformed panel is rounded through
// binary16 while being stored in float32 form (fp16.RoundInto). Cache
// values are bit-identical to decode(encode(panel)), so units read them
// without a per-use decode.
func fillRowHalfRes(p conv.Params, seg Segment, oh int, dy *tensor.Half,
	dyDec []float32, s *tileScratch, what []float32) {
	tr := seg.K.Transform()
	gMat, _, _ := halfMats(tr)
	r, alpha, oc := tr.R, tr.Alpha, p.OC
	wHatF := growF32(&s.wHatF, alpha*oc)
	entry := alpha * oc
	tiles := seg.Cols() / r
	rowBase := (oh - seg.Row0) * tiles

	for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
		for nb := 0; nb < p.N; nb++ {
			base := dy.Shape.Index(nb, oh, ow0, 0)
			matMulF32(gMat, dyDec[base:base+r*oc], wHatF, r, oc)
			dst := what[((rowBase+t)*p.N+nb)*entry:]
			fp16.RoundInto(dst[:entry], wHatF)
		}
	}
}

// traceSampleEvery is the 1-in-N sampling stride of the intra-unit stage
// timers: with tracing on, only every N-th (oh, ow0, nb) iteration is
// timed and the sampled durations are scaled by the realized iteration/
// sample ratio, so -trace no longer pays two time.Now() calls per inner
// iteration — the overhead that used to perturb the very stage shares it
// reports. Power of two so the sample test is a mask.
const traceSampleEvery = 8

// denseTileUnit runs one dense unit (see denseUnit), recording its stage
// durations when traceOn. A top-level function (not a closure) so the
// trace scratch stays on the stack and the disabled path is branch-only.
func denseTileUnit(p conv.Params, seg Segment, fh, j int, xs tensor.Shape, x []float32,
	what, bucket []float32, half, traceOn bool) {
	if !traceOn {
		denseUnit(p, seg, fh, j, xs, x, what, bucket, half, nil)
		return
	}
	var ut obs.UnitTimes
	t0 := time.Now()
	denseUnit(p, seg, fh, j, xs, x, what, bucket, half, &ut)
	obs.RecordUnit(time.Since(t0), ut)
}

// unitSampler implements the scaled 1-in-N stage timing of one fused
// unit (see traceSampleEvery). The zero value is ready to use; all state
// stays on the caller's stack.
type unitSampler struct {
	iters, samples int
	transform, ewm time.Duration
	t0             time.Time
	sampling       bool
}

// begin starts one inner iteration, arming the timers on sampled ones.
func (u *unitSampler) begin(ut *obs.UnitTimes) {
	u.sampling = ut != nil && u.iters&(traceSampleEvery-1) == 0
	u.iters++
	if u.sampling {
		u.t0 = time.Now()
	}
}

// mark records the transform span of a sampled iteration and re-arms for
// the EWM span.
func (u *unitSampler) mark() {
	if u.sampling {
		now := time.Now()
		u.transform += now.Sub(u.t0)
		u.t0 = now
	}
}

// end closes a sampled iteration's EWM span.
func (u *unitSampler) end() {
	if u.sampling {
		u.ewm += time.Since(u.t0)
		u.samples++
	}
}

// flush scales the sampled spans to the full iteration count and adds
// them to ut.
func (u *unitSampler) flush(ut *obs.UnitTimes) {
	if ut == nil || u.samples == 0 {
		return
	}
	scale := int64(u.iters) / int64(u.samples)
	rem := int64(u.iters) % int64(u.samples)
	ut.Transform += time.Duration(int64(u.transform)*scale + int64(u.transform)*rem/int64(u.samples))
	ut.EWM += time.Duration(int64(u.ewm)*scale + int64(u.ewm)*rem/int64(u.samples))
}

// writeOutput applies the FP32 output transform Aᵀ to the accumulators and
// adds the n output columns into the bucket at (·, fh, colBase…, ·). acc is
// α-length scratch for the per-(oc,ic) accumulator column.
func writeOutput(p conv.Params, aMat *winograd.Mat, v []float32, bucket []float32,
	fh, colBase, n, alpha, oc, ic int, acc []float32) {
	dwShape := p.DWShape()
	for a := 0; a < oc; a++ {
		for b := 0; b < ic; b++ {
			for e := 0; e < alpha; e++ {
				acc[e] = v[(e*oc+a)*ic+b]
			}
			for i := 0; i < n; i++ {
				var s float32
				for e := 0; e < alpha; e++ {
					s += float32(aMat.At(e, i)) * acc[e]
				}
				idx := dwShape.Index(a, fh, colBase+i, b)
				bucket[idx] += s
			}
		}
	}
}

// matMulF32 computes out = m·in for in laid out [m.Cols][width] and out
// [m.Rows][width], in float32.
func matMulF32(m *winograd.Mat, in, out []float32, rows, width int) {
	if rows != m.Cols {
		panic("core: matMulF32 dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst := out[i*width : (i+1)*width]
		for x := range dst {
			dst[x] = 0
		}
		for k := 0; k < rows; k++ {
			c := float32(m.At(i, k))
			if c == 0 {
				continue
			}
			src := in[k*width : (k+1)*width]
			for x, sv := range src {
				dst[x] += c * sv
			}
		}
	}
}

// matTMulF32 computes out = mᵀ·in for in laid out [m.Rows][width] and out
// [m.Cols][width], in float32.
func matTMulF32(m *winograd.Mat, in, out []float32, rows, width int) {
	if rows != m.Rows {
		panic("core: matTMulF32 dimension mismatch")
	}
	for i := 0; i < m.Cols; i++ {
		dst := out[i*width : (i+1)*width]
		for x := range dst {
			dst[x] = 0
		}
	}
	for k := 0; k < rows; k++ {
		src := in[k*width : (k+1)*width]
		for i := 0; i < m.Cols; i++ {
			c := float32(m.At(k, i))
			if c == 0 {
				continue
			}
			dst := out[i*width : (i+1)*width]
			for x, sv := range src {
				dst[x] += c * sv
			}
		}
	}
}

// BackwardFilter is the one-call convenience API: configure and execute in
// FP32.
func BackwardFilter(p conv.Params, x, dy *tensor.Float32, opts ...Option) (*tensor.Float32, error) {
	cfg, err := Configure(p, opts...)
	if err != nil {
		return nil, err
	}
	return Execute(cfg, x, dy), nil
}

// BackwardFilterHalf is the one-call FP16 path.
func BackwardFilterHalf(p conv.Params, x, dy *tensor.Half, opts ...Option) (*tensor.Float32, error) {
	// Clone before appending: opts aliases the caller's variadic slice,
	// and appending in place would clobber its backing array when the
	// caller passed a shared slice with spare capacity via opts... .
	opts = append(append([]Option(nil), opts...), WithFP16())
	cfg, err := Configure(p, opts...)
	if err != nil {
		return nil, err
	}
	return ExecuteHalf(cfg, x, dy), nil
}
