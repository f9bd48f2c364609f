package core

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/fp16"
	"winrs/internal/tensor"
)

// EWM differential tests: the packed GEMM kernel behind the dense units
// must be bit-identical to the retired rank-1 panel tier (FP32) and to the
// serial scalar-codec reference (FP16), inline and through a width-4 pool,
// and every retired WINRS_EWM_KERNEL value must be a warn-once no-op.

// ewmVariantModes lists the values WINRS_EWM_KERNEL accepted before the
// knob was retired. Each must now warn once and change no bits.
var ewmVariantModes = []string{"auto", "block4", "block8", "fused", "dw1"}

// forceEWMEnv sets WINRS_EWM_KERNEL for the test and checks the startup
// check's contract: exactly one warning naming the knob, the value and the
// kernel that runs instead.
func forceEWMEnv(t *testing.T, env string) {
	t.Helper()
	warns := captureEnvWarn(t)
	t.Setenv("WINRS_EWM_KERNEL", env)
	getenv := func(name string) string {
		if name == "WINRS_EWM_KERNEL" {
			return os.Getenv(name)
		}
		return ""
	}
	if warnRetiredKnobs(getenv) != 1 || len(*warns) != 1 ||
		!strings.Contains((*warns)[0], "WINRS_EWM_KERNEL") ||
		!strings.Contains((*warns)[0], `"`+env+`"`) ||
		!strings.Contains((*warns)[0], gemmKernelName) {
		t.Fatalf("retired WINRS_EWM_KERNEL=%q: warnings %v; want one naming the knob, value and kernel", env, *warns)
	}
}

// randPanels builds Ŵ/X̂ panels with planted zero rows (the zero-skip
// paths of the retired panels) and a sign/magnitude mix.
func randPanels(rng *rand.Rand, alpha, oc, ic int) (wHat, xHat []float32) {
	wHat = make([]float32, alpha*oc)
	xHat = make([]float32, alpha*ic)
	for i := range wHat {
		if rng.Intn(4) == 0 {
			continue // zeros, often in runs that zero whole 4/8-row blocks
		}
		wHat[i] = (rng.Float32() - 0.5) * 4
	}
	for i := range xHat {
		xHat[i] = (rng.Float32() - 0.5) * 4
	}
	return wHat, xHat
}

// The dense EWM (X̂ and Ŵ packing and gemmChunk over several chunks)
// must produce bit-identical accumulators to per-tile rank-1 updates with
// the base 4×4 panel, across O_C/I_C remainders, planted zero rows and a
// random prior: each element receives one product and one add per tile,
// in tile order, either way.
func TestEWMPanelVariantsMatchBase(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const tilesN, chunk = 11, 4 // three chunks, the last one partial
	for _, alpha := range []int{2, 4, 8, 16} {
		for _, oc := range []int{1, 3, 4, 7, 8, 9, 11, 16} {
			for _, ic := range []int{1, 3, 4, 5, 8, 9, 16} {
				ocp, icp := pad4(oc), pad8(ic)
				what := make([]float32, 0, tilesN*alpha*oc)
				xHats := make([][]float32, tilesN)
				for t := range xHats {
					var w []float32
					w, xHats[t] = randPanels(rng, alpha, oc, ic)
					what = append(what, w...)
				}
				base := make([]float32, alpha*oc*ic)
				for i := range base {
					base[i] = rng.Float32()
				}
				got := make([]float32, alpha*ocp*icp) // [ocp][α][icp]
				for e := 0; e < alpha; e++ {
					for a := 0; a < oc; a++ {
						copy(got[(a*alpha+e)*icp:][:ic], base[(e*oc+a)*ic:][:ic])
					}
				}
				for t := 0; t < tilesN; t++ {
					ewmPanels(base, what[t*alpha*oc:(t+1)*alpha*oc], xHats[t], alpha, oc, ic)
				}
				xPack := make([]float32, chunk*alpha*icp)
				wPack := make([]float32, chunk*ocp)
				for t0 := 0; t0 < tilesN; t0 += chunk {
					kt := min(chunk, tilesN-t0)
					for t := 0; t < kt; t++ {
						packX(xPack, xHats[t0+t], t, chunk, alpha, ic, icp)
					}
					gemmChunk(got, what, t0*alpha*oc, kt, xPack, wPack, alpha, oc, icp, chunk)
				}
				for e := 0; e < alpha; e++ {
					for a := 0; a < oc; a++ {
						for b := 0; b < ic; b++ {
							g, w := got[(a*alpha+e)*icp+b], base[(e*oc+a)*ic+b]
							if g != w {
								t.Fatalf("α=%d oc=%d ic=%d: v[%d][%d][%d] = %v, rank-1 %v",
									alpha, oc, ic, e, a, b, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// segmentTile32Rank1 is the dense FP32 unit as the retired rank-1 tier ran
// it: per tile the input transform, then one ewmPanels update of the whole
// α·O_C·I_C accumulator, then the output transform. The oracle of the
// packed-GEMM unit.
func segmentTile32Rank1(p conv.Params, seg Segment, fh, j int, x *tensor.Float32,
	what, bucket []float32) {
	tr := seg.K.Transform().Balanced()
	_, dtPlan := tr.PanelPlans()
	n, r, alpha := tr.N, tr.R, tr.Alpha
	oc, ic := p.OC, p.IC
	v := make([]float32, alpha*oc*ic)
	xRaw := make([]float32, alpha*ic)
	xHat := make([]float32, alpha*ic)
	colBase := j * n
	entry := alpha * oc
	tiles := seg.Cols() / r
	for oh := seg.Row0; oh < seg.Row1; oh++ {
		ih := oh + fh - p.PH
		if ih < 0 || ih >= p.IH {
			continue
		}
		rowBase := (oh - seg.Row0) * tiles
		for t, ow0 := 0, seg.Col0; ow0 < seg.Col1; t, ow0 = t+1, ow0+r {
			for nb := 0; nb < p.N; nb++ {
				wHat := what[((rowBase+t)*p.N+nb)*entry:][:entry]
				for u := 0; u < alpha; u++ {
					iw := ow0 + colBase + u - p.PW
					dst := xRaw[u*ic : (u+1)*ic]
					clear(dst)
					if iw >= 0 && iw < p.IW {
						base := x.Shape.Index(nb, ih, iw, 0)
						copy(dst, x.Data[base:base+ic])
					}
				}
				dtPlan.MulPanel(xRaw, xHat, alpha, ic)
				ewmPanels(v, wHat, xHat, alpha, oc, ic)
			}
		}
	}
	writeOutput(p, tr.A, v, bucket, fh, colBase, n, alpha, oc, ic, make([]float32, alpha))
}

// execute32Rank1Ref runs an ungrouped FP32 plan serially through the
// rank-1 units: Ŵ-cache fill, units, Kahan reduction.
func execute32Rank1Ref(cfg *Config, x, dy *tensor.Float32) *tensor.Float32 {
	ws := NewWorkspace(cfg)
	growF32(&ws.what32, ws.whatOff[len(ws.whatOff)-1])
	for si, seg := range cfg.Segments {
		what := ws.what32[ws.whatOff[si]:ws.whatOff[si+1]]
		for oh := seg.Row0; oh < seg.Row1; oh++ {
			fillRow32(cfg.Params, seg, oh, dy, what)
		}
		for fh := 0; fh < cfg.Params.FH; fh++ {
			for jt := 0; jt < cfg.Params.FW/seg.K.N; jt++ {
				segmentTile32Rank1(cfg.Params, seg, fh, jt, x, what, ws.buckets[si])
			}
		}
	}
	return reduceInto(cfg, ws.buckets, nil)
}

// ewmSweepCases is the EWM differential subset: shapes chosen to cover
// α ∈ {4, 8, 16} kernels, padding clip paths, O_C/I_C remainders (padded
// GEMM lanes, I_C % 8 ≠ 0 transforms) and multi-segment scheduling, while
// keeping the knob-value × precision × pool matrix affordable under -race.
var ewmSweepCases = []struct {
	name string
	p    conv.Params
	segs int
}{
	{"3x3_pad1", conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 3, OC: 5, PH: 1, PW: 1}, 2},
	{"5x5_pad2", conv.Params{N: 2, IH: 14, IW: 16, FH: 5, FW: 5, IC: 2, OC: 3, PH: 2, PW: 2}, 2},
	{"nonpow2_channels", conv.Params{N: 1, IH: 13, IW: 17, FH: 3, FW: 3, IC: 5, OC: 7, PH: 1, PW: 1}, 3},
	{"c16_interior", conv.Params{N: 1, IH: 16, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}, 2},
	{"9x9_alpha16", conv.Params{N: 1, IH: 20, IW: 20, FH: 9, FW: 9, IC: 3, OC: 9, PH: 4, PW: 4}, 0},
	{"5x5_alpha16_c8", conv.Params{N: 1, IH: 12, IW: 28, FH: 5, FW: 5, IC: 8, OC: 5, PH: 2, PW: 2}, 2},
}

// The FP32 dense units must match the rank-1 oracle bit for bit, inline
// and pooled, under every retired WINRS_EWM_KERNEL value.
func TestEWMForcedVariantsMatchBaseFP32(t *testing.T) {
	for _, tc := range ewmSweepCases {
		opts := []Option{}
		if tc.segs > 0 {
			opts = append(opts, WithSegments(tc.segs))
		}
		cfg, err := Configure(tc.p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x, dy := poolLayer(t, 43, tc.p)

		want := execute32Rank1Ref(cfg, x, dy)

		for _, vm := range ewmVariantModes {
			t.Run(tc.name+"/"+vm, func(t *testing.T) {
				forceEWMEnv(t, vm)
				got := Execute(cfg, x, dy)
				equalBits(t, "inline", got.Data, want.Data)
				withTestPool(t, 4, func() {
					got := Execute(cfg, x, dy)
					equalBits(t, "pool4", got.Data, want.Data)
				})
			})
		}
	}
}

// The FP16 matrix, under every retired WINRS_EWM_KERNEL value: the
// "resident" leg pins the gradient against the serial scalar-codec
// reference executor (a rank-1 pipeline) bit for bit; the "codec" leg pins
// the decoded operands themselves — after an execution the workspace's
// float32 X and ∇Y mirrors and its Ŵ cache hold exactly the values the
// per-element scalar codec produces (decode of X and ∇Y, encode→decode of
// the transformed ∇Y panels).
func TestEWMForcedVariantsMatchScalarRefFP16(t *testing.T) {
	for _, tc := range ewmSweepCases {
		opts := []Option{WithFP16()}
		if tc.segs > 0 {
			opts = append(opts, WithSegments(tc.segs))
		}
		cfg, err := Configure(tc.p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		xh, dyh := halfLayer(t, 44, tc.p)
		want := executeHalfScalarRef(cfg, xh, dyh)
		wantWHat := whatCacheScalar(cfg, dyh)

		for _, vm := range ewmVariantModes {
			t.Run(tc.name+"/"+vm+"/resident", func(t *testing.T) {
				forceEWMEnv(t, vm)
				got := ExecuteHalf(cfg, xh, dyh)
				equalBits(t, "inline", got.Data, want.Data)
				withTestPool(t, 4, func() {
					got := ExecuteHalf(cfg, xh, dyh)
					equalBits(t, "pool4", got.Data, want.Data)
				})
			})
			t.Run(tc.name+"/"+vm+"/codec", func(t *testing.T) {
				forceEWMEnv(t, vm)
				for _, width := range []int{1, 4} {
					withTestPool(t, width, func() {
						ws := NewWorkspace(cfg)
						ExecuteHalfIn(cfg, ws, xh, dyh, nil)
						decodedMatchesScalar(t, "X", ws.xDec, xh.Data)
						decodedMatchesScalar(t, "∇Y", ws.dyDec, dyh.Data)
						decodedMatchesScalar(t, "Ŵ cache", ws.what32, wantWHat)
					})
				}
			})
		}
	}
}

// decodedMatchesScalar checks that got holds fp16.ToFloat32 of every
// element of bits, comparing IEEE bit patterns.
func decodedMatchesScalar(t *testing.T, name string, got []float32, bits []fp16.Bits) {
	t.Helper()
	if len(got) != len(bits) {
		t.Fatalf("%s: %d decoded values, want %d", name, len(got), len(bits))
	}
	for i, b := range bits {
		if math.Float32bits(got[i]) != math.Float32bits(fp16.ToFloat32(b)) {
			t.Fatalf("%s[%d] = %v, scalar codec %v", name, i, got[i], fp16.ToFloat32(b))
		}
	}
}

// Steady-state pooled ExecuteHalfIn must allocate nothing: the float32 Ŵ
// cache, the xDec/dyDec mirrors and the GEMM panels all live in reused
// arenas or on the stack.
func TestExecuteHalfAllocsZeroWithPool(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	p := conv.Params{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 8, OC: 8, PH: 1, PW: 1}
	cfg, err := Configure(p, WithSegments(4), WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	xh, dyh := halfLayer(t, 45, p)
	ws := NewWorkspace(cfg)
	dst := tensor.NewFloat32(p.DWShape())

	withTestPool(t, 4, func() {
		for i := 0; i < 8; i++ {
			ExecuteHalfIn(cfg, ws, xh, dyh, dst)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(50, func() { ExecuteHalfIn(cfg, ws, xh, dyh, dst) })
		if allocs != 0 {
			t.Errorf("steady-state pooled ExecuteHalfIn allocates %v per run, want 0", allocs)
		}
	})
}

// EWMKernel and Describe must name the kernel the units run — the GEMM
// kernel in both precisions whatever WINRS_EWM_KERNEL says — and report
// the unit scratch outside the workspace.
func TestEWMKernelReporting(t *testing.T) {
	p := conv.Params{N: 1, IH: 16, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1}
	cfg, err := Configure(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg16, err := Configure(p, WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	want := "gemm4x8"
	if runtime.GOARCH == "amd64" {
		want = "gemm4x8+sse2"
	}
	for _, env := range ewmVariantModes {
		forceEWMEnv(t, env)
		if got := cfg.EWMKernel(); got != want {
			t.Errorf("fp32 with WINRS_EWM_KERNEL=%s: %q, want %q", env, got, want)
		}
		if got := cfg16.EWMKernel(); got != want {
			t.Errorf("fp16 with WINRS_EWM_KERNEL=%s: %q, want %q", env, got, want)
		}
	}

	d := cfg.Describe()
	if d.EWMKernel != want {
		t.Errorf("Describe().EWMKernel = %q, want %q", d.EWMKernel, want)
	}
	if d.UnitScratchBytes <= 0 || d.UnitScratchBytes != cfg.UnitScratchBytes() {
		t.Errorf("Describe().UnitScratchBytes = %d, Config says %d", d.UnitScratchBytes, cfg.UnitScratchBytes())
	}
	if d.WorkspaceBytes != cfg.WorkspaceBytes() {
		t.Errorf("Describe().WorkspaceBytes = %d, Config says %d", d.WorkspaceBytes, cfg.WorkspaceBytes())
	}
}
