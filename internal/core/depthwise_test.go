package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"winrs/internal/conv"
	"winrs/internal/obs"
	"winrs/internal/tensor"
)

// forceChannelPass switches the channel pass on or off for the test's
// duration; off routes I_C/G == 1 plans through the per-group pipeline,
// the pass's bit-identity oracle.
func forceChannelPass(t testing.TB, on bool) {
	t.Helper()
	prev := channelPassOff
	channelPassOff = !on
	t.Cleanup(func() { channelPassOff = prev })
}

// sameBits compares IEEE bit patterns (so −0 vs +0 and NaN payloads count).
func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// channelPassCases covers every plan shape the channel pass takes:
// depthwise 3×3/5×5/7×7, channel multiplier 2, ungrouped I_C == 1, a batch
// of two, odd spatial sizes, channel counts that are not a multiple of
// the block width, and forced segmentations 1..4.
var channelPassCases = []struct {
	name string
	p    conv.Params
	segs []int
}{
	{"dw3x3", conv.Params{N: 1, IH: 14, IW: 14, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 16}, []int{0, 1, 2, 3, 4}},
	{"dw5x5_odd", conv.Params{N: 1, IH: 13, IW: 11, FH: 5, FW: 5, IC: 12, OC: 12, PH: 2, PW: 2, Groups: 12}, []int{0, 2}},
	{"dw7x7", conv.Params{N: 1, IH: 12, IW: 12, FH: 7, FW: 7, IC: 8, OC: 8, PH: 3, PW: 3, Groups: 8}, []int{0, 3}},
	{"dw3x3_mult2", conv.Params{N: 1, IH: 10, IW: 12, FH: 3, FW: 3, IC: 10, OC: 20, PH: 1, PW: 1, Groups: 10}, []int{0, 2}},
	{"ungrouped_ic1", conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 1, OC: 12, PH: 1, PW: 1}, []int{0, 2}},
	{"dw3x3_N2_odd", conv.Params{N: 2, IH: 17, IW: 23, FH: 3, FW: 3, IC: 20, OC: 20, PH: 1, PW: 1, Groups: 20}, []int{0, 4}},
	{"dw3x3_c40_nopad", conv.Params{N: 1, IH: 9, IW: 13, FH: 3, FW: 3, IC: 40, OC: 40, Groups: 40}, []int{0, 1}},
}

// The channel pass must be bit-identical to the per-group pipeline it
// replaces (executeGroupedRef with the pass off) in FP32 and FP16, inline
// and through a width-4 pool, and within the FP64 oracle band. Under
// -race with a width-4 pool this is also the pass's co-scheduling
// differential.
func TestChannelPassMatchesPerGroup(t *testing.T) {
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			forceGroupWidth(t, width)
			for _, tc := range channelPassCases {
				x64, dy64 := groupedLayer64(t, 91, tc.p)
				want := conv.BackwardFilterDirect64(tc.p, x64, dy64)
				x, dy := x64.ToFloat32(), dy64.ToFloat32()
				xh, dyh := x.ToHalf(), dy.ToHalf()
				for _, z := range tc.segs {
					opts := []Option{}
					if z > 0 {
						opts = append(opts, WithSegments(z))
					}
					cfg, err := Configure(tc.p, opts...)
					if err != nil {
						t.Fatalf("%s z=%d: %v", tc.name, z, err)
					}
					cfg16, err := Configure(tc.p, append(opts, WithFP16())...)
					if err != nil {
						t.Fatalf("%s z=%d fp16: %v", tc.name, z, err)
					}
					if !cfg.ChannelPass() || !cfg16.ChannelPass() {
						t.Fatalf("%s: I_C/G == 1 plan does not take the channel pass", tc.name)
					}
					name := func(s string) string {
						return fmt.Sprintf("%s/%s/width%d/z%d", tc.name, s, width, cfg.Z())
					}

					forceChannelPass(t, false)
					ref := executeGroupedRef(cfg, x, dy, nil, nil)
					refH := executeGroupedRef(cfg16, nil, nil, xh, dyh)

					forceChannelPass(t, true)
					got := Execute(cfg, x, dy)
					sameBits(t, name("fp32"), got.Data, ref.Data)
					if m := tensor.MARE(got, want); m > 1e-5 {
						t.Errorf("%s: MARE %v > 1e-5", name("fp32"), m)
					}
					gotH := ExecuteHalf(cfg16, xh, dyh)
					sameBits(t, name("fp16"), gotH.Data, refH.Data)
				}
			}
		})
	}
}

// Stride 2 reaches the channel pass through the phase decimation of
// BackwardFilterStrided: each phase problem is depthwise and must match
// the per-group pipeline bit for bit in both precisions.
func TestChannelPassStrided(t *testing.T) {
	cases := []conv.StridedParams{
		{N: 1, IH: 15, IW: 13, FH: 3, FW: 3, IC: 12, OC: 12, PH: 1, PW: 1, SH: 2, SW: 2, Groups: 12},
		{N: 2, IH: 12, IW: 14, FH: 5, FW: 5, IC: 6, OC: 12, PH: 2, PW: 2, SH: 2, SW: 1, Groups: 6},
	}
	for _, width := range []int{1, 4} {
		withTestPool(t, width, func() {
			for _, p := range cases {
				x, dy := stridedLayer(92, p)
				xh, dyh := x.ToHalf(), dy.ToHalf()
				forceChannelPass(t, false)
				ref, err := BackwardFilterStrided(p, x, dy)
				if err != nil {
					t.Fatal(err)
				}
				refH, err := BackwardFilterStridedHalf(p, xh, dyh)
				if err != nil {
					t.Fatal(err)
				}
				forceChannelPass(t, true)
				got, err := BackwardFilterStrided(p, x, dy)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "strided-fp32", got.Data, ref.Data)
				gotH, err := BackwardFilterStridedHalf(p, xh, dyh)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "strided-fp16", gotH.Data, refH.Data)
			}
		})
	}
}

func stridedLayer(seed int64, p conv.StridedParams) (*tensor.Float32, *tensor.Float32) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewFloat32(p.XShape())
	dy := tensor.NewFloat32(p.DYShape())
	x.FillUniform(rng, 0, 1)
	dy.FillUniform(rng, 0, 1)
	return x, dy
}

// The channel pass has no buckets, no Ŵ cache and no staging ring: its
// plans report 0 workspace and 0 cache, a positive per-worker tile, and a
// workspace that never grows an arena.
func TestChannelPassZeroWorkspace(t *testing.T) {
	p := conv.Params{N: 2, IH: 24, IW: 24, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 16}
	cfg, err := Configure(p, WithSegments(4))
	if err != nil {
		t.Fatal(err)
	}
	if w, c := cfg.WorkspaceBytes(), cfg.WHatCacheBytes(); w != 0 || c != 0 {
		t.Errorf("channel-pass plan reports workspace %d B, Ŵ cache %d B; want 0", w, c)
	}
	if tb := cfg.ChannelTileBytes(); tb <= 0 {
		t.Errorf("ChannelTileBytes = %d, want > 0", tb)
	}
	d := cfg.Describe()
	if d.GroupDispatch != "channel" || d.EWMKernel != "channel" || d.ChannelTileBytes != cfg.ChannelTileBytes() {
		t.Errorf("Describe: dispatch %q, kernel %q, tile %d", d.GroupDispatch, d.EWMKernel, d.ChannelTileBytes)
	}
	x, dy := poolLayer(t, 93, p)
	ws := NewWorkspace(cfg)
	ExecuteIn(cfg, ws, x, dy, nil)
	ExecuteHalfIn(cfg, ws, x.ToHalf(), dy.ToHalf(), nil)
	if b := ws.Bytes(); b != 0 {
		t.Errorf("workspace grew %d B of arenas under the channel pass", b)
	}
}

// Cancellation stops the pass at a block claim: every channel block's ∇W
// rows are either untouched (the sentinel survives) or bit-identical to
// the uncancelled result — never partially written.
func TestChannelPassCancelWholeBlocks(t *testing.T) {
	p := conv.Params{N: 2, IH: 20, IW: 20, FH: 3, FW: 3, IC: 64, OC: 64, PH: 1, PW: 1, Groups: 64}
	cfg, err := Configure(p, WithSegments(3))
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 94, p)
	want := ExecuteIn(cfg, nil, x, dy, nil)
	fhw := p.FH * p.FW
	const sentinel = float32(-12345.5)

	withTestPool(t, 4, func() {
		cb := channelBlock(p.OC, execPool().Workers())
		ws := NewWorkspace(cfg)
		dst := tensor.NewFloat32(p.DWShape())
		for attempt := 0; attempt < 40; attempt++ {
			for i := range dst.Data {
				dst.Data[i] = sentinel
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func(delay time.Duration) {
				time.Sleep(delay)
				cancel()
			}(time.Duration(attempt%8) * 20 * time.Microsecond)
			out, err := ExecuteInCtx(ctx, cfg, ws, x, dy, dst)
			cancel()
			if err == nil {
				sameBits(t, "late-cancel", out.Data, want.Data)
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("unexpected error: %v", err)
			}
			for o0 := 0; o0 < p.OC; o0 += cb {
				o1 := min(o0+cb, p.OC)
				blk := dst.Data[o0*fhw : o1*fhw]
				if blk[0] == sentinel {
					for i, v := range blk {
						if v != sentinel {
							t.Fatalf("block at channel %d: partial write, %v at %d", o0, v, i)
						}
					}
					continue
				}
				sameBits(t, "cancelled-complete-block", blk, want.Data[o0*fhw:o1*fhw])
			}
		}
	})
}

// Steady-state pooled channel-pass execution allocates nothing: the task
// lives in the Workspace and the per-worker tile in the scratch pool.
func TestChannelPassAllocsZeroWithPool(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pinning runs without -race")
	}
	p := conv.Params{N: 1, IH: 24, IW: 24, FH: 3, FW: 3, IC: 32, OC: 32, PH: 1, PW: 1, Groups: 32}
	cfg, err := Configure(p, WithSegments(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg16, err := Configure(p, WithSegments(2), WithFP16())
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 95, p)
	xh, dyh := x.ToHalf(), dy.ToHalf()
	ws := NewWorkspace(cfg)
	ws16 := NewWorkspace(cfg16)
	dst := tensor.NewFloat32(p.DWShape())

	withTestPool(t, 4, func() {
		for i := 0; i < 8; i++ {
			ExecuteIn(cfg, ws, x, dy, dst)
			ExecuteHalfIn(cfg16, ws16, xh, dyh, dst)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if a := testing.AllocsPerRun(50, func() { ExecuteIn(cfg, ws, x, dy, dst) }); a != 0 {
			t.Errorf("steady-state channel-pass ExecuteIn allocates %v per run, want 0", a)
		}
		if a := testing.AllocsPerRun(50, func() { ExecuteHalfIn(cfg16, ws16, xh, dyh, dst) }); a != 0 {
			t.Errorf("steady-state channel-pass ExecuteHalfIn allocates %v per run, want 0", a)
		}
	})
}

// The block rule: multiples of 8 lanes, at most channelBlockMax, at least
// one block per worker where the channel count allows, never wider than C.
func TestChannelBlockRule(t *testing.T) {
	for _, tc := range []struct{ c, width, want int }{
		{64, 1, 32}, {64, 2, 32}, {64, 4, 16}, {256, 2, 32},
		{20, 4, 8}, {20, 1, 20}, {5, 4, 5}, {1, 8, 1},
	} {
		if got := channelBlock(tc.c, tc.width); got != tc.want {
			t.Errorf("channelBlock(%d, %d) = %d, want %d", tc.c, tc.width, got, tc.want)
		}
	}
}

// WHatCacheBytes of a grouped plan counts one Ŵ cache per ring slot:
// after a width-4 execution it equals the slots' actual cache arenas, in
// FP32 and FP16.
func TestWHatCacheBytesCountsRing(t *testing.T) {
	p := conv.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 16, OC: 16, PH: 1, PW: 1, Groups: 4}
	x, dy := poolLayer(t, 96, p)
	xh, dyh := x.ToHalf(), dy.ToHalf()
	arena := func(ws *Workspace) int64 {
		var b int64
		for i := range ws.ring {
			b += int64(cap(ws.ring[i].what32)) * 4
		}
		return b
	}
	withTestPool(t, 4, func() {
		forceGroupWidth(t, 4)
		cfg, err := Configure(p, WithSegments(2))
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace(cfg)
		ExecuteIn(cfg, ws, x, dy, nil)
		if len(ws.ring) != cfg.GroupRing() || cfg.GroupRing() != 2 {
			t.Fatalf("ring %d slots, GroupRing %d; want 2", len(ws.ring), cfg.GroupRing())
		}
		if got, want := cfg.WHatCacheBytes(), arena(ws); got != want {
			t.Errorf("fp32: WHatCacheBytes %d, ring arenas %d", got, want)
		}
		cfg16, err := Configure(p, WithSegments(2), WithFP16())
		if err != nil {
			t.Fatal(err)
		}
		ws16 := NewWorkspace(cfg16)
		ExecuteHalfIn(cfg16, ws16, xh, dyh, nil)
		if got, want := cfg16.WHatCacheBytes(), arena(ws16); got != want {
			t.Errorf("fp16: WHatCacheBytes %d, ring arenas %d", got, want)
		}
	})
}

// Under -trace the pass records one segment-tile observation per channel
// block, with transform and EWM shares nested inside it, so depthwise time
// stays accounted for in the stage histograms.
func TestChannelPassTraced(t *testing.T) {
	p := conv.Params{N: 1, IH: 16, IW: 16, FH: 3, FW: 3, IC: 24, OC: 24, PH: 1, PW: 1, Groups: 24}
	cfg, err := Configure(p, WithSegments(2))
	if err != nil {
		t.Fatal(err)
	}
	x, dy := poolLayer(t, 97, p)
	withTestPool(t, 1, func() {
		obs.ResetTrace()
		obs.EnableTrace(true)
		defer obs.EnableTrace(false)
		defer obs.ResetTrace()
		ExecuteIn(cfg, nil, x, dy, nil)
		snap := obs.TraceSnapshot()
		tile := snap[obs.StageSegmentTile]
		if want := uint64(ceilDiv(p.OC, channelBlock(p.OC, 1))); tile.Count != want {
			t.Errorf("segment_tile observations %d, want one per channel block (%d)", tile.Count, want)
		}
		// The intra-block spans are sampled 1-in-N and scaled, so allow
		// the same 25% estimator slack as TestExecuteRecordsStages.
		inner := snap[obs.StageTransform].Total + snap[obs.StageEWM].Total
		if tile.Total <= 0 || inner <= 0 || float64(inner) > 1.25*float64(tile.Total) {
			t.Errorf("stage times: tile %v, transform+ewm %v", tile.Total, inner)
		}
	})
}
