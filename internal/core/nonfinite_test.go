package core

import (
	"math"
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/tensor"
)

// A NaN in X must reach every ∇W entry whose reference sum touches it,
// including the rows of output channels whose ∇Y is all zero (a dead-ReLU
// octet, Ŵ = 0): 0·NaN is NaN. The retired 8-row panels skipped all-zero
// Ŵ octets and returned finite values there. FP32 and FP16, with O_C
// aligned and unaligned to 8, inline and pooled; the
// depthwise leg runs the channel pass, whose Hadamard EWM must not skip
// zero Ŵ either.
func TestNaNInXReachesZeroGradientRows(t *testing.T) {
	for _, tc := range []struct{ oc, groups int }{{16, 1}, {13, 1}, {8, 8}} {
		oc := tc.oc
		p := conv.Params{N: 1, IH: 12, IW: 12, FH: 3, FW: 3, IC: 8, OC: oc, PH: 1, PW: 1, Groups: tc.groups}
		rng := rand.New(rand.NewSource(61))
		x64 := tensor.NewFloat64(p.XShape())
		dy64 := tensor.NewFloat64(p.DYShape())
		for i := range x64.Data {
			x64.Data[i] = rng.Float64()*2 - 1
		}
		for i := range dy64.Data {
			// Channels 0–7 stay zero (channel 2 alone for depthwise).
			if c := i % oc; c >= 8 || (tc.groups > 1 && c != 2) {
				dy64.Data[i] = rng.Float64()*2 - 1
			}
		}
		x64.Data[x64.Shape.Index(0, 5, 5, 2)] = math.NaN()
		want := conv.BackwardFilterDirect64(p, x64, dy64)
		x, dy := x64.ToFloat32(), dy64.ToFloat32()

		check := func(name string, got *tensor.Float32) {
			t.Helper()
			nans := 0
			for i, w := range want.Data {
				if math.IsNaN(w) != math.IsNaN(float64(got.Data[i])) {
					t.Fatalf("oc=%d G=%d %s: ∇W[%d] = %v, reference %v", oc, tc.groups, name, i, got.Data[i], w)
				}
				if math.IsNaN(w) {
					nans++
				}
			}
			wantNaNs := oc * p.FH * p.FW // every (o, f_h, f_w) of input channel 2
			if tc.groups > 1 {
				wantNaNs = p.FH * p.FW // output channel 2 only
			}
			if nans != wantNaNs {
				t.Fatalf("oc=%d: reference has %d NaNs, want %d", oc, nans, wantNaNs)
			}
		}
		cfg, err := Configure(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg16, err := Configure(p, WithFP16())
		if err != nil {
			t.Fatal(err)
		}
		xh, dyh := x.ToHalf(), dy.ToHalf()
		for _, width := range []int{1, 4} {
			withTestPool(t, width, func() {
				check("fp32", Execute(cfg, x, dy))
				check("fp16", ExecuteHalf(cfg16, xh, dyh))
			})
		}
	}
}
