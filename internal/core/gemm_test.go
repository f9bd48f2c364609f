package core

import (
	"math/rand"
	"testing"

	"winrs/internal/conv"
	"winrs/internal/winograd"
)

// gemmNaive is the triple-loop definition of gemm4x8: per element, one
// product and one add per step, in step order.
func gemmNaive(c []float32, ldc int, w []float32, ldw int, x []float32, ldx, k int) {
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			r := c[i*ldc+j]
			for t := 0; t < k; t++ {
				r += w[t*ldw+i] * x[t*ldx+j]
			}
			c[i*ldc+j] = r
		}
	}
}

// The kernel gemm4x8 runs (assembly on amd64) must match the Go twin and
// the naive triple loop bit for bit, for every chunk length including 0,
// with strided operands, and write nothing outside its 4×8 block.
func TestGEMM4x8MatchesTwinAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const ldc, ldw, ldx = 11, 6, 13
	for _, k := range []int{0, 1, 7, 130} {
		w := make([]float32, k*ldw+4)
		x := make([]float32, k*ldx+8)
		for i := range w {
			w[i] = (rng.Float32() - 0.5) * 4
		}
		for i := range x {
			x[i] = (rng.Float32() - 0.5) * 4
		}
		prior := make([]float32, 4*ldc+8)
		for i := range prior {
			prior[i] = rng.Float32()
		}
		want := append([]float32(nil), prior...)
		gemmNaive(want, ldc, w, ldw, x, ldx, k)
		for _, kern := range []struct {
			name string
			f    func(c []float32, ldc int, w []float32, ldw int, x []float32, ldx, k int)
		}{{"kernel", gemm4x8}, {"twin", gemm4x8Go}} {
			got := append([]float32(nil), prior...)
			kern.f(got, ldc, w, ldw, x, ldx, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: c[%d] = %v, naive %v (prior %v)", kern.name, k, i, got[i], want[i], prior[i])
				}
			}
		}
	}
}

// The dense EWM and output passes must agree with the rank-1 updates and
// the scalar output transform for every O_C and I_C in 1..17 and chunk
// lengths 0, 1, 7 and 130, and never let a padded lane reach ∇W: the
// padded accumulator lanes are poisoned with NaN before the output pass,
// and the bucket must still match exactly.
func TestDenseEWMPaddedLanesNeverWritten(t *testing.T) {
	k, ok := winograd.Lookup(3, 2)
	if !ok {
		t.Fatal("Ω4(3,2) missing from registry")
	}
	tr := k.Transform().Balanced()
	alpha, n := tr.Alpha, tr.N
	rng := rand.New(rand.NewSource(52))
	nan := float32(0)
	nan /= nan
	for oc := 1; oc <= 17; oc++ {
		for ic := 1; ic <= 17; ic++ {
			for _, kt := range []int{0, 1, 7, 130} {
				ocp, icp := pad4(oc), pad8(ic)
				chunk := max(kt, 1)
				what := make([]float32, kt*alpha*oc)
				for i := range what {
					what[i] = (rng.Float32() - 0.5) * 4
				}
				xHats := make([]float32, kt*alpha*ic)
				for i := range xHats {
					xHats[i] = (rng.Float32() - 0.5) * 4
				}
				ref := make([]float32, alpha*oc*ic)
				v := make([]float32, alpha*ocp*icp)
				xPack := make([]float32, chunk*alpha*icp)
				wPack := make([]float32, chunk*ocp)
				for t := 0; t < kt; t++ {
					xh := xHats[t*alpha*ic : (t+1)*alpha*ic]
					ewmPanels(ref, what[t*alpha*oc:(t+1)*alpha*oc], xh, alpha, oc, ic)
					packX(xPack, xh, t, chunk, alpha, ic, icp)
				}
				if kt > 0 {
					gemmChunk(v, what, 0, kt, xPack, wPack, alpha, oc, icp, chunk)
				}
				for a := 0; a < ocp; a++ {
					for e := 0; e < alpha; e++ {
						for b := 0; b < icp; b++ {
							if a >= oc || b >= ic {
								v[(a*alpha+e)*icp+b] = nan
							}
						}
					}
				}
				p := conv.Params{N: 1, IH: 4, IW: 4, FH: 1, FW: n, IC: ic, OC: oc, PW: 1}
				want := make([]float32, p.DWShape().Elems())
				got := make([]float32, len(want))
				writeOutput(p, tr.A, ref, want, 0, 0, n, alpha, oc, ic, make([]float32, alpha))
				aPack := packA(tr.A, make([]float32, pad4(n)*alpha), n, alpha)
				denseOutput(p.DWShape(), aPack, v, got, 0, 0, n, alpha, oc, ic, icp)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("oc=%d ic=%d k=%d: ∇W[%d] = %v, rank-1 %v", oc, ic, kt, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func BenchmarkGEMM4x8(b *testing.B) {
	const k, ld = 28, 256
	w := make([]float32, k*ld)
	x := make([]float32, k*ld)
	c := make([]float32, 4*ld)
	for i := range w {
		w[i], x[i] = 0.5, 0.25
	}
	b.SetBytes(int64(k) * 64) // flops, reported as "MB/s" = MFLOP/s
	for i := 0; i < b.N; i++ {
		gemm4x8(c, ld, w, ld, x, ld, k)
	}
}
