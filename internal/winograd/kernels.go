package winograd

import (
	"fmt"
	"sort"
)

// Kernel describes one of the 13 WinRS kernel variants Ω_α(n, r) of the
// paper's Figure 6: a fused 1-D Winograd convolution plus its hardware
// configuration (cache-block sizes per footnote 3) and a throughput
// coefficient used by the fastest-kernel-pair selection of §4.1.
type Kernel struct {
	// N and R define the underlying F(n,r): n outputs per tile from r
	// filter taps. Alpha = N+R-1 is the tile (and EWM batch) size.
	N, R, Alpha int

	// FP16 reports whether the paper ported this kernel to Tensor Cores.
	FP16 bool

	// BN32, BM32 are the FP32 CUDA-core cache-block sizes B_N×B_M; BN16,
	// BM16 the FP16 Tensor-Core ones (footnote 3). B_K is always 8.
	BN32, BM32 int
	BN16, BM16 int

	// Coeff is the kernel throughput coefficient: the acceleration factor
	// n·r/α discounted by a transform-overhead efficiency that shrinks as
	// α grows (larger transform matrices spend more non-EWM instructions
	// and shrink cache blocks). Pair selection maximizes the workload-
	// weighted sum of coefficients.
	Coeff float64
}

// BK is the cache-block depth B_K shared by all kernels.
const BK = 8

// String renders the kernel in the paper's Ω_α(n,r) notation.
func (k Kernel) String() string { return fmt.Sprintf("Omega%d(%d,%d)", k.Alpha, k.N, k.R) }

// Transform returns the (cached) F(n,r) transform matrices for the kernel.
func (k Kernel) Transform() *Transform { return Generate(k.N, k.R) }

// Accel returns the kernel's time-complexity reduction factor n·r/α.
func (k Kernel) Accel() float64 { return float64(k.N*k.R) / float64(k.Alpha) }

// CacheBlock returns the B_N×B_M cache-block size for the precision. The
// table is precision-aware: binary16 operands occupy half the bytes, so
// every kernel's FP16 block covers at least its FP32 block's area within
// the same shared-memory budget (pinned by TestCacheBlockPrecisionAware;
// the budget itself by TestCacheBlocksFitSharedMemory).
func (k Kernel) CacheBlock(fp16 bool) (bn, bm int) {
	if fp16 {
		return k.BN16, k.BM16
	}
	return k.BN32, k.BM32
}

// Intensity returns the eq. (4) computation intensity of the fused kernel
// at its cache-block size for the given precision.
func (k Kernel) Intensity(fp16 bool) float64 {
	bn, bm := k.CacheBlock(fp16)
	return Intensity1D(bn, bm, k.R, k.Alpha)
}

// efficiency discounts for transform overhead by α; tuned so that, per the
// paper, the Ω8 family is the throughput sweet spot, Ω4 is close behind,
// Ω16 trades throughput for coverage of huge taps, and Ω2 is plain direct
// convolution.
var alphaEfficiency = map[int]float64{2: 1.00, 4: 0.92, 8: 0.85, 16: 0.60}

func newKernel(n, r int, fp16 bool) Kernel {
	alpha := n + r - 1
	k := Kernel{N: n, R: r, Alpha: alpha, FP16: fp16}
	switch alpha {
	case 2:
		// Halved element size doubles the budget: the FP16 block must never
		// cover less area than the FP32 one (it holds the same values in
		// half the bytes), so α = 2 keeps the full 128×128 block at FP16 too.
		k.BN32, k.BM32 = 128, 128
		k.BN16, k.BM16 = 128, 128
	case 4:
		k.BN32, k.BM32 = 64, 64
		k.BN16, k.BM16 = 128, 64
	case 8:
		k.BN32, k.BM32 = 64, 32
		k.BN16, k.BM16 = 128, 64
	case 16:
		k.BN32, k.BM32 = 64, 32
		k.BN16, k.BM16 = 64, 64
	default:
		panic(fmt.Sprintf("winograd: unsupported alpha %d", alpha))
	}
	k.Coeff = k.Accel() * alphaEfficiency[alpha]
	return k
}

// Kernels is the registry of the 13 WinRS kernel variants (Figure 6),
// ordered by α then n. The FP16 flag marks the six kernels the paper ported
// to Tensor Cores: Ω4(3,2), Ω8(3,6), Ω8(5,4), Ω8(7,2), Ω16(7,10), Ω16(9,8).
var Kernels = []Kernel{
	newKernel(1, 2, false), // Ω2(1,2): direct convolution fallback
	newKernel(2, 3, false),
	newKernel(3, 2, true),
	newKernel(3, 6, true),
	newKernel(6, 3, false),
	newKernel(4, 5, false),
	newKernel(5, 4, true),
	newKernel(7, 2, true),
	newKernel(5, 12, false),
	newKernel(6, 11, false),
	newKernel(7, 10, true),
	newKernel(8, 9, false),
	newKernel(9, 8, true),
}

// DirectKernel returns the direct-convolution fallback F(1,r): one output
// per tile, r taps, acceleration factor 1. It covers residual widths that
// no registry kernel pair can tile exactly (e.g. odd O_W when every
// candidate r is even), extending WinRS to arbitrary O_W ≥ 1 without zero
// padding. n = 1 divides every F_W, and with n = 1 the "transform" is the
// identity-weight direct product, so numerical accuracy matches direct
// convolution. r must be at most 20 (the interpolation-point budget).
func DirectKernel(r int) Kernel {
	if r < 1 || r > 20 {
		panic(fmt.Sprintf("winograd: DirectKernel width %d out of range", r))
	}
	return Kernel{
		N: 1, R: r, Alpha: r, FP16: true,
		BN32: 64, BM32: 32, BN16: 64, BM16: 64,
		Coeff: 1,
	}
}

// Lookup returns the registry kernel Ω(n,r) and whether it exists.
func Lookup(n, r int) (Kernel, bool) {
	for _, k := range Kernels {
		if k.N == n && k.R == r {
			return k, true
		}
	}
	return Kernel{}, false
}

// SupportedN returns the sorted distinct output-tile heights n available in
// the registry. WinRS supports filter-gradient widths F_W that are multiples
// of any supported n ≥ 2 (the paper's "multiples of 2 to 9"), with n = 1 as
// the universal direct fallback.
func SupportedN() []int {
	set := map[int]bool{}
	for _, k := range Kernels {
		set[k.N] = true
	}
	ns := make([]int, 0, len(set))
	for n := range set {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns
}

// KernelsForN returns all registry kernels with the given n, sorted by
// descending throughput coefficient (fastest first).
func KernelsForN(n int) []Kernel {
	var out []Kernel
	for _, k := range Kernels {
		if k.N == n {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Coeff > out[j].Coeff })
	return out
}

// SupportsWidth reports whether some registry kernel's n ≥ 2 divides fw, or
// fw is handled by the n = 1 fallback only (in which case it returns true as
// well, since Ω2(1,2) covers any width at direct-convolution speed). The
// second result is the largest n that divides fw.
func SupportsWidth(fw int) (ok bool, bestN int) {
	if fw < 1 {
		return false, 0
	}
	bestN = 1
	for _, n := range SupportedN() {
		if n >= 2 && fw%n == 0 && n > bestN {
			bestN = n
		}
	}
	return true, bestN
}

// SMEMBytes returns the shared-memory footprint of the kernel's
// double-buffered tile stores (the Gs and Ds arrays of Algorithm 3):
// N_buf · α · B_K · (B_N + B_M) elements. The paper's footnote-3
// cache-block table exists precisely because this footprint must fit the
// SM's shared memory — larger α forces smaller B_N×B_M.
func (k Kernel) SMEMBytes(fp16 bool) int {
	bn, bm := k.CacheBlock(fp16)
	elem := 4
	if fp16 {
		elem = 2
	}
	const nBuf = 2 // double buffering (§5.2 software pipelining)
	return nBuf * k.Alpha * BK * (bn + bm) * elem
}
