package core

// gemmKernelName attributes the dense EWM to the SSE2 kernel. SSE2 is part
// of the amd64 baseline, so no CPU detection is needed.
const gemmKernelName = "gemm4x8+sse2"

// gemm4x8 is the SSE2 form of gemm4x8Go; see gemm_amd64.s. The bounds are
// checked here because the assembly reads and writes without them.
func gemm4x8(c []float32, ldc int, w []float32, ldw int, x []float32, ldx, k int) {
	if k <= 0 {
		return
	}
	_ = c[3*ldc+7]
	_ = w[(k-1)*ldw+3]
	_ = x[(k-1)*ldx+7]
	gemm4x8SSE2(&c[0], ldc, &w[0], ldw, &x[0], ldx, k)
}

//go:noescape
func gemm4x8SSE2(c *float32, ldc int, w *float32, ldw int, x *float32, ldx, k int)
