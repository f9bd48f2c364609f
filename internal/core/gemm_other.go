//go:build !amd64

package core

// gemmKernelName attributes the dense EWM to the portable kernel.
const gemmKernelName = "gemm4x8"

// gemm4x8 runs the portable twin on architectures without an assembly
// kernel.
func gemm4x8(c []float32, ldc int, w []float32, ldw int, x []float32, ldx, k int) {
	gemm4x8Go(c, ldc, w, ldw, x, ldx, k)
}
