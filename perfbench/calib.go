package main

import (
	"math/rand"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by up to 2× over
// minutes as other tenants come and go; the drift moved the step medians
// of whole runs by more than any bound a comparison could use. So the
// training workloads time a calibration kernel after every step, a fixed
// float32 matrix product split over nproc goroutines that uses nothing of
// the program under test, and report each step scaled by calibRefMs over
// the kernel's time at that moment: milliseconds at the reference host's
// nominal speed. On that host (a 2-vCPU Xeon) the kernel tracked the
// drift closely: over twelve 10 s windows of train-grouped steps, the raw
// step median ranged 46.8–62.2 ms and the step-to-kernel ratio
// 12.2–13.0. The raw wall times are printed and kept in the result file
// beside the scaled ones.

// calibN is the calibration product's matrix order: three matrices that
// fit in cache.
const calibN = 192

// calibRefMs is the calibration kernel's median time on the reference
// host, in ms. It only fixes the scale of the reported times and must not
// change, or every earlier result stops being comparable.
const calibRefMs = 4.2

// calibrator times the calibration kernel.
type calibrator struct {
	procs   int
	a, b, c []float32
}

func newCalibrator(procs int) *calibrator {
	rng := rand.New(rand.NewSource(1))
	k := &calibrator{procs: procs, a: make([]float32, calibN*calibN),
		b: make([]float32, calibN*calibN), c: make([]float32, calibN*calibN)}
	for i := range k.a {
		k.a[i], k.b[i] = rng.Float32(), rng.Float32()
	}
	return k
}

// run computes c = a·b once, rows dealt round-robin to procs goroutines,
// and returns its wall time in ms.
func (k *calibrator) run() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < k.procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < calibN; i += k.procs {
				out := k.c[i*calibN : (i+1)*calibN]
				clear(out)
				for j := 0; j < calibN; j++ {
					aij := k.a[i*calibN+j]
					row := k.b[j*calibN : (j+1)*calibN]
					for x, v := range row {
						out[x] += aij * v
					}
				}
			}
		}(g)
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// burst runs the kernel n times and returns the median time in ms.
func (k *calibrator) burst(n int) float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = k.run()
	}
	return median(ts)
}

// calibBurst is how many kernel calls a set-up process takes the median
// of.
const calibBurst = 7

// calibWindow is how many kernel times on each side of a sample its
// scale is taken from: the median of 2·calibWindow+1 neighbours, so one
// disturbed kernel call does not move a sample.
const calibWindow = 4

// scaleRolling returns each xs[i] times calibRefMs over the median of the
// kernel times cal around i; cal[i] was taken right after xs[i].
func scaleRolling(xs, cal []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		lo, hi := max(0, i-calibWindow), min(len(cal), i+calibWindow+1)
		out[i] = x * calibRefMs / median(cal[lo:hi])
	}
	return out
}
