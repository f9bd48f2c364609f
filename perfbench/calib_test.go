package main

import (
	"math"
	"testing"
)

// A host that runs twice as slow for a while doubles the steps and the
// kernel alike; the scaled steps stay flat, and one disturbed kernel call
// moves no sample.
func TestScaleRollingCancelsHostDrift(t *testing.T) {
	var steps, cal []float64
	for i := 0; i < 30; i++ {
		f := 1.0
		if i >= 15 {
			f = 2
		}
		steps, cal = append(steps, 10*f), append(cal, calibRefMs*f)
	}
	cal[7] = calibRefMs / 3
	for i, v := range scaleRolling(steps, cal) {
		if math.Abs(v-10) > 1e-9 {
			t.Errorf("step %d scales to %v, want 10", i, v)
		}
	}
}

func TestCalibratorRuns(t *testing.T) {
	if d := newCalibrator(2).burst(3); !(d > 0) {
		t.Fatalf("burst took %v ms", d)
	}
}
