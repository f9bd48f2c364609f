package main

import (
	"math"
	"testing"
)

func TestPercentileRuleNeedsTenSamplesBeyond(t *testing.T) {
	if got := minSamples(0.9); got != 100 {
		t.Fatalf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Fatalf("minSamples(0.5) = %d, want 20", got)
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples has only 9 beyond it, but percentile accepted it")
	}
	xs = append(xs, 100)
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", p90)
	}
}

func TestFailedRequestsMissTheLimit(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i] = outcome{latency: 1}
	}
	for i := 0; i < 11; i++ {
		outs[i].mismatch = "wrong"
	}
	p90, err := percentile(latencies(outs), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p90, 1) {
		t.Fatalf("with 11%% failed requests p90 = %v, want +Inf", p90)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
