package winograd

import (
	"math"
	"math/rand"
	"testing"
)

// Every registry kernel's G matrix must pair its ±point rows, and the
// shared-product evaluation must agree with the plain one.
func TestSymPlanMatchesPlainMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, k := range Kernels {
		tr := Generate(k.N, k.R)
		sp := NewSymPlan(tr.G)
		x := make([]float32, tr.G.Cols)
		for trial := 0; trial < 5; trial++ {
			for i := range x {
				x[i] = rng.Float32()*2 - 1
			}
			plain := tr.G.MulVec32(x)
			sym := sp.MulVec32(x)
			for i := range plain {
				// Different summation order: allow a few ULP.
				if math.Abs(float64(plain[i]-sym[i])) > 1e-4*math.Max(1, math.Abs(float64(plain[i]))) {
					t.Fatalf("%v row %d: plain %v vs sym %v", k, i, plain[i], sym[i])
				}
			}
		}
	}
}

// The paper: "this property enables the reuse of multiplication results,
// which nearly halves the required multiplications". With the ±-ordered
// points, all rows except the 0 row and the ∞ row pair up.
func TestSymPlanHalvesMultiplications(t *testing.T) {
	for _, k := range Kernels {
		if k.Alpha < 4 {
			continue // F(1,2)/F(2,3)-class transforms have too few rows
		}
		tr := Generate(k.N, k.R)
		sp := NewSymPlan(tr.G)
		wantPairs := MaxPairableRows(k.Alpha) / 2
		if sp.Pairs() < wantPairs {
			t.Errorf("%v: %d symmetric pairs, want >= %d", k, sp.Pairs(), wantPairs)
		}
		ratio := sp.SavingsRatio()
		// α=8: 3 pairs + 2 singles → 5/8 = 0.625; α=16: 7+2 → 9/16 = 0.5625.
		wantMax := (float64(k.Alpha)/2 + 1) / float64(k.Alpha)
		if ratio > wantMax+1e-9 {
			t.Errorf("%v: savings ratio %v, want <= %v", k, ratio, wantMax)
		}
	}
}

func TestSymPlanArbitraryMatrixFallsBack(t *testing.T) {
	m := NewMat(3, 2)
	m.Set(0, 0, 1)
	m.Set(1, 0, 2)
	m.Set(2, 1, 3)
	sp := NewSymPlan(m)
	if sp.Pairs() != 0 {
		t.Errorf("asymmetric matrix produced %d pairs", sp.Pairs())
	}
	got := sp.MulVec32([]float32{2, 5})
	want := m.MulVec32([]float32{2, 5})
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fallback MulVec mismatch at %d", i)
		}
	}
}

func TestSymPlanDimensionPanics(t *testing.T) {
	sp := NewSymPlan(NewMat(2, 3))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sp.MulVec32(make([]float32, 2))
}

func TestSymGCaching(t *testing.T) {
	tr := Generate(3, 6)
	if tr.SymG() != tr.SymG() {
		t.Error("SymG should return the cached plan")
	}
}

func TestMaxPairableRows(t *testing.T) {
	cases := map[int]int{2: 0, 4: 2, 8: 6, 16: 14}
	for alpha, want := range cases {
		if got := MaxPairableRows(alpha); got != want {
			t.Errorf("MaxPairableRows(%d) = %d, want %d", alpha, got, want)
		}
	}
}

func BenchmarkTransformPlainVsSymmetric(b *testing.B) {
	tr := Generate(9, 8) // α = 16, the biggest win
	sp := NewSymPlan(tr.G)
	x := make([]float32, tr.G.Cols)
	for i := range x {
		x[i] = float32(i) * 0.25
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tr.G.MulVec32(x)
		}
	})
	b.Run("symmetric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sp.MulVec32(x)
		}
	})
}

// MulPanel must agree with the plain panel multiply for both G and the
// transposed D of every registry kernel (including balanced variants, whose
// per-row scaling preserves the pair symmetry).
func TestMulPanelMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const width = 8
	plainMul := func(m *Mat, in []float32) []float32 {
		out := make([]float32, m.Rows*width)
		for i := 0; i < m.Rows; i++ {
			for c := 0; c < m.Cols; c++ {
				cv := float32(m.At(i, c))
				for x := 0; x < width; x++ {
					out[i*width+x] += cv * in[c*width+x]
				}
			}
		}
		return out
	}
	for _, k := range Kernels {
		for _, tr := range []*Transform{Generate(k.N, k.R), Generate(k.N, k.R).Balanced()} {
			gPlan, dtPlan := tr.PanelPlans()
			for _, tc := range []struct {
				plan *SymPlan
				m    *Mat
				rows int
			}{
				{gPlan, tr.G, tr.R},
				{dtPlan, tr.D.T(), tr.Alpha},
			} {
				in := make([]float32, tc.rows*width)
				for i := range in {
					in[i] = rng.Float32()*2 - 1
				}
				out := make([]float32, tc.m.Rows*width)
				tc.plan.MulPanel(in, out, tc.rows, width)
				want := plainMul(tc.m, in)
				for i := range want {
					d := float64(out[i] - want[i])
					if d > 1e-4 || d < -1e-4 {
						bound := 1e-4 * (1 + math.Abs(float64(want[i])))
						if math.Abs(d) > bound {
							t.Fatalf("%v: panel mismatch at %d: %v vs %v", k, i, out[i], want[i])
						}
					}
				}
			}
		}
	}
}

// The balanced transforms must keep their symmetric pairs (per-row scaling
// applies identical factors to ± pairs), so the hot path really does get
// the savings.
func TestBalancedKeepsPairs(t *testing.T) {
	for _, k := range Kernels {
		if k.Alpha < 8 {
			continue
		}
		g, dt := k.Transform().Balanced().PanelPlans()
		if g.Pairs() < 2 {
			t.Errorf("%v balanced G: only %d pairs", k, g.Pairs())
		}
		if dt.Pairs() < 2 {
			t.Errorf("%v balanced Dᵀ: only %d pairs", k, dt.Pairs())
		}
	}
}

func TestMulPanelDimensionPanics(t *testing.T) {
	sp := NewSymPlan(NewMat(2, 3))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sp.MulPanel(make([]float32, 8), make([]float32, 8), 2, 4)
}

// ChainPanel must reproduce MulPanel bit for bit when its chains are
// summed over ascending input rows from zero and the pairs are combined —
// the form in which GEMM kernels evaluate the transform.
func TestChainPanelMatchesMulPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const width = 5
	for _, k := range Kernels {
		tr := Generate(k.N, k.R).Balanced()
		gPlan, dtPlan := tr.PanelPlans()
		for _, plan := range []*SymPlan{gPlan, dtPlan} {
			rows, outRows := plan.m.Cols, plan.m.Rows
			in := make([]float32, rows*width)
			for i := range in {
				in[i] = rng.Float32()*2 - 1
			}
			want := make([]float32, outRows*width)
			plan.MulPanel(in, want, rows, width)

			ldw := outRows + 3
			panel := make([]float32, rows*ldw)
			pairs := plan.ChainPanel(panel, ldw)
			got := make([]float32, outRows*width)
			for i := 0; i < outRows; i++ {
				for x := 0; x < width; x++ {
					var s float32
					for c := 0; c < rows; c++ {
						s += panel[c*ldw+i] * in[c*width+x]
					}
					got[i*width+x] = s
				}
			}
			for _, pr := range pairs {
				for x := 0; x < width; x++ {
					even, odd := got[pr[0]*width+x], got[pr[1]*width+x]
					got[pr[0]*width+x], got[pr[1]*width+x] = even+odd, even-odd
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: element %d = %v, MulPanel %v", k, i, got[i], want[i])
				}
			}
			for c := 0; c < rows; c++ {
				for i := outRows; i < ldw; i++ {
					if panel[c*ldw+i] != 0 {
						t.Fatalf("%v: padding column %d of row %d = %v", k, i, c, panel[c*ldw+i])
					}
				}
			}
		}
	}
}
