package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitPowerExact(t *testing.T) {
	// y = 3 x^2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	f, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Alpha, 2, 1e-9) || !approx(f.C, 3, 1e-9) || !approx(f.R2, 1, 1e-12) {
		t.Errorf("fit = %+v, want alpha=2 C=3 R2=1", f)
	}
}

func TestFitPowerNoisy(t *testing.T) {
	xs := []float64{100, 200, 400, 800}
	ys := []float64{1.05e4, 4.1e4, 1.58e5, 6.5e5} // ~ x^2
	f, err := FitPower(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if f.Alpha < 1.9 || f.Alpha > 2.1 {
		t.Errorf("alpha = %v, want ~2", f.Alpha)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", f.R2)
	}
}

func TestFitPowerErrors(t *testing.T) {
	if _, err := FitPower([]float64{1}, []float64{1}); err == nil {
		t.Error("one point should error")
	}
	if _, err := FitPower([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := FitPower([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Error("negative x should error")
	}
	if _, err := FitPower([]float64{1, 2}, []float64{0, 2}); err == nil {
		t.Error("zero y should error")
	}
}

// Property: fitting data generated from a power law recovers its exponent.
func TestFitPowerRecoveryProperty(t *testing.T) {
	f := func(alphaRaw, cRaw uint8) bool {
		alpha := 0.5 + float64(alphaRaw%30)/10 // 0.5 .. 3.4
		c := 0.1 + float64(cRaw%50)/10         // 0.1 .. 5.0
		xs := []float64{2, 5, 11, 23, 47, 97}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = c * math.Pow(x, alpha)
		}
		fit, err := FitPower(xs, ys)
		if err != nil {
			return false
		}
		return approx(fit.Alpha, alpha, 1e-9) && approx(fit.C, c, 1e-6*c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	// All x equal: slope undefined, fall back to mean intercept.
	slope, intercept, r2 := linearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if slope != 0 || intercept != 2 || r2 != 0 {
		t.Errorf("degenerate fit = %v/%v/%v", slope, intercept, r2)
	}
	// Perfectly flat y: R2 defined as 1.
	_, _, r2 = linearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if r2 != 1 {
		t.Errorf("flat-y R2 = %v, want 1", r2)
	}
}
