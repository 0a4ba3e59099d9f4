package spectra

import (
	"math"
	"testing"

	"finser/internal/phys"
)

func TestProtonSpectrumBasics(t *testing.T) {
	p, err := NewProtonSeaLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Species() != phys.Proton {
		t.Error("species wrong")
	}
	if _, err := NewProtonSeaLevel(0); err == nil {
		t.Error("zero scale accepted")
	}
	// Outside the domain the flux is zero.
	if p.DifferentialFlux(0.05) != 0 || p.DifferentialFlux(2e7) != 0 {
		t.Error("flux outside domain should be 0")
	}
	// Monotone decreasing above 1 MeV (Fig. 2a shape)...
	prev := math.Inf(1)
	for e := 1.0; e <= 1e7; e *= 3 {
		f := p.DifferentialFlux(e)
		if f <= 0 || f >= prev {
			t.Fatalf("proton flux not positive-decreasing at %v MeV: %v", e, f)
		}
		prev = f
	}
	// ...with an attenuated sub-MeV shoulder (BEOL/package filtering).
	if p.DifferentialFlux(0.1) >= p.DifferentialFlux(1) {
		t.Error("sub-MeV proton flux should be attenuated below the 1 MeV value")
	}
	if p.DifferentialFlux(0.1) <= 0 {
		t.Error("sub-MeV proton flux should remain positive")
	}
	// Magnitude: at 1 MeV, J = 1e-2 /(m²·s·sr·MeV) → π·1e-6 /(cm²·s·MeV).
	want := math.Pi * 1e-6
	if got := p.DifferentialFlux(1); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("flux(1 MeV) = %v, want %v", got, want)
	}
}

func TestProtonScale(t *testing.T) {
	p1, _ := NewProtonSeaLevel(1)
	p3, _ := NewProtonSeaLevel(3)
	if r := p3.DifferentialFlux(10) / p1.DifferentialFlux(10); math.Abs(r-3) > 1e-9 {
		t.Errorf("scale ratio = %v, want 3", r)
	}
}

func TestAlphaSpectrumNormalization(t *testing.T) {
	a, err := NewAlphaEmission(DefaultAlphaRate)
	if err != nil {
		t.Fatal(err)
	}
	if a.Species() != phys.Alpha {
		t.Error("species wrong")
	}
	// The full-domain integral must equal the paper's emission rate.
	got := TotalFluxPerHour(a)
	if math.Abs(got-DefaultAlphaRate)/DefaultAlphaRate > 0.01 {
		t.Errorf("total alpha flux = %v /(cm²·h), want %v", got, DefaultAlphaRate)
	}
}

func TestAlphaSpectrumShape(t *testing.T) {
	a, _ := NewAlphaEmission(DefaultAlphaRate)
	if a.DifferentialFlux(0.1) != 0 || a.DifferentialFlux(11) != 0 {
		t.Error("alpha flux outside domain should be 0")
	}
	// Peaked in the 4-6 MeV region, lower at the domain edges.
	mid := a.DifferentialFlux(5)
	if mid <= a.DifferentialFlux(1) || mid <= a.DifferentialFlux(9.9) {
		t.Error("alpha spectrum should peak in the mid-MeV region")
	}
	for e := 0.6; e < 10; e += 0.2 {
		if a.DifferentialFlux(e) < 0 {
			t.Fatalf("negative flux at %v", e)
		}
	}
}

func TestAlphaRateValidation(t *testing.T) {
	if _, err := NewAlphaEmission(0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewAlphaEmission(-1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestAlphaRateLinear(t *testing.T) {
	a1, _ := NewAlphaEmission(0.001)
	a2, _ := NewAlphaEmission(0.002)
	if r := a2.DifferentialFlux(5) / a1.DifferentialFlux(5); math.Abs(r-2) > 1e-9 {
		t.Errorf("rate scaling = %v, want 2", r)
	}
}

func TestIntegralFluxAdditive(t *testing.T) {
	p, _ := NewProtonSeaLevel(1)
	whole := IntegralFlux(p, 1, 100)
	parts := IntegralFlux(p, 1, 10) + IntegralFlux(p, 10, 100)
	if math.Abs(whole-parts)/whole > 0.01 {
		t.Errorf("integral not additive: %v vs %v", whole, parts)
	}
	if IntegralFlux(p, 10, 10) != 0 || IntegralFlux(p, -1, 5) != 0 {
		t.Error("degenerate ranges should integrate to 0")
	}
}

func TestBins(t *testing.T) {
	a, _ := NewAlphaEmission(DefaultAlphaRate)
	bins, err := Bins(a, 0.5, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 12 {
		t.Fatalf("bins = %d", len(bins))
	}
	var sum float64
	for i, b := range bins {
		if b.Lo >= b.Hi {
			t.Fatalf("bin %d not ordered", i)
		}
		if b.Rep < b.Lo || b.Rep > b.Hi {
			t.Fatalf("bin %d representative outside bin", i)
		}
		if i > 0 && math.Abs(b.Lo-bins[i-1].Hi) > 1e-12*b.Lo {
			t.Fatalf("bins %d/%d not contiguous", i-1, i)
		}
		if b.IntFlux < 0 {
			t.Fatalf("bin %d negative flux", i)
		}
		sum += b.IntFlux
	}
	// Bin fluxes sum to the domain integral.
	whole := IntegralFlux(a, 0.5, 10)
	if math.Abs(sum-whole)/whole > 0.02 {
		t.Errorf("bin flux sum %v != integral %v", sum, whole)
	}
}

func TestBinsValidation(t *testing.T) {
	p, _ := NewProtonSeaLevel(1)
	if _, err := Bins(p, 1, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := Bins(p, 0, 10, 4); err == nil {
		t.Error("zero lo accepted")
	}
	if _, err := Bins(p, 10, 1, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestProtonFluxDominatesAlphaFlux(t *testing.T) {
	// The paper's Fig. 9 crossover argument requires the ground-level
	// proton flux (over the directly-ionizing range) to greatly exceed the
	// 0.001 α/(cm²·h) emission rate.
	p, _ := NewProtonSeaLevel(1)
	a, _ := NewAlphaEmission(DefaultAlphaRate)
	protonPerHour := IntegralFlux(p, 1, 1000) * 3600
	alphaPerHour := TotalFluxPerHour(a)
	if protonPerHour < 10*alphaPerHour {
		t.Errorf("proton flux %v /(cm²·h) not ≫ alpha %v", protonPerHour, alphaPerHour)
	}
}
