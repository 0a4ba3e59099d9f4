package finfet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Id is monotone non-decreasing in Vgs for NMOS at fixed Vds>0.
func TestIdMonotoneInVgs(t *testing.T) {
	p := nparams()
	f := func(raw1, raw2, rawD float64) bool {
		vg1 := math.Abs(math.Mod(raw1, 1.2))
		vg2 := math.Abs(math.Mod(raw2, 1.2))
		vd := 0.05 + math.Abs(math.Mod(rawD, 1.0))
		if vg1 > vg2 {
			vg1, vg2 = vg2, vg1
		}
		i1 := DrainCurrent(p, vg1, vd, 0)
		i2 := DrainCurrent(p, vg2, vd, 0)
		return i2 >= i1-1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: Id is monotone non-decreasing in Vds for NMOS at fixed Vgs.
func TestIdMonotoneInVds(t *testing.T) {
	p := nparams()
	f := func(rawG, raw1, raw2 float64) bool {
		vg := math.Abs(math.Mod(rawG, 1.2))
		vd1 := math.Abs(math.Mod(raw1, 1.2))
		vd2 := math.Abs(math.Mod(raw2, 1.2))
		if vd1 > vd2 {
			vd1, vd2 = vd2, vd1
		}
		i1 := DrainCurrent(p, vg, vd1, 0)
		i2 := DrainCurrent(p, vg, vd2, 0)
		return i2 >= i1-1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the model is C¹-smooth enough for Newton — central-difference
// derivatives computed at two nearby scales agree (no kinks).
func TestIdSmoothness(t *testing.T) {
	p := nparams()
	f := func(rawG, rawD float64) bool {
		vg := math.Abs(math.Mod(rawG, 1.2))
		vd := math.Abs(math.Mod(rawD, 1.2))
		d := func(h float64) float64 {
			return (DrainCurrent(p, vg+h, vd, 0) - DrainCurrent(p, vg-h, vd, 0)) / (2 * h)
		}
		g1 := d(1e-6)
		g2 := d(1e-7)
		scale := math.Max(math.Abs(g1), 1e-12)
		return math.Abs(g1-g2)/scale < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: gm ≥ 0 over the full bias plane — NMOS current never falls as
// the gate rises, and PMOS conduction magnitude never falls as the gate
// drops.
func TestTransconductanceNonNegative(t *testing.T) {
	const h = 1e-6
	n := nparams()
	for vg := -0.2; vg <= 1.4; vg += 0.05 {
		for vd := 0.0; vd <= 1.2; vd += 0.1 {
			gm := (DrainCurrent(n, vg+h, vd, 0) - DrainCurrent(n, vg-h, vd, 0)) / (2 * h)
			if gm < -1e-12 {
				t.Fatalf("NMOS negative gm at vg=%v vd=%v: %v", vg, vd, gm)
			}
		}
	}
	p := pparams()
	for vg := -0.2; vg <= 1.4; vg += 0.05 {
		for vd := 0.0; vd <= 1.2; vd += 0.1 {
			// PMOS: source at 1.2 V; |Id| must not increase with rising vg.
			dmag := (math.Abs(DrainCurrent(p, vg+h, vd, 1.2)) -
				math.Abs(DrainCurrent(p, vg-h, vd, 1.2))) / (2 * h)
			if dmag > 1e-12 {
				t.Fatalf("PMOS |Id| increases with gate at vg=%v vd=%v: %v", vg, vd, dmag)
			}
		}
	}
}

// Zero-bias current must vanish: no spurious source at Vds = 0.
func TestZeroBiasZeroCurrent(t *testing.T) {
	for _, p := range []Params{nparams(), pparams()} {
		for vg := 0.0; vg <= 1.2; vg += 0.1 {
			if id := DrainCurrent(p, vg, 0.5, 0.5); math.Abs(id) > 1e-15 {
				t.Fatalf("%v: Id(Vds=0) = %v at vg=%v", p.Polarity, id, vg)
			}
		}
	}
}

// TestPartialsMatchCentralDifferences checks the analytic Jacobian of
// DrainCurrentPartials against central differences of DrainCurrent, and
// that the current it returns is DrainCurrent bit for bit: over random
// bias points of both polarities, and at the source/drain swap, deep
// subthreshold, the large-u branch of the EKV interpolation and NFins 0.
func TestPartialsMatchCentralDifferences(t *testing.T) {
	const h = 1e-7
	check := func(name string, p Params, vg, vd, vs float64) {
		t.Helper()
		id, gg, gd, gs := DrainCurrentPartials(p, vg, vd, vs)
		if want := DrainCurrent(p, vg, vd, vs); math.Float64bits(id) != math.Float64bits(want) {
			t.Errorf("%s (%v, %v, %v): id %v, DrainCurrent %v", name, vg, vd, vs, id, want)
		}
		fd := [3]float64{
			(DrainCurrent(p, vg+h, vd, vs) - DrainCurrent(p, vg-h, vd, vs)) / (2 * h),
			(DrainCurrent(p, vg, vd+h, vs) - DrainCurrent(p, vg, vd-h, vs)) / (2 * h),
			(DrainCurrent(p, vg, vd, vs+h) - DrainCurrent(p, vg, vd, vs-h)) / (2 * h),
		}
		got := [3]float64{gg, gd, gs}
		scale := math.Max(math.Abs(gg), math.Max(math.Abs(gd), math.Abs(gs)))
		if scale == 0 {
			t.Fatalf("%s (%v, %v, %v): all partials zero", name, vg, vd, vs)
		}
		for k, term := range []string{"gate", "drain", "source"} {
			if math.Abs(got[k]-fd[k]) > 1e-6*scale {
				t.Errorf("%s (%v, %v, %v): d id/d v%s analytic %v, central difference %v",
					name, vg, vd, vs, term, got[k], fd[k])
			}
		}
	}
	n, p := nparams(), pparams()
	r := rand.New(rand.NewSource(1))
	v := func() float64 { return -0.3 + 1.7*r.Float64() }
	for i := 0; i < 10000; i++ {
		check("random nfet", n, v(), v(), v())
		check("random pfet", p, v(), v(), v())
	}
	// Drain below source: the model swaps the terminals.
	check("swapped nfet", n, 0.8, 0.1, 0.7)
	check("swapped pfet", p, 0.1, 0.7, 0.2)
	// Deep subthreshold, where the current is e^u-small.
	check("subthreshold nfet", n, -0.3, 0.8, 0)
	check("subthreshold pfet", p, 1.1, 0, 0.8)
	// uf and ur past 80, then only uf: the quadratic branch of ekvF.
	check("large-u nfet", n, 4, 0.3, 0)
	check("large-u mixed nfet", n, 4, 3.5, 0)
	check("large-u pfet", p, -4, -0.3, 0)
	// NFins 0 counts as one fin.
	n0 := n
	n0.NFins = 0
	check("zero-fin nfet", n0, 0.8, 0.8, 0)
	if a, b := DrainCurrent(n0, 0.8, 0.8, 0), DrainCurrent(n, 0.8, 0.8, 0); a != b {
		t.Errorf("zero-fin current %v, one-fin %v", a, b)
	}
}
