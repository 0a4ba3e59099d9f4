package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"finser"
)

// fitBand is a recorded reference FIT with the relative band a correct run
// must fall inside.
type fitBand struct {
	Alpha, Proton float64
	Rel           float64
}

// flowDefaultRef is the FIT of the flow-default configuration (0.8 V,
// 9×9, 200 PV samples, 30 000 particles per bin), the mean of 15 flows with
// distinct seeds at the commit that introduced the benchmark. Those flows
// stayed within ±8% of it (Monte-Carlo and process-variation spread), so a
// ±30% band flags a change in the physics, not noise.
var flowDefaultRef = fitBand{Alpha: 1.1e-3, Proton: 6.6e-4, Rel: 0.30}

// checkFIT verifies one species result: finite, non-negative components
// and SEU + MBU = Total up to float rounding.
func checkFIT(name string, r finser.FITResult) error {
	for _, v := range []float64{r.TotalFIT, r.SEUFIT, r.MBUFIT, r.TotalFITErr} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%s FIT has a non-finite or negative component: total %g, SEU %g, MBU %g, err %g", name, r.TotalFIT, r.SEUFIT, r.MBUFIT, r.TotalFITErr)
		}
	}
	if math.Abs(r.SEUFIT+r.MBUFIT-r.TotalFIT) > 1e-9*r.TotalFIT {
		return fmt.Errorf("%s FIT: SEU %g + MBU %g != total %g", name, r.SEUFIT, r.MBUFIT, r.TotalFIT)
	}
	return nil
}

// checkPositive is checkFIT plus a strictly positive total.
func checkPositive(name string, r finser.FITResult) error {
	if err := checkFIT(name, r); err != nil {
		return err
	}
	if !(r.TotalFIT > 0) {
		return fmt.Errorf("%s FIT is %g, want > 0", name, r.TotalFIT)
	}
	return nil
}

// checkFlowDefault is the flow-default output check: both species positive
// and consistent, alpha MBU/SEU above proton MBU/SEU (Fig. 10), and both
// totals inside the recorded band.
func checkFlowDefault(r *finser.FlowResult, ref fitBand) error {
	if err := checkPositive("alpha", r.Alpha); err != nil {
		return err
	}
	if err := checkPositive("proton", r.Proton); err != nil {
		return err
	}
	if !(r.Alpha.MBUToSEU > r.Proton.MBUToSEU) {
		return fmt.Errorf("alpha MBU/SEU %.3g%% not above proton %.3g%% (Fig. 10)", r.Alpha.MBUToSEU, r.Proton.MBUToSEU)
	}
	for _, c := range []struct {
		name     string
		got, ref float64
	}{{"alpha", r.Alpha.TotalFIT, ref.Alpha}, {"proton", r.Proton.TotalFIT, ref.Proton}} {
		if math.Abs(c.got-c.ref) > ref.Rel*c.ref {
			return fmt.Errorf("%s FIT %.4g outside %.4g ± %.0f%%", c.name, c.got, c.ref, 100*ref.Rel)
		}
	}
	return nil
}

// checkVddOrder is Fig. 9: for each species, FIT at the lower supply
// voltage is above FIT at the higher one.
func checkVddOrder(low, high *finser.FlowResult) error {
	if !(low.Vdd < high.Vdd) {
		return fmt.Errorf("Vdd order: %g V is not below %g V", low.Vdd, high.Vdd)
	}
	for _, c := range []struct {
		name   string
		lo, hi float64
	}{{"alpha", low.Alpha.TotalFIT, high.Alpha.TotalFIT}, {"proton", low.Proton.TotalFIT, high.Proton.TotalFIT}} {
		if !(c.lo > c.hi) {
			return fmt.Errorf("%s FIT %.4g at %g V not above %.4g at %g V (Fig. 9)", c.name, c.lo, low.Vdd, c.hi, high.Vdd)
		}
	}
	return nil
}

// agreeSigmas is how many combined standard errors an adaptive FIT may sit
// from the flat FIT of the same characterization: the two runs use
// independent seeds, so at 4σ a correct pair fails about once in 16 000.
const agreeSigmas = 4

// checkAgree verifies that the adaptive result agrees with the flat one
// within their combined standard error, per species, and that every bin the
// adaptive run reports as converged is inside its tolerance.
func checkAgree(flat, tol *finser.FlowResult) error {
	for _, c := range []struct {
		name string
		f, t finser.FITResult
	}{{"alpha", flat.Alpha, tol.Alpha}, {"proton", flat.Proton, tol.Proton}} {
		if err := checkPositive(c.name+" flat", c.f); err != nil {
			return err
		}
		if err := checkPositive(c.name+" adaptive", c.t); err != nil {
			return err
		}
		se := math.Hypot(c.f.TotalFITErr, c.t.TotalFITErr)
		if d := math.Abs(c.f.TotalFIT - c.t.TotalFIT); d > agreeSigmas*se {
			return fmt.Errorf("%s adaptive FIT %.5g vs flat %.5g: |Δ| %.3g above %d × combined stderr %.3g", c.name, c.t.TotalFIT, c.f.TotalFIT, d, agreeSigmas, se)
		}
		if err := checkConv(c.name, c.t); err != nil {
			return err
		}
	}
	return nil
}

// checkConv verifies an adaptive result's convergence records: one per
// bin, and every converged bin's relative error inside its tolerance.
func checkConv(name string, r finser.FITResult) error {
	if len(r.Conv) != len(r.Points) {
		return fmt.Errorf("%s: %d convergence records for %d bins", name, len(r.Conv), len(r.Points))
	}
	for i, c := range r.Conv {
		if c.Converged && !(c.RelErr <= c.Tol) {
			return fmt.Errorf("%s bin %d: converged with rel err %.4g above tolerance %.4g", name, i, c.RelErr, c.Tol)
		}
	}
	return nil
}

// checkIdentical verifies that two results are bit-identical: their JSON
// encodings match, and Go encodes every float64 in its shortest exact form.
func checkIdentical(name string, got, want finser.FITResult) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: served result differs from RunFlowCtx (total %.17g vs %.17g)", name, got.TotalFIT, want.TotalFIT)
	}
	return nil
}
