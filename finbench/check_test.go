package main

import (
	"math"
	"testing"
	"time"

	"finser"
	"finser/internal/server"
)

// fit builds a consistent species result with n bins.
func fit(total, mbuShare, stderr float64, n int) finser.FITResult {
	r := finser.FITResult{TotalFIT: total, MBUFIT: total * mbuShare, TotalFITErr: stderr}
	r.SEUFIT = total - r.MBUFIT
	r.MBUToSEU = 100 * r.MBUFIT / r.SEUFIT
	r.Points = make([]finser.POFPoint, n)
	return r
}

func goodFlow() *finser.FlowResult {
	return &finser.FlowResult{
		Vdd:    0.8,
		Alpha:  fit(flowDefaultRef.Alpha, 0.2, 2e-5, 12),
		Proton: fit(flowDefaultRef.Proton, 0.05, 1e-5, 16),
	}
}

func TestCheckFlowDefaultRejectsPerturbedResults(t *testing.T) {
	if err := checkFlowDefault(goodFlow(), flowDefaultRef); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	for name, perturb := range map[string]func(r *finser.FlowResult){
		"SEU+MBU != total":    func(r *finser.FlowResult) { r.Alpha.SEUFIT *= 1.01 },
		"NaN total":           func(r *finser.FlowResult) { r.Proton.TotalFIT = math.NaN() },
		"zero FIT":            func(r *finser.FlowResult) { r.Proton = fit(0, 0, 0, 16) },
		"negative MBU":        func(r *finser.FlowResult) { r.Alpha.MBUFIT, r.Alpha.SEUFIT = -1e-6, r.Alpha.TotalFIT+1e-6 },
		"Fig. 10 inverted":    func(r *finser.FlowResult) { r.Alpha.MBUToSEU, r.Proton.MBUToSEU = r.Proton.MBUToSEU, r.Alpha.MBUToSEU },
		"alpha above band":    func(r *finser.FlowResult) { r.Alpha = fit(2*flowDefaultRef.Alpha, 0.2, 2e-5, 12) },
		"proton below band":   func(r *finser.FlowResult) { r.Proton = fit(0.5*flowDefaultRef.Proton, 0.05, 1e-5, 16) },
		"infinite stderr":     func(r *finser.FlowResult) { r.Alpha.TotalFITErr = math.Inf(1) },
		"alpha total shifted": func(r *finser.FlowResult) { r.Alpha.TotalFIT *= 1.001 },
	} {
		r := goodFlow()
		perturb(r)
		if err := checkFlowDefault(r, flowDefaultRef); err == nil {
			t.Errorf("%s: perturbed result accepted", name)
		}
	}
}

// sweepPoint builds a flat and an adaptive result at one voltage; the
// adaptive one carries converged records inside tolerance.
func sweepPoint(vdd, alpha, proton float64) (flat, tol *finser.FlowResult) {
	flat = &finser.FlowResult{Vdd: vdd, Alpha: fit(alpha, 0.2, 0.01*alpha, 12), Proton: fit(proton, 0.05, 0.01*proton, 16)}
	tol = &finser.FlowResult{Vdd: vdd, Alpha: fit(alpha*1.01, 0.2, 0.02*alpha, 12), Proton: fit(proton*0.99, 0.05, 0.02*proton, 16)}
	for _, r := range []*finser.FITResult{&tol.Alpha, &tol.Proton} {
		r.Conv = make([]finser.BinConv, len(r.Points))
		for i := range r.Conv {
			r.Conv[i] = finser.BinConv{RelErr: 0.02, Tol: 0.03, Converged: true, Batches: 3}
		}
	}
	return flat, tol
}

func TestCheckFitSweepRejectsPerturbedResults(t *testing.T) {
	lowFlat, lowTol := sweepPoint(0.7, 1.5e-3, 1.1e-3)
	highFlat, highTol := sweepPoint(1.1, 4e-4, 1.7e-4)
	if err := checkAgree(lowFlat, lowTol); err != nil {
		t.Fatalf("good point rejected: %v", err)
	}
	if err := checkVddOrder(lowFlat, highFlat); err != nil {
		t.Fatalf("good order rejected: %v", err)
	}
	if err := checkVddOrder(highFlat, lowFlat); err == nil {
		t.Error("Vdd order: swapped voltages accepted")
	}
	inverted := *highFlat
	inverted.Vdd = 0.7
	if err := checkVddOrder(&inverted, lowFlat); err == nil {
		t.Error("Fig. 9: FIT rising with Vdd accepted")
	}

	for name, perturb := range map[string]func(tol *finser.FlowResult){
		"adaptive 5σ off flat": func(tol *finser.FlowResult) {
			tol.Alpha = fit(lowFlat.Alpha.TotalFIT+5*math.Hypot(lowFlat.Alpha.TotalFITErr, tol.Alpha.TotalFITErr), 0.2, tol.Alpha.TotalFITErr, 12)
			tol.Alpha.Conv = highTol.Alpha.Conv
		},
		"converged bin above tolerance": func(tol *finser.FlowResult) { tol.Proton.Conv[3].RelErr = 0.031 },
		"missing conv records":          func(tol *finser.FlowResult) { tol.Alpha.Conv = tol.Alpha.Conv[:5] },
		"NaN adaptive FIT":              func(tol *finser.FlowResult) { tol.Proton.TotalFIT = math.NaN() },
	} {
		_, tol := sweepPoint(0.7, 1.5e-3, 1.1e-3)
		perturb(tol)
		if err := checkAgree(lowFlat, tol); err == nil {
			t.Errorf("%s: perturbed result accepted", name)
		}
	}
	// An unconverged bin may sit above tolerance: it stopped at the cap.
	_, tol := sweepPoint(0.7, 1.5e-3, 1.1e-3)
	tol.Alpha.Conv[0] = finser.BinConv{RelErr: 0.2, Tol: 0.03, Converged: false, Batches: 40}
	if err := checkAgree(lowFlat, tol); err != nil {
		t.Errorf("unconverged bin at the cap rejected: %v", err)
	}
}

func TestCheckJobRejectsPerturbedResults(t *testing.T) {
	now := time.Now()
	good := func() server.JobStatus {
		_, tol := sweepPoint(0.8, 1e-3, 6e-4)
		return server.JobStatus{
			ID: "job-1", State: server.StateDone, FinishedAt: &now,
			Request: server.JobRequest{FitRelErr: 0.05},
			Result:  &server.JobResult{Vdd: 0.8, Alpha: tol.Alpha, Proton: tol.Proton},
		}
	}
	if err := checkJob(good()); err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
	for name, perturb := range map[string]func(st *server.JobStatus){
		"failed state":      func(st *server.JobStatus) { st.State = server.StateFailed },
		"no result":         func(st *server.JobStatus) { st.Result = nil },
		"infinite FIT":      func(st *server.JobStatus) { st.Result.Alpha.TotalFIT = math.Inf(1) },
		"SEU+MBU != total":  func(st *server.JobStatus) { st.Result.Proton.MBUFIT *= 2 },
		"conv out of bound": func(st *server.JobStatus) { st.Result.Alpha.Conv[0].RelErr = 1 },
	} {
		st := good()
		perturb(&st)
		if err := checkJob(st); err == nil {
			t.Errorf("%s: perturbed job accepted", name)
		}
	}
}

func TestCheckIdenticalRejectsOneULP(t *testing.T) {
	a := fit(1e-3, 0.2, 1e-5, 4)
	b := fit(1e-3, 0.2, 1e-5, 4)
	if err := checkIdentical("alpha", a, b); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	b.Points[2].Tot = math.Nextafter(b.Points[2].Tot, 1)
	if err := checkIdentical("alpha", a, b); err == nil {
		t.Error("a one-ULP difference in one bin was accepted")
	}
}

func TestServePlanMix(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		plan := servePlan(seed, 30, serveRate)
		if want := 36; len(plan) != want {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(plan), want)
		}
		seen := map[server.JobRequest]bool{} // the flow fields: class is not in the fingerprint
		repeats, ui, adaptive := 0, 0, 0
		for i, j := range plan {
			flow := j.req
			flow.Class = ""
			if seen[flow] {
				t.Fatalf("seed %d: job %d repeats a fingerprint", seed, i)
			}
			seen[flow] = true
			if i > 0 && j.due < plan[i-1].due {
				t.Fatalf("seed %d: arrivals out of order", seed)
			}
			if j.repeat {
				repeats++
			}
			if j.tenant == "ui" {
				ui++
			}
			if j.req.FitRelErr > 0 {
				adaptive++
			}
		}
		if repeats < 14 || repeats > 18 || ui != 9 || adaptive < 14 || adaptive > 22 {
			t.Errorf("seed %d: %d repeats, %d interactive, %d adaptive of %d", seed, repeats, ui, adaptive, len(plan))
		}
	}
}

func TestServePlanPrefix(t *testing.T) {
	// The traced serve-mixed run pairs each job of its half-length base
	// window with the same job of the full window.
	half, full := servePlan(3, 15, serveRate), servePlan(3, 30, serveRate)
	for i := range half {
		if half[i] != full[i] {
			t.Fatalf("job %d differs between the half and the full plan", i)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("a failed operation must push p90 over any limit, got %g", got)
	}
	if got := capLatency(math.Inf(1)); got != failedLatency {
		t.Errorf("capLatency(+Inf) = %g", got)
	}
}
