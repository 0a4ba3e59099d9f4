package core

import (
	"math"
	"testing"

	"finser/internal/rng"
	"finser/internal/stats"
)

// TestBinEstimatorPoolsBatches: folding batch summaries into a
// BinEstimator must give the mean and standard error of one Welford pass
// over the concatenated per-strike stream, and strike-weighted means of
// the secondary channels.
func TestBinEstimatorPoolsBatches(t *testing.T) {
	src := rng.New(11)
	var est BinEstimator
	var all stats.Welford
	var sumSEU, sumMBU, sumHits float64
	total := 0
	for k, n := range []int{1, 37, 400, 2, 1000, 93} {
		var w stats.Welford
		var seu, mbu, hits float64
		for i := 0; i < n; i++ {
			x := 0.0
			if src.Float64() < 0.3 { // most strikes miss, as in a real bin
				x = src.Float64()
			}
			w.Add(x)
			all.Add(x)
			seu += 0.8 * x
			mbu += 0.2 * x
			if x > 0 {
				hits++
			}
		}
		nf := float64(n)
		est.AddBatch(POFPoint{
			EnergyMeV: 2, Tot: w.Mean(), TotStdErr: w.StdErr(), Strikes: n,
			SEU: seu / nf, MBU: mbu / nf, HitFrac: hits / nf,
		})
		sumSEU, sumMBU, sumHits = sumSEU+seu, sumMBU+mbu, sumHits+hits
		total += n
		if est.Batches() != k+1 || est.Strikes() != total {
			t.Fatalf("after batch %d: %d batches, %d strikes; want %d, %d", k, est.Batches(), est.Strikes(), k+1, total)
		}
		if !nearlyEqual(est.Mean(), all.Mean()) || !nearlyEqual(est.StdErr(), all.StdErr()) {
			t.Fatalf("after batch %d: mean %v ± %v, single pass %v ± %v", k, est.Mean(), est.StdErr(), all.Mean(), all.StdErr())
		}
	}
	pt := est.Point()
	tf := float64(total)
	if pt.EnergyMeV != 2 || pt.Strikes != total || pt.Tot != est.Mean() || pt.TotStdErr != est.StdErr() {
		t.Errorf("point %+v disagrees with the estimator", pt)
	}
	if !nearlyEqual(pt.SEU, sumSEU/tf) || !nearlyEqual(pt.MBU, sumMBU/tf) || !nearlyEqual(pt.HitFrac, sumHits/tf) {
		t.Errorf("pooled channels %v/%v/%v, want %v/%v/%v", pt.SEU, pt.MBU, pt.HitFrac, sumSEU/tf, sumMBU/tf, sumHits/tf)
	}
	if !nearlyEqual(est.RelErr(), all.StdErr()/all.Mean()) {
		t.Errorf("rel err %v, want %v", est.RelErr(), all.StdErr()/all.Mean())
	}
	var empty BinEstimator
	if empty.Point() != (POFPoint{}) || empty.RelErr() != 0 {
		t.Error("zero estimator is not empty")
	}
}

// nearlyEqual compares pooled and single-pass moments up to summation-order
// rounding.
func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
