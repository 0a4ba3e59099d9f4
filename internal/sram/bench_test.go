package sram

import (
	"testing"

	"finser/internal/finfet"
	"finser/internal/obs"
)

// BenchmarkStrikeTransient times one strike simulation, run to settle —
// the unit of work behind every characterization sample.
func BenchmarkStrikeTransient(b *testing.B) {
	cell, err := NewCell(finfet.Default14nmSOI(), 0.8, VthShifts{})
	if err != nil {
		b.Fatal(err)
	}
	var charges [NumAxes]float64
	charges[AxisI1] = 1e-16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.SimulateStrike(charges, ShapeRect); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriticalChargeBisection times one Qcrit extraction.
func BenchmarkCriticalChargeBisection(b *testing.B) {
	cell, err := NewCell(finfet.Default14nmSOI(), 0.8, VthShifts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.CriticalCharge(AxisI1, 1e-18, 5e-14, ShapeRect); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeSample times one 8-sample process-variation
// characterization at 0.8 V on one worker and reports its work as
// deterministic per-op counts: flip_sims/op (strike transients) and
// transient_steps/op (accepted solver steps). The counts do not depend on
// the machine, so a budget on them catches a return to full-window strikes
// or a re-added bisection axis.
func BenchmarkCharacterizeSample(b *testing.B) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	cfg := CharConfig{
		Tech: finfet.Default14nmSOI(), Vdd: 0.8,
		ProcessVariation: true, Samples: 8, Seed: 1, Workers: 1, Metrics: m,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.FlipSims.Value())/float64(b.N), "flip_sims/op")
	b.ReportMetric(float64(m.Solver.TransientSteps.Value())/float64(b.N), "transient_steps/op")
}

// BenchmarkPOFEvaluation times the hot array-MC path: POF lookup for a
// single-axis strike against a 1000-sample characterization.
func BenchmarkPOFEvaluation(b *testing.B) {
	ch, err := Characterize(CharConfig{
		Tech: finfet.Default14nmSOI(), Vdd: 0.8,
		ProcessVariation: true, Samples: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	med := ch.QcritQuantile(AxisI1, 0.5)
	var q [NumAxes]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[AxisI1] = med * (0.5 + float64(i%100)/100)
		_ = ch.POF(q)
	}
}

// BenchmarkPOFMultiAxis times the linear flip-surface path.
func BenchmarkPOFMultiAxis(b *testing.B) {
	ch, err := Characterize(CharConfig{
		Tech: finfet.Default14nmSOI(), Vdd: 0.8,
		ProcessVariation: true, Samples: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	med := ch.QcritQuantile(AxisI1, 0.5)
	q := [NumAxes]float64{med / 2, med / 2, med / 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.POF(q)
	}
}
