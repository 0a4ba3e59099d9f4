package sram

import (
	"testing"

	"finser/internal/finfet"
	"finser/internal/obs"
)

// BenchmarkStrikeTransient times one strike simulation, run to settle —
// the unit of work behind every characterization sample (the flip-sim
// layer) — and reports its accepted solver steps as transient_steps/op.
func BenchmarkStrikeTransient(b *testing.B) {
	cell, m := benchCell(b)
	var charges [NumAxes]float64
	charges[AxisI1] = 1e-16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.SimulateStrike(charges, ShapeRect); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Solver.TransientSteps.Value())/float64(b.N), "transient_steps/op")
}

// BenchmarkCriticalChargeBisection times one Qcrit extraction (the Qcrit
// layer) and reports the strike simulations and solver steps it takes as
// flip_sims/op and transient_steps/op.
func BenchmarkCriticalChargeBisection(b *testing.B) {
	cell, m := benchCell(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.CriticalCharge(AxisI1, 1e-18, 5e-14, ShapeRect); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.FlipSims.Value())/float64(b.N), "flip_sims/op")
	b.ReportMetric(float64(m.Solver.TransientSteps.Value())/float64(b.N), "transient_steps/op")
}

// benchCell builds the nominal 0.8 V cell with its counters attached.
func benchCell(b *testing.B) (*Cell, *Metrics) {
	cell, err := NewCell(finfet.Default14nmSOI(), 0.8, VthShifts{})
	if err != nil {
		b.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	cell.SetMetrics(m)
	return cell, m
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
