package sram

import (
	"finser/internal/circuit"
	"finser/internal/guard"
	"finser/internal/obs"
)

// Metrics is the circuit-level characterization's observability hook:
// variation samples completed, bisection probes, strike simulations, plus
// the underlying MNA solver's counters. Nil (the default) costs nothing —
// every consumer guards the field load, and the obs counters are
// nil-receiver no-ops.
type Metrics struct {
	// VariationSamples counts completed process-variation samples.
	VariationSamples *obs.Counter
	// BisectionSteps counts critical-charge bisection probes (each one a
	// strike transient).
	BisectionSteps *obs.Counter
	// FlipSims counts strike transient simulations.
	FlipSims *obs.Counter
	// Flips counts strike simulations that flipped the cell.
	Flips *obs.Counter
	// Solver carries the MNA solver counters shared by every cell built
	// under this characterization.
	Solver *circuit.Metrics
}

// NewMetrics registers the characterization counters on r under the "sram."
// prefix (and the solver's under "circuit."). Returns nil when r is nil.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		VariationSamples: r.Counter("sram.variation_samples"),
		BisectionSteps:   r.Counter("sram.bisection_steps"),
		FlipSims:         r.Counter("sram.flip_sims"),
		Flips:            r.Counter("sram.flips"),
		Solver:           circuit.NewMetrics(r),
	}
}

// SetMetrics attaches observability to the cell: strike-simulation counters
// on the cell itself and solver counters on its underlying circuit. A nil
// argument detaches both.
func (c *Cell) SetMetrics(m *Metrics) {
	c.metrics = m
	if m == nil {
		c.ckt.Metrics = nil
		return
	}
	c.ckt.Metrics = m.Solver
}

// SetGuard attaches invariant checking to the cell's underlying circuit:
// the transient solver trips the guard's finite-solution invariant if an
// accepted step contains NaN or Inf node voltages. Nil detaches.
func (c *Cell) SetGuard(g *guard.Guard) {
	c.ckt.Guard = g
}
