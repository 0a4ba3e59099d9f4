// Package sram implements the paper's circuit level (§4): a 6T SOI FinFET
// SRAM cell built on the MNA solver, single-event strike simulation,
// critical-charge extraction by bisection, and probability-of-failure (POF)
// characterization under threshold-voltage process variation — the data the
// paper stores in POF LUTs.
//
// Sensitive transistors. In hold mode with Q = 0 / QB = 1, three devices
// are OFF with |Vds| = Vdd and therefore collect radiation charge (the
// paper's Fig. 5a):
//
//	I1 — the pull-up PMOS on the "0" node (strike pulls Q up),
//	I2 — the pull-down NMOS on the "1" node (strike pulls QB down),
//	I3 — the pass-gate NMOS on the "0" node (strike pulls Q up from BL).
//
// I1 and I3 both inject into Q from an ideal Vdd source (the supply and the
// precharged bit line), so their critical charges are equal by
// construction: characterization bisects I1 and copies it to I3. Hold-mode
// strike transients end once the latch has settled (see SimulateStrike)
// instead of running the whole 200 ps window.
//
// POF model. For a single struck transistor, the flip threshold under
// process variation is the empirical distribution of its critical charge.
// For multi-transistor strikes, the package uses a linear flip surface
// Σ qᵢ/aᵢ ≥ 1 per variation sample (aᵢ = that sample's per-axis critical
// charges), validated against direct simulation by ValidateFlipSurface.
package sram

import (
	"fmt"
	"math"

	"finser/internal/circuit"
	"finser/internal/finfet"
)

// Role names the six transistors of the cell. "L" is the Q side, "R" the
// QB side.
type Role int

const (
	// PUL is the left (Q-side) pull-up PMOS.
	PUL Role = iota
	// PUR is the right (QB-side) pull-up PMOS.
	PUR
	// PDL is the left pull-down NMOS.
	PDL
	// PDR is the right pull-down NMOS.
	PDR
	// PGL is the left pass-gate NMOS.
	PGL
	// PGR is the right pass-gate NMOS.
	PGR
	// NumRoles is the number of transistor roles in a 6T cell.
	NumRoles
)

var roleNames = [NumRoles]string{"pu_l", "pu_r", "pd_l", "pd_r", "pg_l", "pg_r"}

// String implements fmt.Stringer.
func (r Role) String() string {
	if r >= 0 && r < NumRoles {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Axis indexes the paper's three sensitive strike currents for the
// canonical hold state Q = 0.
type Axis int

const (
	// AxisI1 is a strike on the Q-side pull-up (PUL).
	AxisI1 Axis = iota
	// AxisI2 is a strike on the QB-side pull-down (PDR).
	AxisI2
	// AxisI3 is a strike on the Q-side pass-gate (PGL).
	AxisI3
	// NumAxes is the number of sensitive strike currents.
	NumAxes
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisI1:
		return "I1(pu)"
	case AxisI2:
		return "I2(pd)"
	case AxisI3:
		return "I3(pg)"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// SensitiveRole maps a strike axis to the struck transistor for a cell
// holding Q = 0. (The Q = 1 state is the mirror image; the layout level
// performs that mirroring.)
func (a Axis) SensitiveRole() Role {
	switch a {
	case AxisI1:
		return PUL
	case AxisI2:
		return PDR
	case AxisI3:
		return PGL
	default:
		panic("sram: bad axis")
	}
}

// SensitiveAxisForRole returns the strike axis a struck transistor maps to
// for a given stored bit, and ok=false when the transistor is not
// radiation-sensitive in that state. bit=false means Q = 0 (the canonical
// characterized state).
func SensitiveAxisForRole(r Role, bit bool) (Axis, bool) {
	if bit {
		// Q = 1: mirror the cell left-right.
		switch r {
		case PUR:
			return AxisI1, true
		case PDL:
			return AxisI2, true
		case PGR:
			return AxisI3, true
		default:
			return 0, false
		}
	}
	switch r {
	case PUL:
		return AxisI1, true
	case PDR:
		return AxisI2, true
	case PGL:
		return AxisI3, true
	default:
		return 0, false
	}
}

// PulseShape selects the injected current waveform for strike simulation.
type PulseShape int

const (
	// ShapeRect is the paper's rectangular drift-current pulse.
	ShapeRect PulseShape = iota
	// ShapeTriangle is the triangular pulse of the shape-sensitivity study.
	ShapeTriangle
	// ShapeDoubleExp is the classic double-exponential SEU model.
	ShapeDoubleExp
)

// Cell is a 6T SRAM cell instance ready for strike simulation. Build one
// per (technology, Vdd, per-transistor Vth) combination; strike simulations
// reuse it.
type Cell struct {
	Tech finfet.Technology
	Vdd  float64

	ckt     *circuit.Circuit
	q, qb   circuit.Node
	vddNode circuit.Node
	blNode  circuit.Node
	init    circuit.Solution
	strikes [NumAxes]*settableWaveform
	metrics *Metrics // nil = uninstrumented (see SetMetrics)
	// holdMode is set for a cell built with its word line off, the only
	// condition in which SimulateStrike stops at settle.
	holdMode bool
}

// settableWaveform lets strike sources be re-armed between simulations
// without rebuilding the netlist.
type settableWaveform struct{ w circuit.Waveform }

// Value implements circuit.Waveform.
func (s *settableWaveform) Value(t float64) float64 {
	if s.w == nil {
		return 0
	}
	return s.w.Value(t)
}

// Breakpoints implements circuit.Waveform.
func (s *settableWaveform) Breakpoints() []float64 {
	if s.w == nil {
		return nil
	}
	return s.w.Breakpoints()
}

// VthShifts holds per-role threshold shifts (added to the nominal Vth) for
// one process-variation sample. The zero value is the nominal cell.
type VthShifts [NumRoles]float64

// NewCell builds the hold-mode 6T cell netlist (WL = 0, BL = BLB = Vdd) and
// solves its DC state with Q = 0, QB = Vdd.
func NewCell(tech finfet.Technology, vdd float64, shifts VthShifts) (*Cell, error) {
	if vdd <= 0 {
		return nil, fmt.Errorf("sram: non-positive vdd %g", vdd)
	}
	cell, err := buildCell(tech, vdd, shifts, 0)
	if err != nil {
		return nil, err
	}
	// Sanity: the intended hold state must actually be the converged one.
	if q, qb := cell.HoldVoltages(); q > 0.1*vdd || qb < 0.9*vdd {
		return nil, fmt.Errorf("sram: hold state not bistable: q=%.3g qb=%.3g", q, qb)
	}
	return cell, nil
}

// buildCell constructs the netlist with the given word-line voltage and
// solves the DC state with Q low, QB high.
func buildCell(tech finfet.Technology, vdd float64, shifts VthShifts, wlVoltage float64) (*Cell, error) {
	c := circuit.New()
	cell := &Cell{Tech: tech, Vdd: vdd, ckt: c, holdMode: wlVoltage == 0}

	cell.q = c.Node("q")
	cell.qb = c.Node("qb")
	cell.vddNode = c.Node("vdd")
	cell.blNode = c.Node("bl")
	blb := c.Node("blb")
	wl := c.Node("wl")

	c.AddVSource("vdd", cell.vddNode, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vbl", cell.blNode, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vblb", blb, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vwl", wl, circuit.Ground, circuit.DC(wlVoltage))

	params := func(role Role) finfet.Params {
		var p finfet.Params
		switch role {
		case PUL, PUR:
			p = finfet.ParamsFor(tech, finfet.PChannel, tech.PUFins())
		case PDL, PDR:
			p = finfet.ParamsFor(tech, finfet.NChannel, tech.PDFins())
		default:
			p = finfet.ParamsFor(tech, finfet.NChannel, tech.PGFins())
		}
		p.Vth += shifts[role]
		return p
	}

	// Cross-coupled inverters.
	c.AddDevice(finfet.NewTransistor("pu_l", params(PUL), cell.q, cell.qb, cell.vddNode))
	c.AddDevice(finfet.NewTransistor("pd_l", params(PDL), cell.q, cell.qb, circuit.Ground))
	c.AddDevice(finfet.NewTransistor("pu_r", params(PUR), cell.qb, cell.q, cell.vddNode))
	c.AddDevice(finfet.NewTransistor("pd_r", params(PDR), cell.qb, cell.q, circuit.Ground))
	// Pass gates (off in hold).
	c.AddDevice(finfet.NewTransistor("pg_l", params(PGL), cell.blNode, wl, cell.q))
	c.AddDevice(finfet.NewTransistor("pg_r", params(PGR), blb, wl, cell.qb))
	// Storage-node capacitance.
	c.AddCapacitor("cq", cell.q, circuit.Ground, tech.NodeCapF)
	c.AddCapacitor("cqb", cell.qb, circuit.Ground, tech.NodeCapF)

	// Strike sources for the three sensitive axes (armed per simulation).
	for a := AxisI1; a < NumAxes; a++ {
		cell.strikes[a] = &settableWaveform{}
	}
	// I1: from Vdd into Q (through the struck PUL).
	c.AddISource("i1", cell.vddNode, cell.q, cell.strikes[AxisI1])
	// I2: from QB into ground (through the struck PDR).
	c.AddISource("i2", cell.qb, circuit.Ground, cell.strikes[AxisI2])
	// I3: from BL into Q (through the struck PGL).
	c.AddISource("i3", cell.blNode, cell.q, cell.strikes[AxisI3])

	sol, err := c.OperatingPoint(map[circuit.Node]float64{
		cell.q:       0,
		cell.qb:      vdd,
		cell.vddNode: vdd,
		cell.blNode:  vdd,
		blb:          vdd,
	})
	if err != nil {
		return nil, fmt.Errorf("sram: cell DC failed: %w", err)
	}
	cell.init = sol
	return cell, nil
}

// HoldVoltages returns the DC hold voltages (q, qb).
func (c *Cell) HoldVoltages() (q, qb float64) {
	return c.init[c.q], c.init[c.qb]
}

// StrikeResult reports one simulated strike.
type StrikeResult struct {
	Flipped bool
	// QFinal and QBFinal are the storage-node voltages where the transient
	// ended: at settle (see SimulateStrike), or at the end of simWindow.
	QFinal  float64
	QBFinal float64
}

// simWindow is the longest a strike transient runs, in seconds. The cell's
// feedback resolves within a few ps, so 200 ps is decisively settled;
// SimulateStrike stops a hold-mode strike at settle long before it.
const simWindow = 200e-12

// settleMargin is the storage-node separation |V(Q)−V(QB)|, as a fraction
// of Vdd, that settles a hold-mode strike transient (see SimulateStrike).
// Past it the latch's regenerative feedback only drives the nodes further
// apart, so the sign of Q−QB — the flip outcome — is final.
const settleMargin = 0.5

// strikeStart is when the pulse begins, leaving a clean pre-strike
// baseline.
const strikeStart = 1e-12

// SimulateStrike injects the given charges (coulombs, indexed by axis) as
// pulses of the given shape and reports whether the cell flipped. A zero
// charge disables that axis. The pulse width is the paper's transit time
// τ = L²/(µe·Vdd).
//
// The transient stops at settle: at the second consecutive accepted step,
// at or past the last breakpoint of every armed strike waveform, whose
// separation V(Q)−V(QB) is at least settleMargin·Vdd in magnitude, on the
// same side as the step before. One such step is not enough: near the
// metastable point the growing backward-Euler step can swing the
// trajectory between the two basins for a few steps before it resolves.
//
// For ShapeDoubleExp the last breakpoint is T0+5τ_fall, where the residual
// current is below e⁻⁵·I0 (under 1% of peak) and under 1% of the charge is
// still to come.
//
// A strike with every charge zero runs the full simWindow, so hold-state
// drift stays observable. So does every strike on a cell not in hold mode:
// with the word line on, the pass gates pull both storage nodes toward the
// precharged bit lines, the latch's separatrix tilts away from Q = QB, and
// a read-mode strike at 0.6 V was measured passing the margin and still
// recovering. A deck-built cell's operating condition is opaque, so it
// runs the full window too.
func (c *Cell) SimulateStrike(charges [NumAxes]float64, shape PulseShape) (StrikeResult, error) {
	tau := c.Tech.TransitTime(c.Vdd)
	settleAt := -1.0 // last strike-waveform breakpoint; negative when none is armed
	for a := AxisI1; a < NumAxes; a++ {
		w := buildPulse(shape, charges[a], tau)
		c.strikes[a].w = w
		if w != nil {
			for _, bp := range w.Breakpoints() {
				settleAt = math.Max(settleAt, bp)
			}
		}
	}
	defer func() {
		for a := AxisI1; a < NumAxes; a++ {
			c.strikes[a].w = nil
		}
	}()

	spec := circuit.TransientSpec{
		TStop:    simWindow,
		InitStep: tau / 8,
		MaxStep:  simWindow / 40,
	}
	if settleAt >= 0 && c.holdMode {
		q, qb, margin := c.q, c.qb, settleMargin*c.Vdd
		prev := 0.0 // separation at the previous accepted step; 0 before settleAt
		spec.Stop = func(t float64, x circuit.Solution) bool {
			sep := 0.0
			if t >= settleAt {
				sep = x[q] - x[qb]
			}
			settled := math.Abs(sep) >= margin && math.Abs(prev) >= margin && (sep > 0) == (prev > 0)
			prev = sep
			return settled
		}
	}
	res, err := c.ckt.Transient(c.init, spec)
	if err != nil {
		return StrikeResult{}, fmt.Errorf("sram: strike transient: %w", err)
	}
	q, qb := res.Final(c.q), res.Final(c.qb)
	out := StrikeResult{Flipped: q > qb, QFinal: q, QBFinal: qb}
	if m := c.metrics; m != nil {
		m.FlipSims.Inc()
		if out.Flipped {
			m.Flips.Inc()
		}
	}
	return out, nil
}

// buildPulse constructs a charge-carrying pulse of the requested shape.
func buildPulse(shape PulseShape, charge, tau float64) circuit.Waveform {
	if charge <= 0 {
		return nil
	}
	switch shape {
	case ShapeRect:
		return circuit.RectPulse{T0: strikeStart, Width: tau, Amp: charge / tau}
	case ShapeTriangle:
		return circuit.TriPulse{T0: strikeStart, Width: 2 * tau, Amp: charge / tau}
	case ShapeDoubleExp:
		return circuit.DoubleExpWithCharge(strikeStart, tau/5, 2*tau, charge)
	default:
		panic("sram: unknown pulse shape")
	}
}

// CriticalCharge finds, by bisection in log-charge, the smallest charge on
// the given axis that flips the cell. It returns +Inf when even hi cannot
// flip the cell, and lo when lo already flips it.
func (c *Cell) CriticalCharge(axis Axis, lo, hi float64, shape PulseShape) (float64, error) {
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("sram: need 0 < lo < hi, got %g, %g", lo, hi)
	}
	flipAt := func(q float64) (bool, error) {
		if m := c.metrics; m != nil {
			m.BisectionSteps.Inc()
		}
		var ch [NumAxes]float64
		ch[axis] = q
		r, err := c.SimulateStrike(ch, shape)
		return r.Flipped, err
	}
	hiFlips, err := flipAt(hi)
	if err != nil {
		return 0, err
	}
	if !hiFlips {
		return math.Inf(1), nil
	}
	loFlips, err := flipAt(lo)
	if err != nil {
		return 0, err
	}
	if loFlips {
		return lo, nil
	}
	// Log bisection to ~1% resolution.
	for math.Log(hi/lo) > 0.01 {
		mid := math.Sqrt(lo * hi)
		f, err := flipAt(mid)
		if err != nil {
			return 0, err
		}
		if f {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}
