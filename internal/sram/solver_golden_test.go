package sram

import (
	"fmt"
	"sync"
	"testing"

	"finser/internal/deck"
	"finser/internal/rng"
)

// solverGoldenValues computes, at one supply voltage, every number the
// wide golden hash covers, in a fixed order:
//   - Qcrit on all three axes for each pulse shape, on wideSamples
//     process-variation samples of the nominal and aged cell in hold and
//     read mode;
//   - the I1 and I2 Qcrit of the canonical deck-built cell;
//   - the hold- and read-mode static noise margins.
func solverGoldenValues(vdd float64, seed uint64) ([]float64, error) {
	const wideSamples = 6
	aged, err := AgedShifts(DefaultBTI(), 10, 0.5)
	if err != nil {
		return nil, err
	}
	var out []float64
	qcrit := func(c *Cell, a Axis, shape PulseShape) error {
		q, err := c.CriticalCharge(a, 1e-18, 5e-14, shape)
		out = append(out, q)
		return err
	}
	src := rng.New(seed)
	for _, base := range []VthShifts{{}, aged} {
		for _, mode := range []CellMode{HoldMode, ReadMode} {
			for s := 0; s < wideSamples; s++ {
				// Redraw the rare sample that leaves a read-mode cell
				// read-unstable.
				var cell *Cell
				for cell == nil {
					shifts := base
					for r := Role(0); r < NumRoles; r++ {
						shifts[r] += tech().SigmaVth * src.Normal()
					}
					if cell, err = NewCellMode(tech(), vdd, shifts, mode); err != nil && mode == HoldMode {
						return nil, err
					}
				}
				for _, shape := range []PulseShape{ShapeRect, ShapeTriangle, ShapeDoubleExp} {
					for a := AxisI1; a < NumAxes; a++ {
						if err := qcrit(cell, a, shape); err != nil {
							return nil, fmt.Errorf("%v/%v sample %d shape %d %v: %w", base, mode, s, shape, a, err)
						}
					}
				}
			}
		}
	}
	dc, err := NewCellFromDeck(deck.SixTCellDeck(tech(), vdd), tech(), vdd)
	if err != nil {
		return nil, err
	}
	for _, a := range []Axis{AxisI1, AxisI2} {
		if err := qcrit(dc, a, ShapeRect); err != nil {
			return nil, fmt.Errorf("deck cell %v: %w", a, err)
		}
	}
	for _, mode := range []CellMode{HoldMode, ReadMode} {
		r, err := StaticNoiseMargin(tech(), vdd, VthShifts{}, mode, 0)
		if err != nil {
			return nil, fmt.Errorf("SNM %v: %w", mode, err)
		}
		out = append(out, r.SNM, r.Flip0, r.Flip1)
	}
	return out, nil
}

// TestSolverGoldenHash pins, bit for bit, the solver outputs every
// FinFET-stamping path feeds: Qcrit of nominal, aged, hold and read
// cells under every pulse shape, deck-built cell Qcrit and SNM, at 0.6,
// 0.8 and 1.1 V. It was recorded with central-difference device
// Jacobians and holds with the analytic ones.
func TestSolverGoldenHash(t *testing.T) {
	vdds := []float64{0.6, 0.8, 1.1}
	vals := make([][]float64, len(vdds))
	errs := make([]error, len(vdds))
	var wg sync.WaitGroup
	for i, vdd := range vdds {
		wg.Add(1)
		go func(i int, vdd float64) {
			defer wg.Done()
			vals[i], errs[i] = solverGoldenValues(vdd, 31+uint64(i))
		}(i, vdd)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%v V: %v", vdds[i], err)
		}
	}
	const want = "6d59358b16814fd6a9d8970c8b120f55644ee85aa3c6540ab1a1e6f4c36d7270"
	if got := floatHash(vals...); got != want {
		t.Errorf("solver hash %s, want %s", got, want)
	}
}
