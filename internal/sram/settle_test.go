package sram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"finser/internal/rng"
)

// floatHash is a SHA-256 over the values of every slice, in order, as
// little-endian IEEE-754 bits.
func floatHash(vals ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// axisHash is floatHash over every per-sample critical charge, axis by
// axis.
func axisHash(ch *Characterization) string { return floatHash(ch.Axis[:]...) }

// TestCharacterizeGoldenHash pins a characterization bit for bit. The hash
// was recorded before strike transients stopped at settle and before I3
// stopped being bisected separately, so it proves both cuts left every
// critical charge unchanged.
func TestCharacterizeGoldenHash(t *testing.T) {
	ch, err := Characterize(CharConfig{
		Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 40, Seed: 7, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "b8b512ba7c06fb6b1aa39c28188ba8e9aa2bf4ad3be2be9eb2a519bdf30ac82e"
	if got := axisHash(ch); got != want {
		t.Errorf("characterization hash %s, want %s", got, want)
	}
}

// fullWindowStrike is SimulateStrike without the settle stop: the
// reference every early-stopped decision must agree with.
func (c *Cell) fullWindowStrike(charges [NumAxes]float64, shape PulseShape) (StrikeResult, error) {
	tau := c.Tech.TransitTime(c.Vdd)
	for a := AxisI1; a < NumAxes; a++ {
		c.strikes[a].w = buildPulse(shape, charges[a], tau)
	}
	defer func() {
		for a := AxisI1; a < NumAxes; a++ {
			c.strikes[a].w = nil
		}
	}()
	return c.runArmed()
}

// TestSettleDecisionAgreement checks that stopping a strike transient at
// settle never changes its flip decision. It compares SimulateStrike with
// the full 200 ps window at charges straddling each axis's critical charge
// (inside the bisection's 1% resolution) and at the bracket ends, over
// every axis, Vdd, pulse shape and cell kind, each on its own process-
// variation sample.
func TestSettleDecisionAgreement(t *testing.T) {
	aged, err := AgedShifts(DefaultBTI(), 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name string
		base VthShifts
		mode CellMode
	}{{"nominal", VthShifts{}, HoldMode}, {"aged", aged, HoldMode}, {"read", VthShifts{}, ReadMode}}
	const lo, hi = 1e-18, 5e-14
	for i, vdd := range []float64{0.6, 0.8, 1.1} {
		src := rng.New(13 + uint64(i))
		t.Run(fmt.Sprintf("%vV", vdd), func(t *testing.T) {
			t.Parallel()
			for _, shape := range []PulseShape{ShapeRect, ShapeTriangle, ShapeDoubleExp} {
				for _, k := range kinds {
					// A fresh variation sample per case (27 in all); redraw
					// the rare one that leaves a read-mode cell read-unstable.
					var cell *Cell
					for cell == nil {
						shifts := k.base
						for r := Role(0); r < NumRoles; r++ {
							shifts[r] += tech().SigmaVth * src.Normal()
						}
						var err error
						if cell, err = NewCellMode(tech(), vdd, shifts, k.mode); err != nil && k.mode == HoldMode {
							t.Fatal(err)
						}
					}
					for a := AxisI1; a < NumAxes; a++ {
						name := fmt.Sprintf("shape %d/%s/%v", shape, k.name, a)
						qc, err := cell.CriticalCharge(a, lo, hi, shape)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if math.IsInf(qc, 1) {
							t.Fatalf("%s: unflippable", name)
						}
						for _, q := range []float64{lo, qc * 0.98, qc * 0.995, qc * 1.005, qc * 1.02, hi} {
							early, err := cell.SimulateStrike(chargeOn(a, q), shape)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							full, err := cell.fullWindowStrike(chargeOn(a, q), shape)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if early.Flipped != full.Flipped {
								t.Errorf("%s at %.4g C: settled flip=%v, full window flip=%v",
									name, q, early.Flipped, full.Flipped)
							}
						}
					}
				}
			}
		})
	}
}

// TestSettleHardCases replays strikes whose trajectories pass Vdd/2 of
// separation after the pulse and still end unflipped in the full window.
// Each one breaks a simpler settle rule.
func TestSettleHardCases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		vdd    float64
		shifts VthShifts
		mode   CellMode
		shape  PulseShape
		charge float64 // on AxisI2
	}{
		// Backward Euler swings between the basins for a few steps near
		// the metastable point: one step past the margin is not settled.
		{"basin swing", 0.7, VthShifts{-0.03102315783416677, -0.07921978194477168, -0.0138000157304113,
			-4.3746723269900234e-05, 0.05880394051925531, 0.07744400835499561}, HoldMode, ShapeDoubleExp, 9.10823e-17},
		// With the word line on, the latch recovers from past the margin,
		// so read-mode strikes run the full window.
		{"read recovery", 0.6, VthShifts{0.12413444952064767, -0.1278317053209957, -0.024621493332601604,
			0.02376713349397044, -0.03002806128460034, 0.03709680546247531}, ReadMode, ShapeRect, 1.415e-16},
	} {
		cell, err := NewCellMode(tech(), tc.vdd, tc.shifts, tc.mode)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		full, err := cell.fullWindowStrike(chargeOn(AxisI2, tc.charge), tc.shape)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if full.Flipped {
			t.Fatalf("%s: full window flipped; the case no longer tests the settle rule", tc.name)
		}
		early, err := cell.SimulateStrike(chargeOn(AxisI2, tc.charge), tc.shape)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if early.Flipped {
			t.Errorf("%s: settled run flipped, full window did not", tc.name)
		}
	}
}

// TestI3EqualsI1 pins the model property characterization relies on: the
// pass-gate strike on Q (I3) has exactly the pull-up strike's (I1) critical
// charge, because both are ideal-source currents into the same node.
func TestI3EqualsI1(t *testing.T) {
	aged, err := AgedShifts(DefaultBTI(), 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(21)
	for _, vdd := range []float64{0.6, 0.8, 1.1} {
		for _, base := range []VthShifts{{}, aged} {
			shifts := base
			for r := Role(0); r < NumRoles; r++ {
				shifts[r] += tech().SigmaVth * src.Normal()
			}
			c := mustCell(t, vdd, shifts)
			for _, shape := range []PulseShape{ShapeRect, ShapeDoubleExp} {
				q1, err := c.CriticalCharge(AxisI1, 1e-18, 5e-14, shape)
				if err != nil {
					t.Fatal(err)
				}
				q3, err := c.CriticalCharge(AxisI3, 1e-18, 5e-14, shape)
				if err != nil {
					t.Fatal(err)
				}
				if q1 != q3 {
					t.Errorf("%v V shape %d: Qcrit I3 %v != I1 %v", vdd, shape, q3, q1)
				}
			}
		}
	}
	ch, err := Characterize(CharConfig{Tech: tech(), Vdd: 0.7, ProcessVariation: true, Samples: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ch.Axis[AxisI1] {
		if ch.Axis[AxisI3][i] != ch.Axis[AxisI1][i] {
			t.Errorf("sample %d: characterized I3 %v != I1 %v", i, ch.Axis[AxisI3][i], ch.Axis[AxisI1][i])
		}
	}
}
