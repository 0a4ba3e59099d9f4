package finser

import "testing"

// Integration tests for the public API surface beyond the one-call flow:
// deposit-mode selection and the serialized grid LUT as a POF provider.

func TestDepositModeFacade(t *testing.T) {
	res := sharedFlow(t)
	lutEng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
		Char: res.Char, Transport: DefaultTransport(),
		Deposits: DepositLUT, LUTIters: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := POFCurve(lutEng, Alpha, []float64{1}, 8000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Tot <= 0 {
		t.Error("LUT deposit mode produced zero POF via the facade")
	}
}

func TestGridLUTFacade(t *testing.T) {
	res := sharedFlow(t)
	grid, err := BuildGridLUT(res.Char, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if grid.SupplyVoltage() != res.Char.Vdd {
		t.Error("grid LUT supply voltage mismatch")
	}
	// The serialized LUT drives the engine directly.
	eng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
		Char: grid, Transport: DefaultTransport(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := POFCurve(eng, Alpha, []float64{1}, 8000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Tot <= 0 {
		t.Error("grid-LUT-driven engine gave zero POF")
	}
}
