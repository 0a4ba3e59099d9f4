package finser

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// fitHash feeds one FIT result into h: the FITs, then every bin's point and
// (adaptive mode only) convergence record, as little-endian IEEE-754 bits.
func fitHash(h hash.Hash, r FITResult) {
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	n := func(v int) { f(float64(v)) }
	f(r.TotalFIT)
	f(r.SEUFIT)
	f(r.MBUFIT)
	f(r.TotalFITErr)
	f(r.MBUToSEU)
	for _, p := range r.Points {
		f(p.EnergyMeV)
		f(p.Tot)
		f(p.SEU)
		f(p.MBU)
		f(p.TotStdErr)
		n(p.Strikes)
		f(p.HitFrac)
	}
	for _, c := range r.Conv {
		f(c.RelErr)
		f(c.Tol)
		if c.Converged {
			n(1)
		} else {
			n(0)
		}
		n(c.Batches)
		n(c.StrikesSaved)
	}
}

// TestFlowGoldenHash pins the alpha and proton FIT results of one small
// flat and one small adaptive flow bit for bit: any change that moves a
// FIT, a bin's POF point or a convergence record fails here, so a
// refactor of the array engine or the flow proves it kept every number.
func TestFlowGoldenHash(t *testing.T) {
	cases := []struct {
		name   string
		relErr float64
		want   string
	}{
		{"flat", 0, "3c66868842d40aae50eac43d5dfa75eb0a5db22df21b9bd188aef3325671dbff"},
		{"adaptive", 0.1, "c607afd00e2f164f2bdeb49f470eb502341906b028cccbde37f7a2997733ec73"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := RunFlow(FlowConfig{
				Vdd: 0.8, ProcessVariation: true, Samples: 20, ItersPerBin: 2000,
				AlphaBins: 4, ProtonBins: 4, FITRelErr: tc.relErr, Seed: 7, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if (tc.relErr > 0) != (res.Alpha.Conv != nil) {
				t.Fatalf("relErr %g gave %d convergence records", tc.relErr, len(res.Alpha.Conv))
			}
			h := sha256.New()
			fitHash(h, res.Alpha)
			fitHash(h, res.Proton)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("flow hash %s, want %s", got, tc.want)
			}
		})
	}
}
