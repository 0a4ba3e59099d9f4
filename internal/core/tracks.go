package core

import (
	"finser/internal/geom"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/sram"
	"finser/internal/transport"
)

// TrackInfo is the per-particle detail used by visualization: the track's
// chord through the array bounds and the sensitive fins it charged.
type TrackInfo struct {
	Entry, Exit geom.Vec3
	StruckFins  []int // global fin indices (into Array().Fins())
	POF         float64
}

// SampleTracks runs n strikes at one energy and returns their geometric
// detail — the input for the SVG strike overlay.
func (e *Engine) SampleTracks(sp phys.Species, energyMeV float64, n int, seed uint64) []TrackInfo {
	src := rng.New(seed)
	out := make([]TrackInfo, 0, n)
	fins := e.arr.Fins()
	bounds := e.arr.Bounds()
	scr := e.getScratch()
	defer e.putScratch(scr)
	for i := 0; i < n; i++ {
		ray := e.sampleRay(src, sp)
		info := TrackInfo{Entry: ray.Origin}
		if tIn, tOut, ok := bounds.Intersect(ray); ok {
			info.Entry = ray.At(tIn)
			info.Exit = ray.At(tOut)
		} else {
			info.Exit = ray.Origin
		}
		scr.candidate = appendCandidateFins(e, ray, scr.candidate[:0])
		scr.beginCells()
		if candidate := scr.candidate; len(candidate) > 0 {
			boxes := e.candidateBoxes(scr, candidate)
			scr.deps = transport.TraceAppend(e.cfg.Transport, sp, energyMeV, ray, boxes, src, &scr.tr, scr.deps[:0])
			for _, d := range scr.deps {
				f := fins[candidate[d.Fin]]
				if _, sensitive := sram.SensitiveAxisForRole(f.Role, e.cfg.Pattern.Bit(f.Row, f.Col)); sensitive {
					info.StruckFins = append(info.StruckFins, candidate[d.Fin])
				}
			}
			e.accumulateCharges(scr, candidate, scr.deps)
			scr.sortTouched()
			pofs := scr.pofs[:0]
			for _, ci := range scr.touched {
				if p := e.providerFor(ci).POF(scr.cellQ[ci]); p > 0 {
					pofs = append(pofs, p)
				}
			}
			scr.pofs = pofs
			info.POF = combinePOFs(pofs, len(scr.touched)).pofTot
		}
		out = append(out, info)
	}
	return out
}
