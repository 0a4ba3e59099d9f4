package main

import (
	"math"
	"strings"

	"finser"
	"finser/internal/sram"
)

// snapshot indexes an obs snapshot for the per-layer arithmetic below.
type snapshot struct {
	counters map[string]int64
	total    map[string]float64 // span path → total seconds
	count    map[string]float64 // span path → count
	binMean  []float64          // mean seconds of each FIT bin span path
}

func readSnapshot(reg *finser.Metrics) snapshot {
	s := reg.Snapshot()
	out := snapshot{counters: s.Counters, total: map[string]float64{}, count: map[string]float64{}}
	for _, sp := range s.Spans {
		out.total[sp.Path] += sp.TotalSeconds
		out.count[sp.Path] += float64(sp.Count)
		if strings.HasPrefix(sp.Path, "fit/") && strings.Contains(sp.Path, "/bin") && sp.Count > 0 {
			out.binMean = append(out.binMean, sp.TotalSeconds/float64(sp.Count))
		}
	}
	return out
}

func (s snapshot) c(name string) float64 { return float64(s.counters[name]) }

// charSpan is the flow's characterization stage span, as RunFlowCtx and
// CharacterizeFlowCtx both record it.
const charSpan = "flow/characterize"

// sramLayers derives the sram and circuit metrics from the registry that
// saw the workload's characterizations. charWorkers is the worker count
// each characterization ran with, which turns stage wall time into busy
// time per transient.
func sramLayers(s snapshot, charWorkers int) metrics {
	m := metrics{}
	chars := s.count[charSpan]
	charS := s.total[charSpan]
	sims := s.c("sram.flip_sims")
	steps := s.c("circuit.transient_steps")
	m.set("sram.characterize_s", ratio(charS, chars), "s")
	m.set("sram.flip_sims", ratio(sims, chars), "count")
	m.set("sram.sims_per_qcrit", ratio(s.c("sram.bisection_steps"), s.c("sram.variation_samples")*float64(sram.NumAxes)), "count")
	m.set("sram.flip_frac", ratio(s.c("sram.flips"), sims), "frac")
	m.set("circuit.transient_steps", ratio(steps, chars), "count")
	m.set("circuit.steps_per_sim", ratio(steps, sims), "count")
	m.set("circuit.newton_per_step", ratio(s.c("circuit.newton_iters"), steps), "count")
	m.set("circuit.failed_solves", ratio(s.c("circuit.failed_solves"), chars), "count")
	m.set("circuit.transient_ms", 1e3*ratio(charS*float64(charWorkers), sims), "ms")
	return m
}

// coreLayers derives the core and transport metrics from the registry that
// saw the workload's FIT integrations; ops is the number of timed
// operations they belong to.
func coreLayers(s snapshot, ops int) metrics {
	m := metrics{}
	n := float64(ops)
	fitA, fitP := s.total["flow/fit-alpha"], s.total["flow/fit-proton"]
	strikes := s.c("core.particles_generated")
	rays := s.c("transport.rays_traced")
	m.set("core.fit_alpha_s", ratio(fitA, n), "s")
	m.set("core.fit_proton_s", ratio(fitP, n), "s")
	m.set("core.strikes", ratio(strikes, n), "count")
	m.set("core.strikes_per_s", ratio(strikes, fitA+fitP), "1/s")
	m.set("core.worker_busy_frac", ratio(s.c("core.worker_busy_ns"), s.c("core.wall_ns")), "frac")
	m.set("core.bin_s_max_over_mean", ratio(maxOf(s.binMean), mean(s.binMean)), "ratio")
	m.set("core.bin_s_mean", mean(s.binMean), "s")
	m.set("transport.rays", ratio(rays, n), "count")
	m.set("transport.miss_frac", ratio(s.c("core.misses"), strikes), "frac")
	m.set("transport.intersections_per_ray", ratio(s.c("transport.fin_intersections"), rays), "count")
	return m
}

// splitLayers reports how the timed wall divides between characterization
// (sram, circuit, finfet) and FIT (core, transport), and how far the three
// stage spans are from covering it. opWall is the summed wall time of the
// ops operations the registry saw; their mean is reported as the base.
func splitLayers(s snapshot, opWall float64, ops int) metrics {
	m := metrics{}
	m.set("split.op_wall_s", ratio(opWall, float64(ops)), "s")
	charS := s.total[charSpan]
	fitS := s.total["flow/fit-alpha"] + s.total["flow/fit-proton"]
	m.set("split.sram_share", ratio(charS, opWall), "frac")
	m.set("split.fit_share", ratio(fitS, opWall), "frac")
	m.set("split.stage_gap_frac", ratio(math.Abs(charS+fitS-opWall), opWall), "frac")
	return m
}

// dupAxisFrac is the share of variation samples whose I1 and I3 critical
// charges are equal (ROADMAP 1a: both inject into node Q).
func dupAxisFrac(chars ...*finser.Characterization) float64 {
	same, n := 0, 0
	for _, ch := range chars {
		for i := range ch.Axis[sram.AxisI1] {
			n++
			if ch.Axis[sram.AxisI1][i] == ch.Axis[sram.AxisI3][i] {
				same++
			}
		}
	}
	return ratio(float64(same), float64(n))
}

// budgetUse accumulates the particles FIT results spent against their
// flat budget; frac is 1 for flat results and below 1 when adaptive bins
// stopped early.
type budgetUse struct{ spent, budget float64 }

func (b *budgetUse) add(itersPerBin int, rs ...finser.FITResult) {
	for _, r := range rs {
		for _, p := range r.Points {
			b.spent += float64(p.Strikes)
			b.budget += float64(itersPerBin)
		}
	}
}

func (b budgetUse) frac() float64 { return ratio(b.spent, b.budget) }

// overhead reports the traced operations' median wall against the untraced
// median, with the untraced median as its base.
func overhead(traced, untraced []float64) metrics {
	m := metrics{}
	m.set("obs.trace_overhead_frac", ratio(median(traced), median(untraced))-1, "frac")
	m.set("obs.untraced_op_s", median(untraced), "s")
	return m
}
