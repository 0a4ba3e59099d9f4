package main

import (
	"context"
	"fmt"
	"time"

	"finser"
)

// sweepVdds are the two ends of the Fig. 9 sweep.
var sweepVdds = [2]float64{0.7, 1.1}

// sweepRelErr is the adaptive pass's FITRelErr, against the same flat
// budget as the flat pass.
const sweepRelErr = 0.03

// fitSweepConfig is one fit-sweep pass: 20 PV samples for the set-up
// characterization, 300 000 particles per bin for the FIT.
func fitSweepConfig(vdd float64, seed uint64, workers int) finser.FlowConfig {
	return finser.FlowConfig{
		Vdd: vdd, Rows: 9, Cols: 9,
		ProcessVariation: true, Samples: 20,
		ItersPerBin: 300000, AlphaBins: 12, ProtonBins: 16,
		Seed: seed, Workers: workers, Guard: finser.GuardWarn,
	}
}

// runFitSweep is the fit-sweep workload. Set-up characterizes the cell at
// 0.7 V and 1.1 V (finser.CharacterizeFlowCtx). Each timed operation is one
// voltage point: finser.RunFlowWithCharCtx flat, then adaptive, on that
// voltage's characterization, each with a fresh seed. The operations
// alternate between the two voltages.
func runFitSweep(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{}
	var setupReg, opReg *finser.Metrics
	if e.trace {
		setupReg, opReg = finser.NewMetrics(), finser.NewMetrics()
	}
	var chars [len(sweepVdds)]*finser.Characterization
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for k, v := range sweepVdds {
			cfg := fitSweepConfig(v, deriveSeed(e.seed, 1, uint64(k)), e.workers)
			cfg.Obs = setupReg
			ch, err := finser.CharacterizeFlowCtx(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("set-up characterization at %g V: %w", v, err)
			}
			chars[k] = ch
		}
		out.setups = append(out.setups, since(t0))
	}

	// Operations run in rounds that visit both voltages. A traced round
	// goes untraced, traced, untraced, traced over 0.7, 0.7, 1.1, 1.1 V, so
	// each traced point has an untraced twin at the same voltage.
	vddIndex := func(i int) int { return i % 2 }
	traced := func(int) bool { return false }
	round := 2
	if e.trace {
		vddIndex = func(i int) int { return (i / 2) % 2 }
		traced = func(i int) bool { return i%2 == 1 }
		round = 4
	}
	type point struct{ flat, tol *finser.FlowResult }
	var (
		prev    [len(sweepVdds)]*point
		last    *point
		lastK   int
		lastCfg finser.FlowConfig
		use     budgetUse
		late    []float64
	)
	alloc, gc := memDelta(func() int {
		out.ops, late = closedLoop(e.seconds, round, func(i int) time.Duration {
			k := vddIndex(i)
			cfg := fitSweepConfig(sweepVdds[k], deriveSeed(e.seed, 2, uint64(i)), e.workers)
			tolCfg := cfg
			tolCfg.FITRelErr, tolCfg.Seed = sweepRelErr, deriveSeed(e.seed, 3, uint64(i))
			if traced(i) {
				cfg.Obs, tolCfg.Obs = opReg, opReg
			}
			out.attempted++
			span := cfg.Obs.StartSpan("bench/op")
			t0 := time.Now()
			flat, err := finser.RunFlowWithCharCtx(ctx, cfg, chars[k])
			var tol *finser.FlowResult
			if err == nil {
				tol, err = finser.RunFlowWithCharCtx(ctx, tolCfg, chars[k])
			}
			d := time.Since(t0)
			span.End()
			if err != nil {
				out.fail("point %d at %g V: %v", i, sweepVdds[k], err)
				return d
			}
			p := &point{flat, tol}
			bad := checkAgree(flat, tol)
			prev[k] = p
			if bad == nil && prev[0] != nil && prev[1] != nil {
				if bad = checkVddOrder(prev[0].flat, prev[1].flat); bad == nil {
					bad = checkVddOrder(prev[0].tol, prev[1].tol)
				}
			}
			if bad != nil {
				out.fail("point %d at %g V: %v", i, sweepVdds[k], bad)
			}
			if traced(i) {
				last, lastK, lastCfg = p, k, tolCfg
				use.add(tolCfg.ItersPerBin, tol.Alpha, tol.Proton)
			}
			return d
		})
		return len(out.ops)
	})
	if !e.trace {
		return out, nil
	}
	if last == nil {
		return nil, fmt.Errorf("fit-sweep: no traced point completed")
	}

	ops := every(out.ops, traced)
	s := readSnapshot(opReg)
	setup := readSnapshot(setupReg)
	m := metrics{}
	m.merge(sramLayers(setup, e.workers))
	m.merge(coreLayers(s, len(ops)))
	m.merge(splitLayers(s, s.total["bench/op"], len(ops)))
	m.set("guard.violations", s.c("guard/violations")+setup.c("guard/violations"), "count")
	m.set("core.adaptive_budget_frac", use.frac(), "frac")
	m.merge(overhead(ops, every(out.ops, func(i int) bool { return !traced(i) })))
	m.set("loadgen.late_p90_s", quantile(late, 0.9), "s")
	m.set("go.alloc_mb_per_op", alloc, "MB")
	m.set("go.gc_cycles_per_op", gc, "count")
	probes, err := layerProbes(ctx, e, chars[lastK], lastCfg, last.tol.Alpha, last.tol.Proton)
	if err != nil {
		return nil, err
	}
	m.merge(probes)
	m.set("sram.dup_axis_frac", dupAxisFrac(chars[:]...), "frac")
	if err := servingProbe(e, out, m); err != nil {
		return nil, err
	}
	out.layers = m
	return out, nil
}
