package main

import (
	"context"
	"fmt"
	"time"

	"finser"
)

// flowDefaultConfig is one `serflow` run at its defaults: 0.8 V, 9×9, PV on
// with 200 samples, 30 000 particles per bin over 12 alpha and 16 proton
// bins, guard in warn mode, with the worker count pinned.
func flowDefaultConfig(seed uint64, workers int) finser.FlowConfig {
	return finser.FlowConfig{
		Vdd: 0.8, Rows: 9, Cols: 9,
		ProcessVariation: true, Samples: 200,
		ItersPerBin: 30000, AlphaBins: 12, ProtonBins: 16,
		Seed: seed, Workers: workers, Guard: finser.GuardWarn,
	}
}

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 3

// runFlowDefault is the flow-default workload: one caller runs
// finser.RunFlowCtx back to back, each call with its own seed, so no call
// can reuse another's characterization or FIT. Set-up is three warm-up
// flows at a reduced budget.
func runFlowDefault(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{}
	for i := 0; i < setupReps; i++ {
		cfg := flowDefaultConfig(deriveSeed(e.seed, 1, uint64(i)), e.workers)
		cfg.Samples, cfg.ItersPerBin = 8, 1000
		t0 := time.Now()
		if _, err := finser.RunFlowCtx(ctx, cfg); err != nil {
			return nil, fmt.Errorf("warm-up flow: %w", err)
		}
		out.setups = append(out.setups, since(t0))
	}

	// A traced run alternates untraced and traced flows, so the tracing
	// overhead is measured on the same inputs in the same process.
	var reg *finser.Metrics
	round := 1
	if e.trace {
		reg, round = finser.NewMetrics(), 2
	}
	traced := func(i int) bool { return e.trace && i%2 == 1 }
	var (
		last    *finser.FlowResult
		lastCfg finser.FlowConfig
		late    []float64
	)
	alloc, gc := memDelta(func() int {
		out.ops, late = closedLoop(e.seconds, round, func(i int) time.Duration {
			cfg := flowDefaultConfig(deriveSeed(e.seed, 2, uint64(i)), e.workers)
			if traced(i) {
				cfg.Obs = reg
			}
			out.attempted++
			span := cfg.Obs.StartSpan("bench/op")
			t0 := time.Now()
			res, err := finser.RunFlowCtx(ctx, cfg)
			d := time.Since(t0)
			span.End()
			if err != nil {
				out.fail("flow %d: %v", i, err)
				return d
			}
			if err := checkFlowDefault(res, flowDefaultRef); err != nil {
				out.fail("flow %d: %v", i, err)
			}
			if traced(i) {
				last, lastCfg = res, cfg
			}
			return d
		})
		return len(out.ops)
	})
	if !e.trace {
		return out, nil
	}
	if last == nil {
		return nil, fmt.Errorf("flow-default: no traced flow completed")
	}

	s := readSnapshot(reg)
	tracedOps := every(out.ops, traced)
	untracedOps := every(out.ops, func(i int) bool { return !traced(i) })
	m := metrics{}
	m.merge(sramLayers(s, e.workers))
	m.merge(coreLayers(s, len(tracedOps)))
	m.merge(splitLayers(s, s.total["bench/op"], len(tracedOps)))
	m.set("guard.violations", s.c("guard/violations"), "count")
	var use budgetUse
	use.add(lastCfg.ItersPerBin, last.Alpha, last.Proton)
	m.set("core.adaptive_budget_frac", use.frac(), "frac")
	m.merge(overhead(tracedOps, untracedOps))
	m.set("loadgen.late_p90_s", quantile(late, 0.9), "s")
	m.set("go.alloc_mb_per_op", alloc, "MB")
	m.set("go.gc_cycles_per_op", gc, "count")
	probes, err := layerProbes(ctx, e, last.Char, lastCfg, last.Alpha, last.Proton)
	if err != nil {
		return nil, err
	}
	m.merge(probes)
	if err := servingProbe(e, out, m); err != nil {
		return nil, err
	}
	out.layers = m
	return out, nil
}
