package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"finser"
	"finser/internal/checkpoint"
	"finser/internal/events"
	"finser/internal/geom"
	"finser/internal/journal"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/sram"
	"finser/internal/transport"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// timePer runs fn in rounds until at least minWall has passed and returns
// the mean wall time of one call, in seconds. fn reports how many calls a
// round made.
func timePer(minWall time.Duration, fn func() int) float64 {
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < minWall {
		calls += fn()
	}
	return since(t0) / float64(calls)
}

// probeCell times Cell.SimulateStrike and Cell.CriticalCharge on cells
// built from the characterization's own Vth shifts: strikes alternate just
// below and just above each sample's I1 critical charge, so both outcomes
// are simulated.
func probeCell(ch *finser.Characterization) (flipMs, qcritMs float64, err error) {
	tech := finser.Default14nmSOI()
	picks := spread(len(ch.Shifts), 4)
	cells := make([]*sram.Cell, len(picks))
	for k, i := range picks {
		if cells[k], err = sram.NewCell(tech, ch.Vdd, ch.Shifts[i]); err != nil {
			return 0, 0, fmt.Errorf("probe cell: %w", err)
		}
	}
	var sims []float64
	for k, i := range picks {
		q := ch.Axis[sram.AxisI1][i]
		if math.IsInf(q, 1) {
			q = 1e-15
		}
		for _, f := range []float64{0.8, 1.25, 0.8, 1.25, 0.8, 1.25} {
			var charges [sram.NumAxes]float64
			charges[sram.AxisI1] = q * f
			t0 := time.Now()
			r, err := cells[k].SimulateStrike(charges, sram.ShapeRect)
			sims = append(sims, since(t0))
			if err != nil {
				return 0, 0, fmt.Errorf("probe flip sim: %w", err)
			}
			sink += r.QFinal
		}
	}
	var roots []float64
	for k := range picks[:2] {
		for a := sram.AxisI1; a < sram.NumAxes; a++ {
			t0 := time.Now()
			q, err := cells[k].CriticalCharge(a, 1e-18, 5e-14, sram.ShapeRect)
			roots = append(roots, since(t0))
			if err != nil {
				return 0, 0, fmt.Errorf("probe qcrit: %w", err)
			}
			sink += q
		}
	}
	return 1e3 * median(sims), 1e3 * median(roots), nil
}

// spread picks up to k indices evenly over [0, n).
func spread(n, k int) []int {
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// probePOF times Characterization.POF (the lookup the FIT loop uses) and
// GridLUT.POF (the paper-format table built from the same
// characterization) on one set of charge vectors: one to three struck axes,
// each charge log-uniform within a factor e of that axis's median Qcrit.
func probePOF(ch *finser.Characterization, seed uint64) (charNs, gridNs float64, err error) {
	grid, err := finser.BuildGridLUT(ch, 0, 0, 0, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("probe gridlut: %w", err)
	}
	src := rng.New(seed)
	qs := make([][sram.NumAxes]float64, 4096)
	for i := range qs {
		axes := [sram.NumAxes]sram.Axis{sram.AxisI1, sram.AxisI2, sram.AxisI3}
		for j := len(axes) - 1; j > 0; j-- {
			k := src.Intn(j + 1)
			axes[j], axes[k] = axes[k], axes[j]
		}
		for _, a := range axes[:1+src.Intn(len(axes))] {
			qs[i][a] = ch.QcritQuantile(a, 0.5) * math.Exp(src.Uniform(-1, 1))
		}
	}
	round := func(p finser.POFProvider) func() int {
		return func() int {
			s := 0.0
			for _, q := range qs {
				s += p.POF(q)
			}
			sink += s
			return len(qs)
		}
	}
	charNs = 1e9 * timePer(150*time.Millisecond, round(ch))
	gridNs = 1e9 * timePer(150*time.Millisecond, round(grid))
	return charNs, gridNs, nil
}

// probeTrace times transport.TraceAppend on the engine's fins: rays enter
// the array's top face with the alpha cosine law and the alpha bin energies,
// as the engine draws them. The engine itself passes only the fins its
// broad phase selects, so this is the cost of tracing one ray against the
// whole 9×9 array.
func probeTrace(ch *finser.Characterization, seed uint64) (float64, error) {
	eng, err := finser.NewEngine(finser.EngineConfig{Tech: finser.Default14nmSOI(), Rows: 9, Cols: 9, Char: ch})
	if err != nil {
		return 0, fmt.Errorf("probe trace: %w", err)
	}
	spec, err := finser.NewAlphaSpectrum(finser.DefaultAlphaRate)
	if err != nil {
		return 0, err
	}
	bins, err := finser.Bins(spec, 0.5, 10, 12)
	if err != nil {
		return 0, err
	}
	boxes, bounds := eng.Array().Boxes(), eng.Array().Bounds()
	cfg := finser.DefaultTransport()
	src := rng.New(seed)
	var scr transport.TraceScratch
	var out []transport.Deposit
	k := 0
	return 1e9 * timePer(150*time.Millisecond, func() int {
		const n = 2048
		for i := 0; i < n; i++ {
			ray := rayFrom(src, bounds)
			out = transport.TraceAppend(cfg, phys.Alpha, bins[k%len(bins)].Rep, ray, boxes, src, &scr, out[:0])
			k++
			sink += float64(len(out))
		}
		return n
	}), nil
}

// rayFrom draws a particle as the engine does for alpha: a uniform point on
// the array's top face and a cosine-law direction.
func rayFrom(src *rng.Source, bounds geom.AABB) geom.Ray {
	return geom.Ray{Origin: src.PointOnTopFace(bounds), Dir: src.CosineLawDirection()}
}

// probeEvents times events.Stream.Publish of a progress event on a stream
// with no subscribers, the common case for a job nobody is watching.
func probeEvents() float64 {
	s := events.NewStream(0, nil)
	defer s.Close()
	e := events.Event{Type: events.TypeProgress, Job: "job-1", Stage: "characterize", Total: 200}
	return 1e9 * timePer(150*time.Millisecond, func() int {
		const n = 4096
		for i := 0; i < n; i++ {
			e.Done = int64(i)
			e.TimeMs = 0
			s.Publish(e)
		}
		return n
	})
}

// probeJournal times journal.Append (frame, write and fsync) of job state
// records, returning the median in milliseconds.
func probeJournal(dir string) (float64, error) {
	j, _, _, err := journal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return 0, fmt.Errorf("probe journal: %w", err)
	}
	defer j.Close()
	var ts []float64
	for i := 0; i < 24; i++ {
		rec := journal.Record{Kind: journal.KindState, Job: fmt.Sprintf("job-%d", i), State: "running", TimeMs: time.Now().UnixMilli()}
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			return 0, fmt.Errorf("probe journal: %w", err)
		}
		ts = append(ts, since(t0))
	}
	return 1e3 * median(ts), nil
}

// binState mirrors the per-species FIT state the engine saves after every
// completed energy bin.
type binState struct {
	ItersPerBin int               `json:"iters_per_bin"`
	Seeds       []uint64          `json:"seeds"`
	Points      []finser.POFPoint `json:"points"`
	RelErr      float64           `json:"rel_err,omitempty"`
	Conv        []finser.BinConv  `json:"conv,omitempty"`
}

// probeCheckpoint replays one operation's bins through checkpoint.Store.Save
// as the engine does (one save per completed bin, each rewriting the whole
// file). It returns the median save time in milliseconds, the number of
// saves and the bytes written across them.
func probeCheckpoint(dir string, itersPerBin int, relErr float64, rs ...finser.FITResult) (saveMs, saves, bytes float64, err error) {
	path := filepath.Join(dir, "probe.ck.json")
	st, err := checkpoint.Create(path, "finbench-probe")
	if err != nil {
		return 0, 0, 0, fmt.Errorf("probe checkpoint: %w", err)
	}
	var ts []float64
	for _, r := range rs {
		state := binState{ItersPerBin: itersPerBin, Seeds: make([]uint64, len(r.Points)), RelErr: relErr}
		for i, p := range r.Points {
			state.Points = append(state.Points, p)
			if i < len(r.Conv) {
				state.Conv = append(state.Conv, r.Conv[i])
			}
			t0 := time.Now()
			if err := st.Save(fmt.Sprintf("vdd%g/%v", r.Vdd, r.Species), state); err != nil {
				return 0, 0, 0, fmt.Errorf("probe checkpoint: %w", err)
			}
			ts = append(ts, since(t0))
			fi, err := os.Stat(path)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("probe checkpoint: %w", err)
			}
			bytes += float64(fi.Size())
		}
	}
	return 1e3 * median(ts), float64(len(ts)), bytes, nil
}

// probeWorkerDep runs the same FIT at nproc workers and at one worker on
// one characterization and returns the relative difference of the summed
// alpha and proton FIT (ROADMAP 2: results should not depend on the worker
// count), with the nproc-worker FIT as its base.
func probeWorkerDep(ctx context.Context, cfg finser.FlowConfig, ch *finser.Characterization, nproc int) (rel, fit float64, err error) {
	total := func(workers int) (float64, error) {
		c := cfg
		c.Workers, c.Obs = workers, nil
		r, err := finser.RunFlowWithCharCtx(ctx, c, ch)
		if err != nil {
			return 0, fmt.Errorf("probe worker dependence: %w", err)
		}
		return r.Alpha.TotalFIT + r.Proton.TotalFIT, nil
	}
	many, err := total(nproc)
	if err != nil {
		return 0, 0, err
	}
	one, err := total(1)
	if err != nil {
		return 0, 0, err
	}
	return ratio(math.Abs(one-many), many), many, nil
}

// layerProbes runs every probe that needs only a characterization, an
// operation's FIT results and a scratch directory.
func layerProbes(ctx context.Context, e env, ch *finser.Characterization, cfg finser.FlowConfig, rs ...finser.FITResult) (metrics, error) {
	m := metrics{}
	flipMs, qcritMs, err := probeCell(ch)
	if err != nil {
		return nil, err
	}
	m.set("sram.flip_sim_ms", flipMs, "ms")
	m.set("sram.qcrit_ms", qcritMs, "ms")
	m.set("sram.dup_axis_frac", dupAxisFrac(ch), "frac")
	charNs, gridNs, err := probePOF(ch, deriveSeed(e.seed, 901))
	if err != nil {
		return nil, err
	}
	m.set("sram.char_pof_ns", charNs, "ns")
	m.set("sram.gridlut_pof_ns", gridNs, "ns")
	traceNs, err := probeTrace(ch, deriveSeed(e.seed, 902))
	if err != nil {
		return nil, err
	}
	m.set("transport.trace_ns", traceNs, "ns")
	m.set("events.publish_ns", probeEvents(), "ns")
	appendMs, err := probeJournal(e.dir)
	if err != nil {
		return nil, err
	}
	m.set("journal.append_ms", appendMs, "ms")
	saveMs, saves, bytes, err := probeCheckpoint(e.dir, cfg.ItersPerBin, cfg.FITRelErr, rs...)
	if err != nil {
		return nil, err
	}
	m.set("checkpoint.save_ms", saveMs, "ms")
	m.set("checkpoint.saves_per_job", saves, "count")
	m.set("checkpoint.bytes_per_job", bytes, "B")
	rel, fit, err := probeWorkerDep(ctx, cfg, ch, e.workers)
	if err != nil {
		return nil, err
	}
	m.set("core.worker_dep_rel", rel, "frac")
	m.set("core.worker_dep_fit", fit, "FIT")
	return m, nil
}
