package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/obs"
	"finser/internal/retry"
)

// Shard lifecycle event kinds, in the order a shard typically sees them.
const (
	// EventResumed: the shard's result was restored from a coordinator
	// checkpoint; it will not be dispatched.
	EventResumed = "resumed"
	// EventDispatched: the shard was handed to a worker for the first
	// concurrent attempt.
	EventDispatched = "dispatched"
	// EventStolen: an idle worker duplicate-dispatched a shard another
	// worker has held longer than StealAfter (first result wins).
	EventStolen = "stolen"
	// EventRetried: an attempt failed transiently; the shard re-enters the
	// queue after a backoff.
	EventRetried = "retried"
	// EventCompleted: the shard's first valid result landed and was merged.
	EventCompleted = "completed"
	// EventDuplicate: a result for an already-completed shard arrived (the
	// losing side of a steal) and was discarded by fingerprint dedup.
	EventDuplicate = "duplicate"
	// EventFailed: the shard exhausted its attempt budget (or hit a
	// permanent error) and will be reported in a *PartialError.
	EventFailed = "failed"
)

// ShardEvent reports one transition in a shard's life to the Run caller —
// the feed a serving layer forwards onto its SSE stream.
type ShardEvent struct {
	Kind  string
	Shard ShardID
	// Worker is the name of the runner involved (empty for resumed shards).
	Worker string
	// Attempt is the 1-based dispatch count for dispatch/steal/retry kinds.
	Attempt int
	// Err carries the attempt failure for retried/failed kinds.
	Err error
}

// Result is the merged outcome of a distributed FIT job — the distributed
// twin of finser.FlowResult, minus the characterization (workers own those).
type Result struct {
	Vdd    float64
	Alpha  finser.FITResult
	Proton finser.FITResult
}

// PartialError reports a distributed run in which some shards exhausted
// their retry budget. It names every missing shard and carries the partial
// FIT sum over the bins that did complete, mirroring finser.SweepError's
// contract that hours of finished Monte-Carlo work survive a late fault.
// Match with errors.As.
type PartialError struct {
	// Missing lists the shards with no valid result, in plan order.
	Missing []ShardID
	// Partial is the FIT assembled from the completed bins only.
	Partial *Result
	// Err is the underlying failure of the last missing shard attempts.
	Err error
}

func (e *PartialError) Error() string {
	ids := make([]string, len(e.Missing))
	for i, id := range e.Missing {
		ids[i] = id.String()
	}
	return fmt.Sprintf("dist: %d shard(s) missing after retry budget: %s: %v",
		len(e.Missing), strings.Join(ids, " "), e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// DefaultShardAttempts is the per-shard attempt budget New selects when
// Config.ShardAttempts is zero.
const DefaultShardAttempts = 4

// Config assembles a Coordinator.
type Config struct {
	// Runners compute the shards; at least one is required, and their
	// names must be distinct.
	Runners []Runner
	// ShardBins is the number of energy bins per shard; 0 selects 2.
	ShardBins int
	// ShardAttempts is the per-shard attempt budget across all runners
	// before the shard is declared missing; 0 selects DefaultShardAttempts.
	ShardAttempts int
	// StealAfter is how long a shard may stay in flight before an idle
	// runner duplicate-dispatches it; 0 selects 30s.
	StealAfter time.Duration
	// Retry shapes the backoff between one shard's failed attempts, whose
	// budget is ShardAttempts. BaseDelay is also how often a runner
	// sidelined by its breaker re-checks readiness.
	Retry retry.Policy
	// Metrics, when non-nil, receives shard counters, per-runner latency
	// histograms, and the healthy-runner gauge.
	Metrics *obs.Registry
	// Rand supplies backoff jitter in [0,1); nil selects math/rand.
	Rand func() float64
}

// Coordinator fans a FIT job's energy-bin shards out to its runners with
// work stealing, retry-elsewhere on failure, and a deterministic merge
// that is bit-identical to the single-node run.
type Coordinator struct {
	cfg Config
	lat []*obs.Histogram // per runner, nil without Metrics

	healthy    *obs.Gauge
	dispatched *obs.Counter
	stolen     *obs.Counter
	retried    *obs.Counter
	completed  *obs.Counter
	duplicate  *obs.Counter
	failed     *obs.Counter
	resumed    *obs.Counter
}

// New validates cfg and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Runners) == 0 {
		return nil, errors.New("dist: coordinator needs at least one runner")
	}
	if cfg.ShardBins == 0 {
		cfg.ShardBins = 2
	}
	if cfg.ShardAttempts == 0 {
		cfg.ShardAttempts = DefaultShardAttempts
	}
	if cfg.ShardBins < 0 || cfg.ShardAttempts < 0 {
		return nil, fmt.Errorf("dist: shard bins and attempts must be positive, got %d and %d", cfg.ShardBins, cfg.ShardAttempts)
	}
	if cfg.StealAfter == 0 {
		cfg.StealAfter = 30 * time.Second
	}
	if cfg.Retry.BaseDelay == 0 {
		cfg.Retry.BaseDelay = 250 * time.Millisecond
	}
	if cfg.Retry.MaxDelay == 0 {
		cfg.Retry.MaxDelay = 5 * time.Second
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	c := &Coordinator{cfg: cfg, lat: make([]*obs.Histogram, len(cfg.Runners))}
	if cfg.Metrics != nil {
		c.healthy = cfg.Metrics.Gauge("dist/workers/healthy")
		c.dispatched = cfg.Metrics.Counter("dist/shards/dispatched")
		c.stolen = cfg.Metrics.Counter("dist/shards/stolen")
		c.retried = cfg.Metrics.Counter("dist/shards/retried")
		c.completed = cfg.Metrics.Counter("dist/shards/completed")
		c.duplicate = cfg.Metrics.Counter("dist/shards/duplicate")
		c.failed = cfg.Metrics.Counter("dist/shards/failed")
		c.resumed = cfg.Metrics.Counter("dist/shards/resumed")
	}
	seen := make(map[string]bool, len(cfg.Runners))
	for i, r := range cfg.Runners {
		if seen[r.Name()] {
			return nil, fmt.Errorf("dist: duplicate runner %q", r.Name())
		}
		seen[r.Name()] = true
		if cfg.Metrics != nil {
			c.lat[i] = cfg.Metrics.Histogram("dist/worker/"+r.Name()+"/shard_seconds", obs.ExpBuckets(0.01, 2, 16))
		}
	}
	c.updateHealthy()
	return c, nil
}

// readyRunners counts the runners that accept shards now.
func (c *Coordinator) readyRunners() int {
	n := 0
	for _, r := range c.cfg.Runners {
		if r.Ready() == nil {
			n++
		}
	}
	return n
}

// updateHealthy refreshes the healthy-runner gauge.
func (c *Coordinator) updateHealthy() {
	if c.healthy != nil {
		c.healthy.Set(float64(c.readyRunners()))
	}
}

// Ready reports whether the pool can make progress: nil while at least one
// runner accepts shards, an error once none does — the signal /readyz
// surfaces as 503.
func (c *Coordinator) Ready() error {
	if c.readyRunners() > 0 {
		return nil
	}
	return fmt.Errorf("dist: all %d workers unavailable (circuit breakers open)", len(c.cfg.Runners))
}

// maxConcurrentAttempts bounds how many workers may hold the same shard at
// once: the original holder plus one thief.
const maxConcurrentAttempts = 2

// shardState is one shard's dispatcher bookkeeping. All mutable fields are
// guarded by the dispatcher mutex.
type shardState struct {
	id    ShardID
	seeds []uint64
	req   *ShardRequest

	attempts      int          // dispatches started (1-based Attempt in events)
	failures      int          // failed attempts
	inflight      map[int]bool // worker index → attempt outstanding
	inflightSince time.Time    // when the oldest outstanding attempt started
	notBefore     time.Time    // backoff gate for the next dispatch
	done          bool         // terminal (succeeded or failed)
	succeeded     bool
	resumed       bool   // restored from the checkpoint
	worker        string // runner that produced the accepted result
	points        []finser.POFPoint
	conv          []finser.BinConv // per-bin convergence state (adaptive jobs)
	err           error            // last attempt error
}

// dispatcher owns the shard queue shared by the per-worker goroutines.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	shards []*shardState
	open   int // shards not yet terminal
	steal  time.Duration
}

func newDispatcher(shards []*shardState, steal time.Duration) *dispatcher {
	d := &dispatcher{shards: shards, steal: steal}
	d.cond = sync.NewCond(&d.mu)
	for _, s := range shards {
		if !s.done {
			d.open++
		}
	}
	return d
}

// next blocks until a shard is dispatchable by worker wi, every shard is
// terminal, or ctx is cancelled. It returns the claimed shard (already
// marked in flight) and whether the claim is a steal; nil means stop.
func (d *dispatcher) next(ctx context.Context, wi int) (s *shardState, stolen bool, attempt int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if ctx.Err() != nil || d.open == 0 {
			return nil, false, 0
		}
		now := time.Now()
		var fresh, victim *shardState
		var wake time.Time
		later := func(t time.Time) {
			if t.After(now) && (wake.IsZero() || t.Before(wake)) {
				wake = t
			}
		}
		for _, cand := range d.shards {
			if cand.done {
				continue
			}
			if len(cand.inflight) == 0 {
				if !cand.notBefore.After(now) {
					if fresh == nil {
						fresh = cand
					}
				} else {
					later(cand.notBefore)
				}
				continue
			}
			if cand.inflight[wi] || len(cand.inflight) >= maxConcurrentAttempts {
				continue
			}
			eligible := cand.inflightSince.Add(d.steal)
			if !eligible.After(now) {
				if victim == nil || cand.inflightSince.Before(victim.inflightSince) {
					victim = cand
				}
			} else {
				later(eligible)
			}
		}
		pick := fresh
		stolen = false
		if pick == nil && victim != nil {
			pick, stolen = victim, true
		}
		if pick != nil {
			if pick.inflight == nil {
				pick.inflight = make(map[int]bool, maxConcurrentAttempts)
			}
			if len(pick.inflight) == 0 {
				pick.inflightSince = now
			}
			pick.inflight[wi] = true
			pick.attempts++
			return pick, stolen, pick.attempts
		}
		// Nothing dispatchable yet: arm a wake-up for the nearest backoff
		// or steal-eligibility horizon, then sleep on the condition.
		if !wake.IsZero() {
			t := time.AfterFunc(wake.Sub(now), d.wake)
			d.cond.Wait()
			t.Stop()
		} else {
			d.cond.Wait()
		}
	}
}

// wake broadcasts under the dispatcher lock. A timer or cancellation that
// broadcast without it could fire between a waiter's condition check and
// its cond.Wait, and a lone runner would then sleep forever.
func (d *dispatcher) wake() {
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// wait parks a runner goroutine for up to dur, waking early when the run is
// cancelled or every shard reaches a terminal state. It reports whether
// work remains.
func (d *dispatcher) wait(ctx context.Context, dur time.Duration) bool {
	deadline := time.Now().Add(dur)
	t := time.AfterFunc(dur, d.wake)
	defer t.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for ctx.Err() == nil && d.open > 0 && time.Now().Before(deadline) {
		d.cond.Wait()
	}
	return ctx.Err() == nil && d.open > 0
}

// release drops worker wi's outstanding attempt on s without judging it
// (breaker shed, context cancellation).
func (d *dispatcher) release(s *shardState, wi int) {
	d.mu.Lock()
	delete(s.inflight, wi)
	if len(s.inflight) == 0 {
		s.inflightSince = time.Time{}
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// fail records a failed attempt. It returns the shard's terminal fate:
// terminal=true when the budget is exhausted or the error is permanent.
// backoffFor maps the post-increment failure count to a retry delay; it is
// called under the dispatcher lock so the count cannot race a twin attempt.
func (d *dispatcher) fail(s *shardState, wi int, err error, budget int, backoffFor func(failures int) time.Duration) (terminal bool) {
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		d.cond.Broadcast()
	}()
	delete(s.inflight, wi)
	if len(s.inflight) == 0 {
		s.inflightSince = time.Time{}
	}
	if s.done {
		return false
	}
	s.failures++
	s.err = err
	if retry.IsPermanent(err) || s.failures >= budget {
		s.done = true
		s.succeeded = false
		d.open--
		return true
	}
	s.notBefore = time.Now().Add(backoffFor(s.failures))
	return false
}

// accept records a successful attempt. first is true when this result won
// the shard (merge it); false when a twin already did (discard as dup).
func (d *dispatcher) accept(s *shardState, wi int, pts []finser.POFPoint, conv []finser.BinConv, workerName string) (first bool) {
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		d.cond.Broadcast()
	}()
	delete(s.inflight, wi)
	if len(s.inflight) == 0 {
		s.inflightSince = time.Time{}
	}
	if s.succeeded {
		return false
	}
	// A late success may rescue a shard already declared failed (its twin
	// exhausted the budget first); reopen the slot it closed.
	if !s.done {
		d.open--
	}
	s.done, s.succeeded = true, true
	s.points = pts
	s.conv = conv
	s.worker = workerName
	s.err = nil
	return true
}

// shardCheckpoint is the per-shard payload in the job's checkpoint store,
// keyed by stage "fit/<species>/<start>-<end>".
type shardCheckpoint struct {
	Fingerprint string            `json:"fingerprint"`
	Worker      string            `json:"worker,omitempty"`
	Points      []finser.POFPoint `json:"points"`
	Conv        []finser.BinConv  `json:"conv,omitempty"`
}

func shardStage(id ShardID) string {
	return fmt.Sprintf("fit/%s/%d-%d", id.Species, id.Start, id.End)
}

// plan splits the job into its shard list: per species, consecutive
// ShardBins-sized bin ranges in deterministic order (alpha first).
func (c *Coordinator) plan(spec JobSpec, flow finser.FlowConfig) ([]*shardState, error) {
	var shards []*shardState
	for _, name := range []string{SpeciesAlpha, SpeciesProton} {
		sp, _ := Species(name)
		sched, err := finser.SpeciesSeedSchedule(flow, sp)
		if err != nil {
			return nil, err
		}
		for start := 0; start < len(sched); start += c.cfg.ShardBins {
			end := min(start+c.cfg.ShardBins, len(sched))
			id := ShardID{Species: name, Start: start, End: end}
			seeds := sched[start:end:end]
			fp, err := ShardFingerprint(spec, id, seeds)
			if err != nil {
				return nil, fmt.Errorf("dist: fingerprint %v: %w", id, err)
			}
			req := &ShardRequest{Job: spec, Shard: id, Seeds: seeds, Fingerprint: fp}
			shards = append(shards, &shardState{id: id, seeds: seeds, req: req})
		}
	}
	return shards, nil
}

// Run executes one FIT job: plan shards, restore any from the checkpoint,
// fan the rest out across the runners with stealing and retry, and merge
// in deterministic shard order. The merged Result is bit-identical to the
// single-node run of the same flow config. emit, when non-nil, observes
// every shard lifecycle transition; flow.BinDone, when set, sees every
// bin in bin order per species.
//
// Failure modes: an invalid flow config fails fast; cancellation of ctx
// returns its error with completed shards checkpointed (a resubmission
// resumes only the missing ones); shards that exhaust their attempt budget
// yield a *PartialError carrying the partial FIT and the missing bins.
func (c *Coordinator) Run(ctx context.Context, flow finser.FlowConfig, emit func(ShardEvent)) (*Result, error) {
	if emit == nil {
		emit = func(ShardEvent) {}
	}
	if err := flow.Validate(); err != nil {
		return nil, err
	}
	spec, err := SpecFromFlow(flow)
	if err != nil {
		return nil, err
	}
	shards, err := c.plan(spec, flow)
	if err != nil {
		return nil, err
	}

	if flow.Checkpoint != nil {
		for _, s := range shards {
			var prev shardCheckpoint
			ok, err := flow.Checkpoint.Load(shardStage(s.id), &prev)
			if err != nil {
				return nil, fmt.Errorf("dist: checkpoint %v: %w", s.id, err)
			}
			if !ok {
				continue
			}
			// A restored shard crossed a disk boundary: hold it to the same
			// validation as one that crossed the network, and ignore stale
			// entries from a different job shape.
			if prev.Fingerprint != s.req.Fingerprint ||
				len(prev.Points) != s.id.End-s.id.Start ||
				ValidatePoints(prev.Points) != nil ||
				ValidateConv(prev.Points, prev.Conv, flow.FITRelErr > 0) != nil {
				continue
			}
			s.done, s.succeeded, s.resumed = true, true, true
			s.points = prev.Points
			s.conv = prev.Conv
			s.worker = prev.Worker
			if c.resumed != nil {
				c.resumed.Inc()
			}
			emit(ShardEvent{Kind: EventResumed, Shard: s.id, Worker: s.worker})
		}
	}

	d := newDispatcher(shards, c.cfg.StealAfter)
	feed := newBinFeed(flow)
	for _, name := range []string{SpeciesAlpha, SpeciesProton} {
		feed.advance(d, name)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopWake := context.AfterFunc(runCtx, d.wake)
	defer stopWake()

	var wg sync.WaitGroup
	for wi := range c.cfg.Runners {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c.runWorker(runCtx, d, wi, flow, feed, emit)
		}(wi)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: run interrupted: %w", err)
	}
	return c.merge(flow, shards)
}

// runWorker is one runner's goroutine: claim, attempt, judge, repeat.
func (c *Coordinator) runWorker(ctx context.Context, d *dispatcher, wi int, flow finser.FlowConfig, feed *binFeed, emit func(ShardEvent)) {
	r := c.cfg.Runners[wi]
	for {
		if r.Ready() != nil && c.Ready() == nil {
			// Only this runner is out of rotation (its breaker is open):
			// sit out without claiming shards it would shed, until its
			// breaker admits a half-open probe.
			if !d.wait(ctx, c.cfg.Retry.BaseDelay) {
				return
			}
			continue
		}
		s, stolen, attempt := d.next(ctx, wi)
		if s == nil {
			return
		}
		if stolen {
			if c.stolen != nil {
				c.stolen.Inc()
			}
			emit(ShardEvent{Kind: EventStolen, Shard: s.id, Worker: r.Name(), Attempt: attempt})
		} else {
			if c.dispatched != nil {
				c.dispatched.Inc()
			}
			emit(ShardEvent{Kind: EventDispatched, Shard: s.id, Worker: r.Name(), Attempt: attempt})
		}

		start := time.Now()
		res, err := r.RunShard(ctx, s.req)
		if c.lat[wi] != nil {
			c.lat[wi].Observe(time.Since(start).Seconds())
		}
		c.updateHealthy()

		switch {
		case err == nil:
			if d.accept(s, wi, res.Points, res.Conv, r.Name()) {
				if c.completed != nil {
					c.completed.Inc()
				}
				emit(ShardEvent{Kind: EventCompleted, Shard: s.id, Worker: r.Name(), Attempt: attempt})
				c.persist(flow, s, d)
				feed.advance(d, s.id.Species)
			} else {
				if c.duplicate != nil {
					c.duplicate.Inc()
				}
				emit(ShardEvent{Kind: EventDuplicate, Shard: s.id, Worker: r.Name(), Attempt: attempt})
			}
		case ctx.Err() != nil:
			// Shutdown, not a runner fault: leave the shard for a resumed
			// run rather than burning its budget.
			d.release(s, wi)
			return
		case errors.Is(err, breaker.ErrOpen) && c.Ready() != nil:
			// Every breaker in the pool is open: there is nowhere to route
			// this shard, so the skip must burn budget or an unreachable
			// pool would stall the run for the full cooldown. The backoff
			// gate still leaves room for a half-open probe to rescue later
			// attempts.
			c.judge(d, s, wi, attempt, errPoolOpen, emit)
		case errors.Is(err, breaker.ErrOpen):
			// The breaker shed the shard (another run holds its half-open
			// probe slot, or just tripped it): give the shard back
			// untainted and sit out a moment.
			d.release(s, wi)
			if !d.wait(ctx, c.cfg.Retry.BaseDelay) {
				return
			}
		default:
			c.judge(d, s, wi, attempt, err, emit)
		}
	}
}

// errPoolOpen marks an attempt skipped because every worker breaker was open.
var errPoolOpen = errors.New("dist: every worker breaker is open")

// judge records a failed attempt and emits the retried-or-failed verdict.
func (c *Coordinator) judge(d *dispatcher, s *shardState, wi, attempt int, err error, emit func(ShardEvent)) {
	backoffFor := func(failures int) time.Duration {
		return c.cfg.Retry.Backoff(failures, c.cfg.Rand())
	}
	name := c.cfg.Runners[wi].Name()
	if d.fail(s, wi, err, c.cfg.ShardAttempts, backoffFor) {
		if c.failed != nil {
			c.failed.Inc()
		}
		emit(ShardEvent{Kind: EventFailed, Shard: s.id, Worker: name, Attempt: attempt, Err: err})
	} else {
		if c.retried != nil {
			c.retried.Inc()
		}
		emit(ShardEvent{Kind: EventRetried, Shard: s.id, Worker: name, Attempt: attempt, Err: err})
	}
}

// persist saves a completed shard to the job checkpoint so a restart
// resumes only the missing shards.
func (c *Coordinator) persist(flow finser.FlowConfig, s *shardState, d *dispatcher) {
	if flow.Checkpoint == nil {
		return
	}
	d.mu.Lock()
	rec := shardCheckpoint{Fingerprint: s.req.Fingerprint, Worker: s.worker, Points: s.points, Conv: s.conv}
	d.mu.Unlock()
	// Best effort: a checkpoint write failure must not fail the shard the
	// runner just computed; the merge only needs the in-memory points.
	_ = flow.Checkpoint.Save(shardStage(s.id), rec)
}

// binFeed replays completed shards' bins through flow.BinDone in bin order
// per species: a bin is reported once every bin before it has completed,
// so the live stream reads like a single-node run's even when shards land
// out of order.
type binFeed struct {
	mu   sync.Mutex
	flow finser.FlowConfig
	pts  map[string][]finser.POFPoint // species → reported points, in bin order
}

func newBinFeed(flow finser.FlowConfig) *binFeed {
	return &binFeed{flow: flow, pts: map[string][]finser.POFPoint{}}
}

// advance reports the species' bins that have become contiguous. BinDone
// runs under f.mu, which is what keeps bins in order across runner
// goroutines; FlowConfig.BinDone is non-blocking by contract.
func (f *binFeed) advance(d *dispatcher, species string) {
	if f.flow.BinDone == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	sp, _ := Species(species)
	total := 0
	for {
		// Find the completed shard holding the next bin; points and conv
		// are immutable once a shard has succeeded.
		next := len(f.pts[species])
		var hit *shardState
		d.mu.Lock()
		for _, s := range d.shards {
			if s.id.Species == species {
				total = max(total, s.id.End)
				if s.succeeded && s.id.Start <= next && next < s.id.End {
					hit = s
				}
			}
		}
		d.mu.Unlock()
		if hit == nil {
			return
		}
		for k := next - hit.id.Start; k < len(hit.points); k++ {
			f.pts[species] = append(f.pts[species], hit.points[k])
			ev := finser.BinEvent{
				Stage:    "fit/" + species,
				Bin:      hit.id.Start + k + 1,
				Bins:     total,
				Point:    hit.points[k],
				Resumed:  hit.resumed,
				Adaptive: f.flow.FITRelErr > 0,
			}
			if ev.Adaptive {
				ev.Conv = hit.conv[k]
			}
			// The partial FIT over every bin so far (the analogue of
			// FITCtx's running sum).
			idx := make([]int, len(f.pts[species]))
			for i := range idx {
				idx[i] = i
			}
			if fit, err := finser.AssembleSpeciesFIT(f.flow, sp, idx, f.pts[species]); err == nil {
				ev.FITSoFar = fit.TotalFIT
			}
			f.flow.BinDone(ev)
		}
	}
}

// merge folds the shard results into the job Result in deterministic plan
// order. With every shard complete the assembly runs the same float
// operations in the same order as single-node FITCtx — bit-identical by
// construction. With missing shards it returns a *PartialError carrying
// the partial FIT over the completed bins.
func (c *Coordinator) merge(flow finser.FlowConfig, shards []*shardState) (*Result, error) {
	res := &Result{Vdd: flow.Vdd}
	var missing []ShardID
	var lastErr error
	for _, out := range []struct {
		name string
		dst  *finser.FITResult
	}{
		{SpeciesAlpha, &res.Alpha},
		{SpeciesProton, &res.Proton},
	} {
		sp, _ := Species(out.name)
		adaptive := flow.FITRelErr > 0
		var binIdx []int
		var pts []finser.POFPoint
		var conv []finser.BinConv
		complete := true
		for _, s := range shards {
			if s.id.Species != out.name {
				continue
			}
			if !s.succeeded {
				complete = false
				missing = append(missing, s.id)
				if s.err != nil {
					lastErr = s.err
				}
				continue
			}
			for k, pt := range s.points {
				binIdx = append(binIdx, s.id.Start+k)
				pts = append(pts, pt)
				if adaptive && k < len(s.conv) {
					conv = append(conv, s.conv[k])
				}
			}
		}
		if complete {
			binIdx = nil // full set: assemble exactly as single-node
		}
		if len(pts) == 0 && !complete {
			continue // species entirely missing; leave zero FITResult
		}
		fit, err := finser.AssembleSpeciesFIT(flow, sp, binIdx, pts)
		if err != nil {
			return nil, fmt.Errorf("dist: merge %s: %w", out.name, err)
		}
		if adaptive {
			fit.Conv = conv
		}
		*out.dst = fit
	}
	if len(missing) > 0 {
		if lastErr == nil {
			lastErr = errors.New("shard attempts exhausted")
		}
		return nil, &PartialError{Missing: missing, Partial: res, Err: lastErr}
	}
	return res, nil
}
