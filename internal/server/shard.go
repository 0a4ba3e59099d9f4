package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"finser"
	"finser/internal/dist"
	"finser/internal/retry"
)

// DefaultCharCache is the characterization cache bound: how many distinct
// job configurations' characterizations a serd keeps warm for shards, its
// own jobs' and remote coordinators' alike. Shards of one job all share one
// entry, so a small bound covers realistic fan-in.
const DefaultCharCache = 4

// charEntry is one in-flight or completed characterization, keyed by the
// job's flow fingerprint. ready closes when char/err are set.
type charEntry struct {
	ready chan struct{}
	char  *finser.Characterization
	err   error
	// waiters counts the callers waiting on the build (guarded by the
	// cache mutex); cancel stops the build.
	waiters int
	cancel  context.CancelFunc
}

// charCache deduplicates characterization work across the shards of one
// job (singleflight): the first shard request builds, the rest wait on the
// same entry. Failed builds are evicted so the next shard retries, and a
// build whose every waiter has left — its jobs canceled or drained — is
// canceled, so it does not keep a core busy after the job's slot is free.
type charCache struct {
	mu      sync.Mutex
	entries map[string]*charEntry
	order   []string
	bound   int
}

func newCharCache(bound int) *charCache {
	if bound <= 0 {
		bound = DefaultCharCache
	}
	return &charCache{entries: map[string]*charEntry{}, bound: bound}
}

// get returns the characterization for key, starting build on first sight
// and waiting for it until ctx ends.
func (c *charCache) get(ctx context.Context, key string, build func(context.Context) (*finser.Characterization, error)) (*finser.Characterization, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		bctx, cancel := context.WithCancel(context.Background())
		e = &charEntry{ready: make(chan struct{}), cancel: cancel}
		c.entries[key] = e
		c.order = append(c.order, key)
		for len(c.order) > c.bound {
			old := c.order[0]
			c.order = c.order[1:]
			if old != key {
				delete(c.entries, old)
			}
		}
		go func() {
			char, err := build(bctx)
			c.complete(key, e, char, err)
		}()
	}
	e.waiters++
	c.mu.Unlock()
	defer c.leave(key, e)
	select {
	case <-e.ready:
		return e.char, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// leave uncounts a waiter. The last waiter to leave an unfinished build
// cancels it and evicts the entry, so a later request starts afresh.
func (c *charCache) leave(key string, e *charEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.waiters--
	select {
	case <-e.ready:
		return
	default:
	}
	if e.waiters == 0 {
		e.cancel()
		c.evictLocked(key, e)
	}
}

// complete publishes the build outcome; failures are evicted immediately so
// a transient characterization fault is not cached forever.
func (c *charCache) complete(key string, e *charEntry, char *finser.Characterization, err error) {
	e.char, e.err = char, err
	close(e.ready)
	e.cancel()
	if err != nil {
		c.mu.Lock()
		c.evictLocked(key, e)
		c.mu.Unlock()
	}
}

// evictLocked drops key's entry if it is still e; callers hold c.mu.
func (c *charCache) evictLocked(key string, e *charEntry) {
	if c.entries[key] != e {
		return
	}
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// jobRun is what the in-process runner threads through one job run's
// shards on the context: the job's telemetry hooks (the shard request
// carries only the result-determining spec) and the shard engine, built
// once per run rather than once per shard.
type jobRun struct {
	progress   finser.ProgressFunc
	guardEvent finser.GuardEventFunc
	// charAttempts bounds the run's failed characterization builds
	// (0: unbounded).
	charAttempts int

	mu       sync.Mutex
	char     *finser.Characterization
	eng      *finser.ShardEngine
	charErrs int   // failed characterization builds so far
	charErr  error // the latest of them
}

type jobRunKey struct{}

// shardEngine returns the run's shard engine over the job's
// characterization: the characterization is built at most once per
// fingerprint (the cache), the engine once per run. A failed build is
// retried by later shard attempts like any transient fault, but once the
// run has seen charAttempts failures every shard fails at once; otherwise
// a cell model that cannot be built would be built again for every
// attempt of every shard.
func (r *jobRun) shardEngine(ctx context.Context, chars *charCache, cfg finser.FlowConfig) (*finser.ShardEngine, error) {
	fp, err := finser.FlowFingerprint(cfg, []float64{cfg.Vdd})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.charAttempts > 0 && r.charErrs >= r.charAttempts {
		defer r.mu.Unlock()
		return nil, retry.Permanent(r.charErr)
	}
	r.mu.Unlock()
	char, err := chars.get(ctx, fp, func(ctx context.Context) (*finser.Characterization, error) {
		return finser.CharacterizeFlowCtx(ctx, cfg)
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if ctx.Err() == nil {
			r.charErrs++
			r.charErr = err
		}
		return nil, err
	}
	if r.eng == nil || r.char != char {
		eng, err := finser.NewShardEngine(cfg, char)
		if err != nil {
			return nil, err
		}
		r.char, r.eng = char, eng
	}
	return r.eng, nil
}

// localRunner runs shards in this process: the runner every job uses
// unless the server coordinates remote workers. It has no breaker — its
// failures come from the job itself, and one tenant's bad job must not
// shed the shards other tenants' jobs depend on — and it skips the /shards
// slot semaphore, since the job worker pool already bounds it.
type localRunner struct{ s *Server }

func (localRunner) Name() string { return "local" }

func (localRunner) Ready() error { return nil }

func (r localRunner) RunShard(ctx context.Context, req *dist.ShardRequest) (*dist.ShardResult, error) {
	run, ok := ctx.Value(jobRunKey{}).(*jobRun)
	if !ok {
		run = &jobRun{}
	}
	res, err := r.s.computeShard(ctx, req, run)
	var ce *finser.ConfigError
	if errors.As(err, &ce) {
		// A configuration mistake fails the same way on every attempt.
		return nil, retry.Permanent(err)
	}
	return res, err
}

// computeShard is the one shard computation behind both the /shards
// endpoint and the in-process runner: the shard's POF points on the run's
// engine, validated like any shard result.
func (s *Server) computeShard(ctx context.Context, req *dist.ShardRequest, run *jobRun) (*dist.ShardResult, error) {
	cfg, err := req.Job.FlowConfig()
	if err != nil {
		return nil, err
	}
	cfg.Obs = s.reg
	cfg.Faults = s.cfg.Faults
	cfg.Guard = s.cfg.Guard
	cfg.GuardLog = s.cfg.GuardLog
	cfg.Progress = run.progress
	cfg.GuardEvent = run.guardEvent
	eng, err := run.shardEngine(ctx, s.chars, cfg)
	if err != nil {
		return nil, err
	}
	sp, _ := dist.Species(req.Shard.Species)
	pts, conv, err := eng.SpeciesPOFCtx(ctx, sp, req.Shard.Start, req.Shard.End)
	if err != nil {
		return nil, err
	}
	res := &dist.ShardResult{Fingerprint: req.Fingerprint, Shard: req.Shard, Points: pts, Conv: conv}
	if err := res.Validate(req); err != nil {
		return nil, err
	}
	return res, nil
}

// handleShard is the worker half of the distributed protocol: compute the
// POF points of one energy-bin shard. The endpoint is stateless beyond the
// characterization cache — shard identity, seeds, and merge order all live
// with the coordinator — so any worker can serve any shard of any job.
//
// Status mapping: invalid shard messages are 400 (permanent — the request
// is wrong everywhere); a saturated worker sheds with 503 + Retry-After
// (transient — try another worker); compute faults are 500 (transient).
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "shard request too large"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "read body: " + err.Error()})
		return
	}
	req, err := dist.DecodeShardRequest(body)
	if err != nil {
		s.reg.Counter("serd/shards/rejected_invalid").Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Shed before computing: a worker saturated with shards refuses fast so
	// the coordinator's work stealing routes the shard elsewhere.
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		s.reg.Counter("serd/shards/rejected_busy").Inc()
		s.writeUnavailable(w, "server: shard slots busy")
		return
	}
	s.reg.Counter("serd/shards/accepted").Inc()
	s.reg.Gauge("serd/shards/running").Set(float64(len(s.shardSem)))
	defer func() { s.reg.Gauge("serd/shards/running").Set(float64(len(s.shardSem) - 1)) }()

	// The request context dies with the coordinator's connection (a stolen
	// shard's loser stops burning CPU); a server drain cuts it too.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	res, err := s.computeShard(ctx, req, &jobRun{})
	if err != nil {
		s.shardError(w, req, err)
		return
	}
	s.reg.Counter("serd/shards/served").Inc()
	res.Worker = r.Host
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// shardError maps a shard compute failure onto the wire: cancellation is a
// 503 (the worker is draining, or the caller already left — either way the
// shard belongs elsewhere), everything else a 500; both are transient to
// the coordinator.
func (s *Server) shardError(w http.ResponseWriter, req *dist.ShardRequest, err error) {
	s.reg.Counter("serd/shards/errors").Inc()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.writeUnavailable(w, "server: shard "+req.Shard.String()+" interrupted: "+err.Error())
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorBody{Error: "shard " + req.Shard.String() + ": " + err.Error()})
}
