// Command serd is the SER-as-a-service daemon: a long-running HTTP/JSON
// server that accepts FlowConfig-shaped soft-error jobs, runs them on a
// bounded worker pool behind an admission queue, and survives the failures
// a batch CLI cannot — every job runs as energy-bin shards, a failed shard
// is retried with jittered backoff under one attempt budget
// (-shard-attempts), completed shards are checkpointed, and a saturated
// queue sheds load with 503 + Retry-After instead of melting.
//
// Usage:
//
//	serd -addr :8080 -workers 2 -queue 16 -checkpoint-dir /var/lib/serd
//
// API:
//
//	POST /jobs              submit a job (JSON body, e.g. {"vdd": 0.8});
//	                        202 with the job record, 400 on invalid config,
//	                        503 + Retry-After when the queue is full
//	GET  /jobs              list all jobs in admission order
//	GET  /jobs/{id}         poll one job (state, retries, result)
//	GET  /jobs/{id}/events  live SSE telemetry: state transitions, throttled
//	                        progress, per-bin FIT results, guard violations;
//	                        reconnect with Last-Event-ID (or ?from=N) to
//	                        replay only missed events
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /healthz           liveness + uptime + build identity
//	GET  /readyz            readiness (503 once draining)
//	GET  /metrics           JSON snapshot of serving + flow metrics
//	                        (latency histograms include p50/p95/p99);
//	                        ?format=prometheus renders the same registry in
//	                        Prometheus text exposition format
//	POST /shards            compute one energy-bin shard of a job's FIT
//	                        integration (the worker half of the distributed
//	                        protocol; coordinators call this, not humans)
//
// Distributed mode: a single serd runs a job's shards in process. With
// -coordinator "http://w1:8080,http://w2:8080" the same shards fan out to
// the listed worker serds instead (plain serds; /shards is always served)
// with work stealing, per-worker circuit breakers (-breaker-threshold,
// -breaker-cooldown), and retry on another worker when one crashes or
// times out. Either way the merged FIT is bit-identical to a single-node
// run of the same config/seed at the same worker count; a job that leaves
// "workers" at 0 runs at this serd's GOMAXPROCS. Shard lifecycle events
// appear on the job's SSE stream, and /readyz reports 503 while every
// worker's breaker is open.
//
// Multi-tenant QoS: submissions carry an X-Tenant header (absent = the
// anonymous tenant) and an optional "class" field (interactive|batch,
// default batch). Admission runs per-tenant policing first — -tenant-rate
// (token bucket) and -tenant-quota (in-flight cap) reject an over-budget
// tenant with a typed 429 + Retry-After while other tenants keep being
// served; only global queue saturation sheds 503, with a Retry-After hint
// scaled to the live queue drain estimate (capped by -retry-after-max).
// Admitted jobs enter a weighted-fair queue over tenant × class flows
// (-tenants and -qos-weights set the weights), so a batch flood from one
// tenant cannot starve anyone else's interactive work. With -preempt, an
// interactive arrival that finds every worker busy on batch jobs asks the
// longest-running one to yield at its next checkpoint boundary: the victim
// requeues, later resumes from its per-bin checkpoint, and its final FIT is
// bit-identical to an uninterrupted run. Per-tenant counters and latency
// histograms appear in /metrics with tenant/class labels in the Prometheus
// exposition.
//
// Every job-scoped log line is structured (JSON by default, -log-format
// text for key=value) and stamped with the job ID and configuration
// fingerprint, the keys that join a log line to the job's metrics and its
// event stream.
//
// Durability: -data-dir /var/lib/serd makes the job layer crash-safe — a
// CRC-framed fsync'd write-ahead journal of job lifecycle records lives
// under it, and on startup serd replays the journal: terminal jobs come
// back queryable with their results, queued jobs re-enter the queue, and
// jobs that were mid-Monte-Carlo resume from their checkpoints (which
// default to <data-dir>/checkpoints) so the recovered FIT is bit-identical
// to an uninterrupted run. A `kill -9` loses nothing but in-flight
// milliseconds. Durable serds also dedupe retried submissions by the
// Idempotency-Key header (defaulting to the flow fingerprint): a client
// whose 202 was lost to the crash resubmits and lands on the original job
// with a 200. -job-ttl evicts terminal jobs (and their orphaned
// checkpoints) after the given age so the registry stays bounded.
//
// Shutdown: SIGTERM or SIGINT starts a graceful drain — admission stops
// (/readyz flips to 503), queued and running jobs are canceled, completed
// FIT bins are already checkpointed, and the process exits 0. With
// -checkpoint-dir set, resubmitting the identical job to a restarted serd
// resumes from the checkpoint and reproduces the uninterrupted result
// bit-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/dist"
	"finser/internal/obs"
	"finser/internal/qos"
	"finser/internal/server"
)

// parseWeights parses "name=weight,name=weight" fair-queue weight lists
// (the -tenants and -qos-weights flag syntax). Empty input is a nil map.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	m := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed entry %q (want name=weight)", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("entry %q: weight must be a positive number", pair)
		}
		m[name] = w
	}
	return m, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serd: ")

	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		queueDepth   = flag.Int("queue", server.DefaultQueueDepth, "admission queue depth; a full queue sheds with 503")
		workers      = flag.Int("workers", server.DefaultWorkers, "worker pool size (concurrent jobs)")
		jobTimeout   = flag.Duration("job-timeout", server.DefaultJobTimeout, "default per-job deadline (jobs may override via timeout_seconds)")
		retryAfter   = flag.Duration("retry-after", server.DefaultRetryAfter, "Retry-After hint returned with 503 rejections")
		brkThreshold = flag.Int("breaker-threshold", 5, "coordinator: consecutive shard failures that trip a worker's breaker")
		brkCooldown  = flag.Duration("breaker-cooldown", 30*time.Second, "coordinator: open-breaker cooldown before a half-open probe")
		ckDir        = flag.String("checkpoint-dir", "", "directory for per-job checkpoints; identical resubmissions resume bit-identically")
		dataDir      = flag.String("data-dir", "", "durable state root: job journal (journal.wal) plus default checkpoint dir; on restart the journal replays and interrupted jobs resume")
		jobTTL       = flag.Duration("job-ttl", 0, "evict terminal jobs (and orphaned checkpoints) this long after they finish; 0 keeps them forever")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for workers to unwind")
		guardStr     = flag.String("guard", "warn", "physics-invariant enforcement for every job: off|warn|strict (strict fails the job on the first violation)")
		logFormat    = flag.String("log-format", "json", "structured job-log format: json|text")
		logLevel     = flag.String("log-level", "info", "minimum structured-log level: debug|info|warn|error")
		heartbeat    = flag.Duration("heartbeat", server.DefaultHeartbeat, "SSE keep-alive comment interval on /jobs/{id}/events")
		eventBuffer  = flag.Int("event-buffer", 0, "per-job event ring capacity (the SSE replay window); 0 selects the default")

		tenants       = flag.String("tenants", "", `per-tenant fair-queue weights, e.g. "acme=4,lab=1"; unlisted tenants (and the anonymous tenant) weigh 1`)
		qosWeights    = flag.String("qos-weights", "", `priority-class fair-queue weights, e.g. "interactive=10,batch=1" (the default)`)
		preempt       = flag.Bool("preempt", false, "let interactive arrivals preempt the longest-running batch job at a checkpoint boundary (requires -checkpoint-dir or -data-dir)")
		tenantRate    = flag.Float64("tenant-rate", 0, "per-tenant sustained submission rate in jobs/second (429 over it); 0 disables")
		tenantBurst   = flag.Float64("tenant-burst", 0, "per-tenant token-bucket burst depth; 0 selects max(1, rate)")
		tenantQuota   = flag.Int("tenant-quota", 0, "per-tenant in-flight job cap, queued + running (429 over it); 0 disables")
		retryAfterMax = flag.Duration("retry-after-max", server.DefaultRetryAfterMax, "cap on the load-aware 503 Retry-After hint")

		coordinator   = flag.String("coordinator", "", "comma-separated worker serd URLs; non-empty switches this serd into coordinator mode (jobs shard across the workers)")
		shardBins     = flag.Int("shard-bins", 2, "coordinator: energy bins per shard")
		shardTimeout  = flag.Duration("shard-timeout", 10*time.Minute, "coordinator: per-shard-attempt deadline")
		shardAttempts = flag.Int("shard-attempts", 4, "per-shard attempt budget (across all workers in coordinator mode) before the job degrades to a partial FIT")
		stealAfter    = flag.Duration("steal-after", 30*time.Second, "coordinator: how long a shard may stay in flight before an idle worker duplicate-dispatches it")
		shardConc     = flag.Int("shard-concurrency", 0, "worker: concurrent shard slots on /shards (excess sheds 503); 0 selects the worker pool size")
	)
	flag.Parse()

	guardMode, err := finser.ParseGuardMode(*guardStr)
	if err != nil {
		log.Fatal(err)
	}

	tenantWeights, err := parseWeights(*tenants)
	if err != nil {
		log.Fatalf("-tenants: %v", err)
	}
	classWeights, err := parseWeights(*qosWeights)
	if err != nil {
		log.Fatalf("-qos-weights: %v", err)
	}
	for class := range classWeights {
		if class != qos.ClassInteractive && class != qos.ClassBatch {
			log.Fatalf("-qos-weights: unknown class %q (want interactive or batch)", class)
		}
	}
	if *shardBins <= 0 || *shardAttempts <= 0 {
		log.Fatalf("-shard-bins and -shard-attempts must be positive, got %d and %d", *shardBins, *shardAttempts)
	}
	if *preempt && *ckDir == "" && *dataDir == "" {
		log.Fatal("-preempt requires -checkpoint-dir or -data-dir: yielded work resumes from checkpoints")
	}

	level, ok := obs.ParseLogLevel(*logLevel)
	if !ok {
		log.Fatalf("unknown -log-level %q (want debug|info|warn|error)", *logLevel)
	}
	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = obs.NewJSONLogger(os.Stderr, level)
	case "text":
		logger = obs.NewTextLogger(os.Stderr, level)
	default:
		log.Fatalf("unknown -log-format %q (want json|text)", *logFormat)
	}

	if *ckDir != "" {
		if err := os.MkdirAll(*ckDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	reg := finser.NewMetrics()
	distCfg := dist.Config{ShardAttempts: *shardAttempts}
	if *coordinator != "" {
		runners, err := dist.NewHTTPRunners(strings.Split(*coordinator, ","), dist.HTTPConfig{
			Timeout: *shardTimeout,
			Breaker: breaker.Config{
				FailureThreshold: *brkThreshold,
				Cooldown:         *brkCooldown,
				OnStateChange: func(name string, from, to breaker.State) {
					log.Printf("worker breaker %s: %s → %s", name, from, to)
				},
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		distCfg.Runners = runners
		distCfg.ShardBins = *shardBins
		distCfg.StealAfter = *stealAfter
	}
	srv := server.New(server.Config{
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		JobTimeout:       *jobTimeout,
		RetryAfter:       *retryAfter,
		CheckpointDir:    *ckDir,
		DataDir:          *dataDir,
		TenantWeights:    tenantWeights,
		ClassWeights:     classWeights,
		TenantRate:       *tenantRate,
		TenantBurst:      *tenantBurst,
		TenantQuota:      *tenantQuota,
		Preempt:          *preempt,
		RetryAfterMax:    *retryAfterMax,
		JobTTL:           *jobTTL,
		Metrics:          reg,
		Guard:            guardMode,
		GuardLog:         log.Printf,
		Heartbeat:        *heartbeat,
		EventBuffer:      *eventBuffer,
		Logger:           logger,
		Dist:             distCfg,
		ShardConcurrency: *shardConc,
	})
	if *dataDir != "" {
		stats, err := srv.Recover()
		if err != nil {
			log.Fatalf("journal recovery: %v", err)
		}
		log.Printf("journal replayed: %d jobs requeued, %d terminal restored, %d invalid, %d evicted, %d corrupt records skipped",
			stats.Requeued, stats.RestoredTerminal, stats.Invalid, stats.Evicted, stats.CorruptRecords)
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	if *coordinator != "" {
		log.Printf("coordinating on %s over workers %s (shard-bins=%d steal-after=%s attempts=%d)",
			*addr, *coordinator, *shardBins, *stealAfter, *shardAttempts)
	} else {
		log.Printf("serving on %s (workers=%d queue=%d checkpoint-dir=%q)",
			*addr, *workers, *queueDepth, *ckDir)
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		// The listener died out from under us — nothing graceful left.
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("%s: draining (admission stopped, canceling jobs, waiting up to %s)", sig, *drainWait)
	}

	// Drain first so status queries and /readyz keep answering while jobs
	// unwind; only then close the listener. A second signal aborts hard.
	go func() {
		s := <-sigCh
		log.Fatalf("%s during drain: aborting", s)
	}()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	code := 0
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
		code = 1
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	<-errCh // ListenAndServe returns ErrServerClosed after Shutdown

	if code == 0 {
		if *ckDir != "" {
			fmt.Println("drained cleanly; resubmit jobs after restart to resume from checkpoints")
		} else {
			fmt.Println("drained cleanly")
		}
	}
	os.Exit(code)
}
