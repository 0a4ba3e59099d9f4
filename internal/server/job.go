package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"finser"
	"finser/internal/dist"
	"finser/internal/events"
	"finser/internal/qos"
)

// JobState is the lifecycle state of a submitted SER job.
type JobState string

const (
	// StateQueued means the job is admitted and waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning means a worker is driving the flow.
	StateRunning JobState = "running"
	// StateDone means the flow completed; Result is populated.
	StateDone JobState = "done"
	// StateFailed means the flow failed after a shard exhausted its
	// attempt budget (or on a non-retryable error).
	StateFailed JobState = "failed"
	// StateCanceled means the job was canceled by the API or a drain.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobRequest is the submission body: the fields of the shard wire's
// dist.JobSpec under the same JSON names, plus the serving-only
// TimeoutSeconds and Class. Zero fields select the same defaults as
// finser.FlowConfig; only Vdd is required.
type JobRequest struct {
	Vdd              float64 `json:"vdd"`
	Rows             int     `json:"rows,omitempty"`
	Cols             int     `json:"cols,omitempty"`
	ProcessVariation bool    `json:"process_variation,omitempty"`
	Samples          int     `json:"samples,omitempty"`
	ItersPerBin      int     `json:"iters_per_bin,omitempty"`
	AlphaRate        float64 `json:"alpha_rate,omitempty"`
	ProtonScale      float64 `json:"proton_scale,omitempty"`
	AlphaBins        int     `json:"alpha_bins,omitempty"`
	ProtonBins       int     `json:"proton_bins,omitempty"`
	// Pattern is the stored data pattern: zeros (default), ones, or
	// checkerboard.
	Pattern string `json:"pattern,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Workers bounds the flow's internal parallelism. The Monte-Carlo
	// substream split depends on it, so 0 resolves to the server's
	// GOMAXPROCS at admission (and again on journal replay); checkpointed
	// jobs resume bit-identically only under the same value, so heavy
	// users pin it explicitly.
	Workers int `json:"workers,omitempty"`
	// FitRelErr enables adaptive FIT sampling: each energy bin stops once
	// its POF confidence interval is inside this relative tolerance (0
	// keeps the flat per-bin budget). Must be in (0, 0.5] when set;
	// result-determining, so it is part of the job fingerprint.
	FitRelErr float64 `json:"fit_rel_err,omitempty"`
	// TimeoutSeconds overrides the server's per-job deadline (0 keeps
	// the server default).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Class is the QoS priority class: "interactive" (latency-sensitive,
	// weighted ahead in the fair queue, may preempt batch work) or "batch"
	// (the default — throughput work that tolerates queueing and
	// checkpoint-boundary preemption).
	Class string `json:"class,omitempty"`
}

// class normalizes the request's QoS class, defaulting to batch.
func (r JobRequest) class() string {
	if r.Class == "" {
		return qos.ClassBatch
	}
	return strings.ToLower(r.Class)
}

// RequestError reports an invalid job-request field — mapped to HTTP 400
// alongside finser.ConfigError.
type RequestError struct {
	Field  string
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("server: request field %s %s", e.Field, e.Reason)
}

// flowConfig checks the serving-only fields, then maps the request onto a
// finser.FlowConfig through the shard wire spec, resolving workers 0 to
// GOMAXPROCS — the value FlowFingerprint hashes. Field-level validation
// beyond the mapping itself is finser's job (Validate).
func (r JobRequest) flowConfig() (finser.FlowConfig, error) {
	if r.TimeoutSeconds < 0 {
		return finser.FlowConfig{}, &RequestError{Field: "timeout_seconds", Reason: fmt.Sprintf("must not be negative, got %g", r.TimeoutSeconds)}
	}
	switch r.class() {
	case qos.ClassInteractive, qos.ClassBatch:
	default:
		return finser.FlowConfig{}, &RequestError{Field: "class", Reason: fmt.Sprintf("unknown %q (interactive or batch)", r.Class)}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg, err := dist.JobSpec{
		Vdd:              r.Vdd,
		Rows:             r.Rows,
		Cols:             r.Cols,
		ProcessVariation: r.ProcessVariation,
		Samples:          r.Samples,
		ItersPerBin:      r.ItersPerBin,
		FITRelErr:        r.FitRelErr,
		AlphaRate:        r.AlphaRate,
		ProtonScale:      r.ProtonScale,
		AlphaBins:        r.AlphaBins,
		ProtonBins:       r.ProtonBins,
		Pattern:          r.Pattern,
		Seed:             r.Seed,
		Workers:          workers,
	}.FlowConfig()
	var we *dist.WireError
	if errors.As(err, &we) {
		return finser.FlowConfig{}, &RequestError{Field: we.Field, Reason: we.Reason}
	}
	return cfg, err
}

// JobResult is the completed flow's FIT rates — the FlowResult minus the
// cell characterization (megabytes of POF samples no API consumer wants in
// a status poll).
type JobResult struct {
	Vdd    float64          `json:"vdd"`
	Alpha  finser.FITResult `json:"alpha"`
	Proton finser.FITResult `json:"proton"`
}

// JobStatus is the queryable view of a job.
type JobStatus struct {
	ID          string     `json:"id"`
	State       JobState   `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Retries counts retried shard attempts across the whole job.
	Retries int64 `json:"retries,omitempty"`
	// ResumedStages is how many checkpointed stages the job's checkpoint
	// held at start (a resubmitted drained job reports > 0).
	ResumedStages int `json:"resumed_stages,omitempty"`
	// Fingerprint is the result-determining configuration digest
	// (finser.FlowFingerprint) — the key correlating this job with its
	// checkpoint file, its log lines, and its event stream.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Recovered marks a job rebuilt from the durable journal after a
	// restart rather than admitted over the API in this process.
	Recovered bool `json:"recovered,omitempty"`
	// Tenant and Class are the QoS identity the job was admitted under.
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	// Preemptions counts how many times the job yielded its worker to
	// interactive arrivals and requeued (resuming from its checkpoint).
	Preemptions int        `json:"preemptions,omitempty"`
	Error       string     `json:"error,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	Request     JobRequest `json:"request"`
}

// job is the server-internal record. The owning Server's mutex guards all
// fields except the atomics.
type job struct {
	id        string
	req       JobRequest
	cfg       finser.FlowConfig
	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	result    *JobResult
	cancel    func()
	ctx       context.Context // the job's base context; cancel() and drains cut it
	retries   atomic.Int64
	resumed   int

	// tenant and class are the QoS identity (tenant from X-Tenant, class
	// from the request), fixed at admission; cost is the WFQ cost estimate.
	tenant string
	class  string
	cost   float64
	// preemptCancel cancels the current run's context only (not j.ctx), so
	// a preemption stops the flow without killing the job; non-nil exactly
	// while a worker is running the job. preemptPending marks a preemption
	// initiated but not yet requeued; preempts counts completed ones.
	preemptCancel  context.CancelCauseFunc
	preemptPending bool
	preempts       int
	// fingerprint is the FlowFingerprint digest, computed at admission.
	fingerprint string
	// idemKey is the idempotency key this job was admitted under ("" when
	// dedupe is off); it indexes the server's idem table.
	idemKey string
	// recovered marks a job rebuilt from the journal after a restart.
	recovered bool
	// events is the job's live telemetry stream, created at admission and
	// closed at finalization so SSE clients see a clean end-of-stream.
	events *events.Stream
	// log is the job-scoped structured logger (nil when logging is off).
	log *slog.Logger
}

// logInfo emits one structured line on the job's logger; no-op without one.
func (j *job) logInfo(msg string, args ...any) {
	if j.log != nil {
		j.log.Info(msg, args...)
	}
}

// status renders the job under the server lock.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:            j.id,
		State:         j.state,
		SubmittedAt:   j.submitted,
		Retries:       j.retries.Load(),
		ResumedStages: j.resumed,
		Fingerprint:   j.fingerprint,
		Recovered:     j.recovered,
		Tenant:        j.tenant,
		Class:         j.class,
		Preemptions:   j.preempts,
		Error:         j.err,
		Result:        j.result,
		Request:       j.req,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}
