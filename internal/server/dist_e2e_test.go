package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/dist"
	"finser/internal/retry"
)

// distFlow mirrors distJobBody below — the single-node reference config.
func distFlow() finser.FlowConfig {
	return finser.FlowConfig{
		Vdd:         0.7,
		Samples:     6,
		ItersPerBin: 200,
		AlphaBins:   3,
		ProtonBins:  4,
		Workers:     1,
		Seed:        42,
	}
}

const distJobBody = `{"vdd":0.7,"samples":6,"iters_per_bin":200,"alpha_bins":3,"proton_bins":4,"workers":1,"seed":42}`

// newDistWorker boots one real worker serd; its /shards endpoint is the
// only route the coordinator touches.
func newDistWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := New(Config{Workers: 2})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return ts
}

// newCoordinatorServer boots a coordinator-mode serd over the given worker
// pool, mirroring cmd/serd's -coordinator wiring.
func newCoordinatorServer(t *testing.T, workers []string, bcfg breaker.Config) *httptest.Server {
	t.Helper()
	if bcfg.FailureThreshold == 0 {
		bcfg = breaker.Config{FailureThreshold: 3, Cooldown: 200 * time.Millisecond}
	}
	runners, err := dist.NewHTTPRunners(workers, dist.HTTPConfig{Timeout: 30 * time.Second, Breaker: bcfg})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, Dist: dist.Config{
		Runners:       runners,
		ShardBins:     2,
		ShardAttempts: 4,
		StealAfter:    30 * time.Second,
		Retry:         retry.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return ts
}

// TestDistributedJobEndToEnd drives the full coordinator path through the
// public HTTP API: a job submitted to a coordinator serd fans out to two
// worker serds, streams shard lifecycle events over SSE, and lands on a
// result bit-identical to the single-node pipeline.
func TestDistributedJobEndToEnd(t *testing.T) {
	want, err := finser.RunFlowCtx(context.Background(), distFlow())
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := newDistWorker(t), newDistWorker(t)
	ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, breaker.Config{})

	resp, body := postJob(t, ts, distJobBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	done := waitState(t, ts, st.ID, StateDone)

	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if !reflect.DeepEqual(done.Result.Alpha, want.Alpha) {
		t.Errorf("distributed alpha FIT diverges from single-node:\n got  %+v\n want %+v", done.Result.Alpha, want.Alpha)
	}
	if !reflect.DeepEqual(done.Result.Proton, want.Proton) {
		t.Errorf("distributed proton FIT diverges from single-node:\n got  %+v\n want %+v", done.Result.Proton, want.Proton)
	}

	// The finished stream replays from the ring: shard lifecycle events
	// (4 shards dispatched + completed) surface on the job's SSE feed.
	er := getEvents(t, ts, st.ID, "")
	defer er.Body.Close()
	frames := readSSE(t, er, 64)
	var dispatched, completed int
	for _, f := range frames {
		if f.data.Type != "shard" {
			continue
		}
		if f.data.Shard == "" || f.data.Worker == "" {
			t.Errorf("shard event without shard/worker identity: %+v", f.data)
		}
		switch f.data.State {
		case dist.EventDispatched:
			dispatched++
		case dist.EventCompleted:
			completed++
		}
	}
	if dispatched != 4 || completed != 4 {
		t.Errorf("shard events dispatched=%d completed=%d, want 4/4", dispatched, completed)
	}
}

// TestCoordinatorResolvesUnpinnedWorkers: a job that leaves workers at 0
// runs under the coordinator's GOMAXPROCS — the value its fingerprint
// already hashes — and lands bit-identically on RunFlowCtx at that worker
// count.
func TestCoordinatorResolvesUnpinnedWorkers(t *testing.T) {
	flow := distFlow()
	flow.Workers = 0
	fp, err := finser.FlowFingerprint(flow, []float64{flow.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	flow.Workers = runtime.GOMAXPROCS(0)
	want, err := finser.RunFlowCtx(context.Background(), flow)
	if err != nil {
		t.Fatal(err)
	}
	w := newDistWorker(t)
	ts := newCoordinatorServer(t, []string{w.URL}, breaker.Config{})

	resp, body := postJob(t, ts, `{"vdd":0.7,"samples":6,"iters_per_bin":200,"alpha_bins":3,"proton_bins":4,"seed":42}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unpinned submit status = %d, body %s", resp.StatusCode, body)
	}
	done := waitState(t, ts, "job-1", StateDone)
	if done.Fingerprint != fp {
		t.Errorf("fingerprint = %s, want %s (workers 0 hashes as GOMAXPROCS)", done.Fingerprint, fp)
	}
	if !reflect.DeepEqual(done.Result.Alpha, want.Alpha) || !reflect.DeepEqual(done.Result.Proton, want.Proton) {
		t.Errorf("unpinned job diverges from RunFlowCtx at workers=%d", flow.Workers)
	}
}

// TestCoordinatorReadyzReflectsPool: /readyz on a coordinator answers 503
// once every worker breaker is open, and 200 while the pool is healthy.
func TestCoordinatorReadyzReflectsPool(t *testing.T) {
	deadWorker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadWorker.Close() // refuses all connections from here on
	ts := newCoordinatorServer(t, []string{deadWorker.URL},
		breaker.Config{FailureThreshold: 1, Cooldown: time.Hour})

	get := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("healthy pool /readyz = %d, want 200", code)
	}

	// Run a job into the dead pool: every shard attempt fails, the lone
	// breaker opens, and the job degrades. /readyz must flip to 503.
	resp, body := postJob(t, ts, distJobBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if getStatus(t, ts, st.ID).State.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final := getStatus(t, ts, st.ID); final.State != StateFailed {
		t.Fatalf("job against dead pool ended %s, want %s", final.State, StateFailed)
	}
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("all-breakers-open /readyz = %d, want 503", code)
	}
}
