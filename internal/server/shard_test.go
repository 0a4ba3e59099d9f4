package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"finser"
	"finser/internal/dist"
)

// TestCharCacheCancelsAbandonedBuild: a characterization build outlives a
// waiter that leaves while another still waits, is canceled when the last
// waiter leaves — a canceled or drained job must not keep a core busy —
// and a later request starts a fresh build instead of inheriting the
// canceled one.
func TestCharCacheCancelsAbandonedBuild(t *testing.T) {
	c := newCharCache(0)
	builds := make(chan context.Context, 2)
	build := func(ctx context.Context) (*finser.Characterization, error) {
		builds <- ctx
		<-ctx.Done()
		return nil, ctx.Err()
	}

	ctx1, leave1 := context.WithCancel(context.Background())
	ctx2, leave2 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() { _, err := c.get(ctx1, "job", build); errs <- err }()
	bctx := <-builds
	go func() { _, err := c.get(ctx2, "job", build); errs <- err }()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.entries["job"].waiters == 2
	})

	leave1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: %v, want its own cancellation", err)
	}
	if bctx.Err() != nil {
		t.Fatal("build canceled while a waiter remained")
	}
	leave2()
	<-errs
	select {
	case <-bctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("build kept running after its last waiter left")
	}

	ctx3, leave3 := context.WithCancel(context.Background())
	defer leave3()
	go c.get(ctx3, "job", build)
	select {
	case <-builds:
	case <-time.After(5 * time.Second):
		t.Fatal("a new request did not start a fresh build")
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCharFailureBoundedPerRun: a characterization that fails every time
// is built at most the shard attempt budget times per job run — not once
// per attempt of every shard — and the job fails naming the fault.
func TestCharFailureBoundedPerRun(t *testing.T) {
	// With Workers=1 a failing build stops at its first variation sample,
	// so the sample site's hit count is the number of builds.
	faults := finser.NewFaultHooks()
	for hit := int64(1); hit <= 100; hit++ {
		faults.ErrorAt(finser.FaultSiteSample, hit, errors.New("injected cell-model fault"))
	}
	s := New(Config{Workers: 1, Faults: faults})
	s.Start()
	defer s.Drain(context.Background())

	st, err := s.Submit(JobRequest{Vdd: 0.7, Samples: 8, ItersPerBin: 200, AlphaBins: 2, ProtonBins: 2, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, _ = s.Status(st.ID)
		return st.State.Terminal()
	})
	if st.State != StateFailed || !strings.Contains(st.Error, "injected cell-model fault") {
		t.Fatalf("job ended %s (%q), want failed naming the fault", st.State, st.Error)
	}
	if got := faults.Hits(finser.FaultSiteSample); got != dist.DefaultShardAttempts {
		t.Errorf("characterization built %d times, want the %d-attempt budget", got, dist.DefaultShardAttempts)
	}
}
