package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"finser"
	"finser/internal/events"
	"finser/internal/rng"
	"finser/internal/server"
)

// serveRate is the arrival rate of serve-mixed, in jobs per second: about
// half the capacity of the 2-worker server on this job mix, measured on a
// 2-core host (mean job run ≈ 0.84 s, so capacity ≈ 2.4 jobs/s).
const serveRate = 1.2

// serveWorkers is the server's worker pool; every job pins workers: 1.
const serveWorkers = 2

// serveVdds are the supply voltages fresh characterization keys draw from.
var serveVdds = []float64{0.7, 0.8, 0.9, 1.0, 1.1}

// serveJob is one planned arrival.
type serveJob struct {
	due    time.Duration
	tenant string
	req    server.JobRequest
	repeat bool // reuses an earlier job's characterization key
}

// charKey is what a characterization depends on.
type charKey struct {
	vdd     float64
	samples int
	seed    uint64
}

// blockJobs is the size of one block of the serve-mixed plan.
const blockJobs = 4

// servePlan draws the serve-mixed arrivals for one window. Arrivals are
// Poisson, conditioned on blockJobs arrivals in every blockJobs/rate
// seconds, so every run offers the same load. Each block holds one job of
// the interactive tenant "ui" and three of the batch tenant "bulk"; three
// jobs with 8 PV samples and one with 16; two at 1 000 and two at 3 000
// particles per bin (6 alpha and 8 proton bins); two flat and two at
// fit_rel_err 0.05; and two jobs that reuse the characterization key (vdd,
// samples, seed) of an earlier job under a different budget or tolerance,
// so no two jobs share a fingerprint. Fresh keys deal their voltage from a
// shuffled deck of serveVdds, so each run characterizes at every voltage
// equally often.
func servePlan(seed uint64, seconds, rate float64) []serveJob {
	src := rng.New(deriveSeed(seed, 10))
	blocks := int(rate * seconds / blockJobs)
	if blocks < 1 {
		blocks = 1
	}
	span := blockJobs / rate
	shuffled := func(xs ...int) []int {
		for i := len(xs) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			xs[i], xs[j] = xs[j], xs[i]
		}
		return xs
	}
	type budget struct{ iters, tol int }
	used := map[charKey]map[budget]bool{}
	var keys []charKey
	// reuse returns the earliest key with the given sample count that still
	// has a free budget, preferring b, so reuse spreads evenly over keys.
	reuse := func(samples int, b budget) (charKey, budget, bool) {
		for _, k := range keys {
			if k.samples != samples {
				continue
			}
			for _, alt := range []budget{b, {0, 0}, {0, 1}, {1, 0}, {1, 1}} {
				if !used[k][alt] {
					return k, alt, true
				}
			}
		}
		return charKey{}, b, false
	}
	var deck []int
	nextVdd := func() float64 {
		if len(deck) == 0 {
			deck = shuffled(indices(len(serveVdds))...)
		}
		v := serveVdds[deck[0]]
		deck = deck[1:]
		return v
	}
	var plan []serveJob
	for blk := 0; blk < blocks; blk++ {
		dues := make([]float64, blockJobs)
		for i := range dues {
			dues[i] = span * (float64(blk) + src.Float64())
		}
		sort.Float64s(dues)
		tenants, samples := shuffled(0, 1, 1, 1), shuffled(0, 0, 0, 1)
		iters, tols, repeats := shuffled(0, 0, 1, 1), shuffled(0, 0, 1, 1), shuffled(0, 0, 1, 1)
		for i := 0; i < blockJobs; i++ {
			b := budget{iters[i], tols[i]}
			n := []int{8, 16}[samples[i]]
			key, repeat := charKey{}, false
			if repeats[i] == 1 {
				key, b, repeat = reuse(n, b)
			}
			if !repeat {
				key = charKey{vdd: nextVdd(), samples: n, seed: src.Uint64()}
				keys = append(keys, key)
				used[key] = map[budget]bool{}
			}
			used[key][b] = true
			j := serveJob{
				due:    time.Duration(dues[i] * float64(time.Second)),
				tenant: "bulk",
				repeat: repeat,
				req: server.JobRequest{
					Vdd: key.vdd, ProcessVariation: true, Samples: key.samples, Seed: key.seed,
					ItersPerBin: []int{1000, 3000}[b.iters], FitRelErr: []float64{0, 0.05}[b.tol],
					AlphaBins: 6, ProtonBins: 8, Workers: 1, Class: "batch",
				},
			}
			if tenants[i] == 0 {
				j.tenant, j.req.Class = "ui", "interactive"
			}
			plan = append(plan, j)
		}
	}
	return plan
}

// indices returns 0, 1, ..., n-1.
func indices(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// jobFlowConfig is the FlowConfig the server derives from a request.
func jobFlowConfig(r server.JobRequest) finser.FlowConfig {
	return finser.FlowConfig{
		Vdd: r.Vdd, Rows: r.Rows, Cols: r.Cols,
		ProcessVariation: r.ProcessVariation, Samples: r.Samples,
		ItersPerBin: r.ItersPerBin, AlphaBins: r.AlphaBins, ProtonBins: r.ProtonBins,
		Seed: r.Seed, Workers: r.Workers, FITRelErr: r.FitRelErr, Guard: finser.GuardWarn,
	}
}

// checkJob is the serve-mixed output check: the job ended done with finite,
// consistent results and, when adaptive, valid convergence records.
func checkJob(st server.JobStatus) error {
	if st.State != server.StateDone || st.Result == nil || st.FinishedAt == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	for _, c := range []struct {
		name string
		r    finser.FITResult
	}{{"alpha", st.Result.Alpha}, {"proton", st.Result.Proton}} {
		if err := checkFIT(c.name, c.r); err != nil {
			return fmt.Errorf("job %s: %w", st.ID, err)
		}
		if st.Request.FitRelErr > 0 {
			if err := checkConv(c.name, c.r); err != nil {
				return fmt.Errorf("job %s: %w", st.ID, err)
			}
		}
	}
	return nil
}

// daemon is one in-process serd core listening on loopback.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startDaemon builds a durable server in dir (journal and per-job
// checkpoints on), recovers, starts its workers and serves it on a loopback
// port.
func startDaemon(dir string, reg *finser.Metrics) (*daemon, error) {
	srv := server.New(server.Config{
		DataDir: dir, Workers: serveWorkers, Metrics: reg, Guard: finser.GuardWarn,
	})
	if _, err := srv.Recover(); err != nil {
		return nil, fmt.Errorf("server recover: %w", err)
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop drains the server (closing its journal) and then the listener,
// waiting for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.hs.Shutdown(ctx)
	<-d.done
}

// client is the load generator's HTTP side: one connection for
// submissions and polls, and one for the event stream of a sampled job, so
// the load never holds more connections than nproc.
type client struct {
	ctl, sse *http.Client
}

func newClient() *client {
	one := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return &client{ctl: one(), sse: one()}
}

func (c *client) close() {
	c.ctl.CloseIdleConnections()
	c.sse.CloseIdleConnections()
}

// submit posts one job and returns its status and the HTTP code.
func (c *client) submit(url string, j serveJob) (server.JobStatus, int, error) {
	body, err := json.Marshal(j.req)
	if err != nil {
		return server.JobStatus{}, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return server.JobStatus{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", j.tenant)
	resp, err := c.ctl.Do(req)
	if err != nil {
		return server.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&st)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode, err
}

// list fetches every job's status.
func (c *client) list(url string) ([]server.JobStatus, error) {
	resp, err := c.ctl.Get(url + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sts []server.JobStatus
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs: %s", resp.Status)
	}
	return sts, json.NewDecoder(resp.Body).Decode(&sts)
}

// awaitAll polls until every listed job is terminal.
func (c *client) awaitAll(url string, ids []string, timeout time.Duration) (map[string]server.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		sts, err := c.list(url)
		if err != nil {
			return nil, err
		}
		byID := map[string]server.JobStatus{}
		for _, st := range sts {
			byID[st.ID] = st
		}
		pending := 0
		for _, id := range ids {
			if !byID[id].State.Terminal() {
				pending++
			}
		}
		if pending == 0 {
			return byID, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d jobs still pending after %v", pending, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// watch reads one job's event stream to its end and returns each event's
// lag: receipt minus publish time, in ms.
func (c *client) watch(url, id string) ([]float64, error) {
	resp, err := c.sse.Get(url + "/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var lags []float64
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev events.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("event stream of %s: %w", id, err)
		}
		if ev.Type != events.TypeGap {
			lags = append(lags, float64(time.Now().UnixMilli()-ev.TimeMs))
		}
	}
	return lags, sc.Err()
}

// servePhase is one serving window: set-up, Poisson arrivals for seconds,
// then the wait for every job to finish.
type servePhase struct {
	setups   []float64
	plan     []serveJob
	lat      []float64 // per planned job, +Inf when it did not finish done and checked
	late     []float64 // send time minus due time
	submitMs []float64
	shed     int
	failed   int
	sts      []server.JobStatus // every job on the timed server, warm-up included
	byPlan   []server.JobStatus // aligned with plan (zero when not admitted)
	lags     []float64          // event lag of watched jobs, ms
	alloc    float64            // MB per job
	gc       float64            // GC cycles per job
}

// runServePhase runs one window of the plan. Set-up, repeated setups times
// on fresh data directories named after tag, is: start the server and
// serve one small warm-up job to done. The last server, warm, takes the
// timed load; reg (may be nil) is attached to it only. With watch set, a
// sampler follows the event stream of every job submitted while it is
// idle.
func runServePhase(e env, tag string, plan []serveJob, setups int, reg *finser.Metrics, watch bool) (*servePhase, error) {
	ph := &servePhase{plan: plan}
	cl := newClient()
	defer cl.close()
	var d *daemon
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		var r *finser.Metrics
		if k == setups-1 {
			r = reg
		}
		var err error
		if d, err = startDaemon(filepath.Join(e.dir, fmt.Sprintf("%s-%d", tag, k)), r); err != nil {
			return nil, err
		}
		warm := serveJob{tenant: "bulk", req: server.JobRequest{
			Vdd: 0.8, ProcessVariation: true, Samples: 8, ItersPerBin: 1000, AlphaBins: 6, ProtonBins: 8,
			Seed: deriveSeed(e.seed, 12, uint64(k)), Workers: 1,
		}}
		st, code, err := cl.submit(d.url, warm)
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("HTTP %d", code)
		}
		var sts map[string]server.JobStatus
		if err == nil {
			if sts, err = cl.awaitAll(d.url, []string{st.ID}, 60*time.Second); err == nil {
				err = checkJob(sts[st.ID])
			}
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		// Set-up ends when the server finished the job, not when a poll
		// noticed.
		ph.setups = append(ph.setups, sts[st.ID].FinishedAt.Sub(t0).Seconds())
		if k < setups-1 {
			d.stop()
		}
	}
	defer d.stop()

	ids := make([]string, len(ph.plan))
	// The sampler alone appends to ph.lags; wg.Wait orders that before
	// any read.
	var wg sync.WaitGroup
	toWatch := make(chan string)
	if watch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range toWatch {
				lags, err := cl.watch(d.url, id)
				if err != nil {
					fmt.Fprintln(os.Stderr, "finbench: watch:", err)
					continue
				}
				ph.lags = append(ph.lags, lags...)
			}
		}()
	}
	var byID map[string]server.JobStatus
	var start time.Time
	var runErr error
	ph.alloc, ph.gc = memDelta(func() int {
		start = time.Now()
		for i, j := range ph.plan {
			time.Sleep(time.Until(start.Add(j.due)))
			sent := time.Now()
			ph.late = append(ph.late, sent.Sub(start.Add(j.due)).Seconds())
			st, code, err := cl.submit(d.url, j)
			ph.submitMs = append(ph.submitMs, 1e3*since(sent))
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "finbench: submit %d: %v\n", i, err)
			case code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests:
				ph.shed++
			case code != http.StatusAccepted:
				fmt.Fprintf(os.Stderr, "finbench: submit %d: HTTP %d\n", i, code)
			default:
				ids[i] = st.ID
				if watch {
					select {
					case toWatch <- st.ID:
					default: // the sampler is busy with an earlier job
					}
				}
			}
		}
		var admitted []string
		for _, id := range ids {
			if id != "" {
				admitted = append(admitted, id)
			}
		}
		byID, runErr = cl.awaitAll(d.url, admitted, 150*time.Second)
		return len(ph.plan)
	})
	close(toWatch)
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	ph.byPlan = make([]server.JobStatus, len(ph.plan))
	for i, j := range ph.plan {
		st, ok := byID[ids[i]]
		if !ok {
			ph.failed++
			ph.lat = append(ph.lat, math.Inf(1))
			continue
		}
		ph.byPlan[i] = st
		if err := checkJob(st); err != nil {
			ph.failed++
			fmt.Fprintln(os.Stderr, "finbench: check failed:", err)
			ph.lat = append(ph.lat, math.Inf(1))
			continue
		}
		ph.lat = append(ph.lat, st.FinishedAt.Sub(start.Add(j.due)).Seconds())
	}
	all, err := cl.list(d.url)
	if err != nil {
		return nil, err
	}
	ph.sts = all
	return ph, nil
}

// servingLayers derives the server, qos, events and journal metrics of a
// traced phase; reg is the registry its timed server carried.
func servingLayers(ph *servePhase, reg *finser.Metrics) metrics {
	m := metrics{}
	var waits, uiWaits, bulkWaits []float64
	retries := 0.0
	for _, st := range ph.byPlan {
		if st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		w := st.StartedAt.Sub(st.SubmittedAt).Seconds()
		waits = append(waits, w)
		if st.Class == "interactive" {
			uiWaits = append(uiWaits, w)
		} else {
			bulkWaits = append(bulkWaits, w)
		}
		retries += float64(st.Retries)
	}
	s := readSnapshot(reg)
	jobs := float64(len(ph.sts))
	repeats := 0
	for _, j := range ph.plan {
		if j.repeat {
			repeats++
		}
	}
	m.set("server.jobs", jobs, "count")
	m.set("server.queue_wait_p50_s", median(waits), "s")
	m.set("server.queue_wait_p90_s", quantile(waits, 0.9), "s")
	m.set("server.run_p50_s", median(runTimes(ph.byPlan)), "s")
	m.set("server.submit_p90_ms", quantile(ph.submitMs, 0.9), "ms")
	m.set("server.shed", float64(ph.shed), "count")
	m.set("server.retries", retries, "count")
	m.set("qos.wait_ratio", ratio(median(bulkWaits), median(uiWaits)), "ratio")
	m.set("qos.interactive_wait_p50_s", median(uiWaits), "s")
	m.set("events.per_job", ratio(s.c("serd/events/published"), jobs), "count")
	m.set("events.sse_lag_ms", mean(ph.lags), "ms")
	m.set("journal.appends_per_job", ratio(s.c("serd/journal/appends"), jobs), "count")
	m.set("serve.char_repeat_frac", ratio(float64(repeats), float64(len(ph.plan))), "frac")
	return m
}

// runServeMixed is the serve-mixed workload: an open loop of Poisson
// arrivals into an in-process durable serd core over loopback HTTP. A job's
// latency runs from when it was due to be sent to its FinishedAt.
func runServeMixed(ctx context.Context, e env) (*outcome, error) {
	planSeed := deriveSeed(e.seed, 11)
	if !e.trace {
		ph, err := runServePhase(e, "serve", servePlan(planSeed, e.seconds, serveRate), setupReps, nil, false)
		if err != nil {
			return nil, err
		}
		return &outcome{setups: ph.setups, ops: ph.lat, attempted: len(ph.plan), failed: ph.failed}, nil
	}

	// Traced: an untraced window of half the length, which replays the
	// first half of the plan, gives the base for the tracing overhead; then
	// the traced window gives the layers.
	base, err := runServePhase(e, "base", servePlan(planSeed, e.seconds/2, serveRate), 1, nil, false)
	if err != nil {
		return nil, err
	}
	reg := finser.NewMetrics()
	ph, err := runServePhase(e, "serve", servePlan(planSeed, e.seconds, serveRate), 1, reg, true)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		setups:    ph.setups,
		ops:       ph.lat,
		attempted: len(base.plan) + len(ph.plan),
		failed:    base.failed + ph.failed,
	}
	s := readSnapshot(reg)
	jobs := len(ph.sts)
	m := servingLayers(ph, reg)
	m.merge(sramLayers(s, 1))
	m.merge(coreLayers(s, jobs))
	m.merge(splitLayers(s, sum(runTimes(ph.sts)), jobs))
	m.set("guard.violations", s.c("guard/violations"), "count")
	m.set("loadgen.late_p90_s", quantile(ph.late, 0.9), "s")
	m.set("go.alloc_mb_per_op", ph.alloc, "MB")
	m.set("go.gc_cycles_per_op", ph.gc, "count")
	// The same job ran untraced in the base window and traced here, so
	// the overhead is the median of per-job run-time ratios.
	var pairs []float64
	for i, b := range base.byPlan {
		bt, ok1 := runTime(b)
		tt, ok2 := runTime(ph.byPlan[i])
		if ok1 && ok2 {
			pairs = append(pairs, tt/bt)
		}
	}
	m.set("obs.trace_overhead_frac", median(pairs)-1, "frac")
	m.set("obs.untraced_op_s", median(runTimes(base.byPlan)), "s")

	// Sampled jobs, one flat and one adaptive, must be bit-identical to
	// RunFlowCtx on the same configuration and worker count.
	var sample *finser.FlowResult
	var sampleCfg finser.FlowConfig
	for _, adaptive := range []bool{false, true} {
		for _, st := range ph.byPlan {
			if st.Result == nil || (st.Request.FitRelErr > 0) != adaptive {
				continue
			}
			cfg := jobFlowConfig(st.Request)
			want, err := finser.RunFlowCtx(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("reference flow for job %s: %w", st.ID, err)
			}
			for _, c := range []struct {
				name      string
				got, want finser.FITResult
			}{{"alpha", st.Result.Alpha, want.Alpha}, {"proton", st.Result.Proton, want.Proton}} {
				if err := checkIdentical(st.ID+" "+c.name, c.got, c.want); err != nil {
					out.fail("%v", err)
				}
			}
			sample, sampleCfg = want, cfg
			break
		}
	}
	if sample == nil {
		return nil, fmt.Errorf("serve-mixed: no job finished to sample")
	}
	var use budgetUse
	for _, st := range ph.byPlan {
		if st.Result != nil {
			use.add(st.Request.ItersPerBin, st.Result.Alpha, st.Result.Proton)
		}
	}
	m.set("core.adaptive_budget_frac", use.frac(), "frac")
	probes, err := layerProbes(ctx, e, sample.Char, sampleCfg, sample.Alpha, sample.Proton)
	if err != nil {
		return nil, err
	}
	m.merge(probes)
	out.layers = m
	return out, nil
}

// runTime is a job's FinishedAt − StartedAt; false when it never ran.
func runTime(st server.JobStatus) (float64, bool) {
	if st.StartedAt == nil || st.FinishedAt == nil {
		return 0, false
	}
	return st.FinishedAt.Sub(*st.StartedAt).Seconds(), true
}

// runTimes lists the run times of the jobs that ran.
func runTimes(sts []server.JobStatus) []float64 {
	var out []float64
	for _, st := range sts {
		if t, ok := runTime(st); ok {
			out = append(out, t)
		}
	}
	return out
}

// servingProbeSeconds is the arrival window of the serving probe a traced
// closed-loop run adds.
const servingProbeSeconds = 6

// servingProbe gives a traced closed-loop run its serving-layer metrics: a
// short serve-mixed window whose server, qos, events and journal numbers
// are merged into m. Its jobs count as attempted operations.
func servingProbe(e env, out *outcome, m metrics) error {
	reg := finser.NewMetrics()
	ph, err := runServePhase(e, "probe", servePlan(deriveSeed(e.seed, 13), servingProbeSeconds, serveRate), 1, reg, true)
	if err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	out.attempted += len(ph.plan)
	out.failed += ph.failed
	m.merge(servingLayers(ph, reg))
	return nil
}
