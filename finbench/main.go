// Command finbench is the repository's benchmark. It drives the finser flow
// through the public façade and the serving core from outside those
// packages, times one workload, checks its outputs, and prints one JSON
// result line.
//
//	bash finbench/run.sh --workload flow-default --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (see
// BENCHMARK.json); with --trace 1 it carries the per-layer metrics, taken
// from an obs registry, benchmark-side spans and layer probes. README.md in
// this directory explains the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named measurements. Non-finite values (a ratio over an
// empty base) are stored as 0 so the result line always encodes.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// merge copies every entry of o into m.
func (m metrics) merge(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	// workers is nproc: GOMAXPROCS and the pinned flow worker count.
	workers int
	// dir is the run's scratch directory inside the checkout.
	dir string
}

// outcome is what a workload returns. ops holds one latency per timed
// operation in seconds (+Inf for an operation that counts as over any
// limit); setups holds one duration per set-up repetition.
type outcome struct {
	setups    []float64
	ops       []float64
	attempted int
	failed    int
	// layers is filled on traced runs only.
	layers metrics
}

// fail records one failed operation with its reason on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "finbench: check failed: "+format+"\n", args...)
}

var workloads = map[string]func(context.Context, env) (*outcome, error){
	"flow-default": runFlowDefault,
	"fit-sweep":    runFitSweep,
	"serve-mixed":  runServeMixed,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: flow-default, fit-sweep or serve-mixed")
		seed     = flag.Uint64("seed", 1, "workload seed; every input is derived from it")
		seconds  = flag.Float64("seconds", 30, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "finbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	dir, err := filepath.Abs(filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "finbench: scratch directory:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := env{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: nproc, dir: dir}
	out, err := w(context.Background(), e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "finbench:", err)
		return 1
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "finbench: no operation attempted")
		return 1
	}

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics{},
	}
	if e.trace {
		res.Metrics.merge(out.layers)
		res.Metrics.set("repo.go_lines", float64(nonTestGoLines()), "count")
	} else {
		res.Metrics.set("setup_s", median(out.setups), "s")
		res.Metrics.set("op_p50_s", capLatency(quantile(out.ops, 0.5)), "s")
		res.Metrics.set("op_p90_s", capLatency(quantile(out.ops, 0.9)), "s")
		res.Metrics.set("ok_frac", 1-float64(out.failed)/float64(out.attempted), "frac")
		res.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	}

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"provenance": provenance(*workload, *seed, nproc)}); err != nil {
		fmt.Fprintln(os.Stderr, "finbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "finbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// failedLatency stands in for the latency of an operation that failed, was
// shed or was refused: it is over any limit, yet still encodes as JSON.
const failedLatency = 1e6

func capLatency(v float64) float64 {
	if math.IsInf(v, 1) || v > failedLatency {
		return failedLatency
	}
	return v
}

// peakRSSMB reads the process's peak resident set size (VmHWM). It is not
// taken from getrusage: ru_maxrss survives exec, so it would report the
// larger image of whatever process forked the benchmark's launcher.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// deriveSeed gives each operation its own seed, a pure function of the
// workload seed and the operation's labels (splitmix64 finalizer).
func deriveSeed(seed uint64, labels ...uint64) uint64 {
	x := seed
	for _, l := range labels {
		x = splitmix(x ^ splitmix(l+0x9e3779b97f4a7c15))
	}
	return x
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// closedLoop runs op back to back, one caller, for about seconds, in whole
// rounds of round operations: it starts another round only while a round
// of median-length operations still fits in the window, and always runs at
// least one. op times its own façade call and returns that duration; the
// gap between one operation's end and the next one's start (the checks in
// between) is returned as lateness.
func closedLoop(seconds float64, round int, op func(i int) time.Duration) (lat, late []float64) {
	start := time.Now()
	prevEnd := start
	for i := 0; ; i++ {
		if i > 0 && i%round == 0 {
			if el := since(start); el+median(lat)*float64(round) > seconds {
				return lat, late
			}
		}
		late = append(late, since(prevEnd))
		lat = append(lat, op(i).Seconds())
		prevEnd = time.Now()
	}
}

// memDelta measures allocation and GC work per operation across fn.
func memDelta(fn func() int) (allocMBPerOp, gcPerOp float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	n := fn()
	runtime.ReadMemStats(&b)
	if n < 1 {
		n = 1
	}
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20) / float64(n), float64(b.NumGC-a.NumGC) / float64(n)
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
