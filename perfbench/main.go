// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the program's public packages, checks the
// outputs, and prints one JSON result line:
//
//	perfbench --workload table1_summary --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured from outside the
// program by timing calls into each layer's public functions. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setups is how many times each workload's set-up runs; setup_s is the
// median.
const setups = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	workers  int
	dir      string // work directory inside the checkout, removed at exit
	tr       *tracer

	attempted int64
	failed    int64
	checks    int      // failed output checks
	problems  []string // the first maxProblems of them
	metrics   map[string]metric
}

const maxProblems = 20

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	r.checks++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// layerMetrics lists every per-layer metric a traced run reports, in
// the order of BENCHMARK.json. A workload reports 0 for the layers it
// bypasses.
var layerMetrics = []struct{ name, unit string }{
	{"scenario.build_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.steps", "count"},
	{"sim.us_per_step", "us"},
	{"engine.idle_share", "ratio"},
	{"engine.executed", "count"},
	{"engine.lockstep_runs", "count"},
	{"engine.drain_ms", "ms"},
	{"engine.archived", "count"},
	{"engine.store_errors", "count"},
	{"engine.disk_hits", "count"},
	{"trace.jsonl_hash_ms", "ms"},
	{"trace.zyt_encode_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.put_io_ms", "ms"},
	{"store.bytes_written_mb", "MB"},
	{"store.open_ms", "ms"},
	{"store.lookup_us", "us"},
	{"store.trace_decode_ms", "ms"},
	{"server.handler_us", "us"},
	{"server.codec_us", "us"},
	{"core.estimate_us", "us"},
	{"core.tolerable_latency_us", "us"},
	{"core.conflict_share", "ratio"},
	{"predict.predict_us", "us"},
	{"predict.trajectories", "count"},
	{"safety.controller_us", "us"},
	{"http.overhead_us", "us"},
	{"latency_p99_us", "us"},
	{"bench.unaccounted_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"table1_summary":    runSummary,
	"table1_store_cold": runStoreCold,
	"store_warm":        runStoreWarm,
	"rate_loopback":     runRate,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Int("seconds", 10, "how long the timed phase measures")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		workers:  runtime.GOMAXPROCS(0),
		dir:      filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		tr:       newTracer(),
		metrics:  map[string]metric{},
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	err := drive(r)
	if rmErr := os.RemoveAll(r.dir); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove work directory: %v\n", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", r.tr.len(), path)
		for _, m := range layerMetrics {
			if _, ok := r.metrics[m.name]; !ok {
				r.set(m.name, 0, m.unit)
			}
		}
	} else {
		r.set("peak_rss_mb", float64(peakRSS())/(1<<20), "MB")
	}
	if r.failed > 0 {
		r.fail("%d of %d operations failed", r.failed, r.attempted)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if r.checks > len(r.problems) {
		fmt.Fprintf(os.Stderr, "perfbench: %d more checks failed\n", r.checks-len(r.problems))
	}
	out, err := json.Marshal(result{Correct: r.checks == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if r.checks > 0 {
		return 1
	}
	return 0
}

// peakRSS reports the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}

// measureSetup runs fn setups times, reports the median as setup_s and
// returns the last set-up's state; the earlier ones are released.
func measureSetup[T any](r *run, fn func() (T, error), release func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setups; i++ {
		if i > 0 {
			release(last)
		}
		runtime.GC()
		start := time.Now()
		st, err := fn()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return last, err
		}
		last = st
	}
	if !r.traced {
		r.set("setup_s", median(times), "s")
	}
	return last, nil
}
