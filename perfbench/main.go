// Command perfbench is the repository's benchmark. It drives the GHSOM
// intrusion detector through one workload per invocation and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload serve-ndjson --seed 1 --seconds 16 --trace 0
//
// Workloads (see BENCHMARK.json for the reason behind each):
//
//   - serve-ndjson: one in-process serve.Registry replica on loopback
//     HTTP, model heap-loaded with LoadPipeline, 64-record NDJSON
//     requests; closed loop on nproc connections, then an open loop at
//     400 req/s.
//   - gateway-columnar: the cluster gateway (replication 1, no hedging)
//     in front of one replica whose model is mmap-loaded, 1024-record
//     GHSOMWB1 frames; closed loop, then an open loop at 200 req/s.
//
// Each run sets up once per training set (see data.go): it generates
// the set and the held-out traffic, trains with TrainPipeline's default
// batch rule, computes the oracle verdicts, saves and reloads the
// envelope and starts the servers. The last set-up's model serves the
// load, and after the load its set is trained once more.
//
// The end-to-end metrics are CPU times of this process, which hold the
// program and not the load generator. On a shared host the wall time of
// a run follows the other tenants' load, its CPU time the work done:
//
//   - cpu_us_per_rec: CPU time per record classified in the closed loop,
//     the median over its one-second slices;
//   - train_batch_cpu_s: CPU time of one TrainPipeline call, the mean
//     over the training sets;
//   - setup_s: CPU time of one set-up, the median over the set-ups;
//   - peak_rss_mb: the process's resident-set high-water mark.
//
// The wall-clock figures (closed-loop records/s, open-loop latency
// percentiles timed from each request's scheduled send, set-up wall
// time) are printed, and reported under "wall." as per-layer metrics of
// traced runs, with no bound.
//
// The load comes from a child process of this binary, which the run
// starts and waits for, so the generator's goroutines never queue for a
// scheduler slot behind the replica's.
//
// Every input derives from --seed: the training sets and the held-out
// traffic each come from their own sub-seed (see data.go), and the
// traced replay trains one Small-scenario set with the paper's online
// rule. Every verdict served is compared byte for byte with DetectBatch
// run in-process during set-up, and the retraining must give the same
// envelope bytes.
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no tracing. With --trace 1 the same phases run with in-memory
// spans around each request, and afterwards a serial replay calls each
// layer's public functions under spans; the result then carries the
// per-layer metrics, plus the end-to-end metrics measured under tracing
// (prefixed "traced.") so the tracing overhead is their difference from
// an untraced run. Spans are written to .bench_build/spans/.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"serve-ndjson":     func(r *run) error { return runServing(r, ndjsonSpec) },
	"gateway-columnar": func(r *run) error { return runServing(r, columnarSpec) },
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	// tr records spans when --trace 1; nil otherwise, and every tracer
	// method is a no-op on nil.
	tr *tracer
	// workDir holds the model envelopes this run writes.
	workDir string

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	problems []string
	e2e      map[string]metric
	layers   map[string]metric
}

// op counts one operation and whether it failed.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
	}
}

// wrong records an incorrect output; any makes the run incorrect. Only
// the first few are kept for the report.
func (r *run) wrong(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) endToEnd(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.e2e[name] = metric{v, unit}
}

func (r *run) layer(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layers[name] = metric{v, unit}
}

func main() {
	code, err := mainErr(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-ndjson or gateway-columnar")
	seed := fs.Int64("seed", 1, "workload seed, from which every input is generated")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	loadgen := fs.String("loadgen", "", "internal: run as the load generator on this plan file")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *loadgen != "" {
		if err := runLoadgen(*loadgen); err != nil {
			return 1, err
		}
		return 0, nil
	}
	drive, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return 1, fmt.Errorf("work directory: %w", err)
	}
	r.workDir = dir
	defer os.RemoveAll(dir)

	printLine(map[string]any{"host": hostInfo(r)})
	if err := drive(r); err != nil {
		return 1, err
	}
	r.endToEnd("peak_rss_mb", peakRSSMB(), "MB")

	res := result{Attempted: r.attempted.Load(), Failed: r.failed.Load()}
	res.Correct = len(r.problems) == 0 && res.Attempted > 0
	for _, p := range r.problems {
		fmt.Println("incorrect:", p)
	}
	res.Metrics = r.e2e
	if r.tr != nil {
		res.Metrics = r.layers
		for k, m := range r.e2e {
			res.Metrics["traced."+k] = m
		}
		if err := r.tr.write(fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", r.workload, r.seed)); err != nil {
			return 1, err
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	printLine(res)
	return 0, nil
}

// printLine writes v as one JSON line to standard output.
func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // a NaN or infinite metric: a bug in the benchmark
	}
	fmt.Println(string(b))
}

// hostInfo identifies the host, so numbers from different machines are
// not compared by mistake.
func hostInfo(r *run) map[string]any {
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.window.Seconds(),
		"trace":      r.tr != nil,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// processCPU is the CPU time this process has used so far, user and
// system, in seconds. The kernel counts only time the process ran, not
// time a shared host's other tenants took the CPU from it, so CPU-time
// figures hold still where wall-clock ones follow the neighbours' load.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// nproc is the load's concurrency bound: connections and goroutines.
func nproc() int { return runtime.NumCPU() }

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is reordered). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
