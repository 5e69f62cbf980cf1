// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload against the public API — an in-process plimserve behind
// a loopback listener, or plim.Engine directly — checks every output
// against an independent reference, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer breakdown of a traced run) as the last line
// of standard output:
//
//	bash e2ebench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// README.md in this directory documents the workloads, the metrics and
// which layer metric is expected to move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"plim/internal/trace"
)

// workerCap bounds client connections and engine workers, so hosts with
// more cores run the same concurrency.
const workerCap = 2

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    int64
	window  time.Duration // measured time of one run
	traced  bool
	workers int
	work    string // scratch directory inside the checkout
	digests *digestTable
	tr      *trace.Trace // the benchmark's own spans (traced runs only)
}

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order; README.md gives each one's meaning per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"a.lat_p50_ms", "ms"},
	{"b.lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"work_per_s", "1/s"},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what a workload measured.
type runResult struct {
	attempted, failed int
	failures          []string          // first few failure messages
	metrics           map[string]metric // the contract's metrics
	record            map[string]any    // per-workload metrics by descriptive name, sample counts
	layers            *layerReport      // traced runs only
}

func newResult() *runResult {
	return &runResult{metrics: map[string]metric{}, record: map[string]any{}}
}

// fail counts one failed or incorrect operation.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *runConfig) (*runResult, error){
	"serve-mix":    runServeMix,
	"execute-bulk": runExecuteBulk,
	"tableI-disk":  runTableDisk,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: serve-mix, execute-bulk or tableI-disk")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same requests")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		digests = flag.String("digests", "e2ebench/digests.tsv", "reference digest table")
		regen   = flag.Bool("write-digests", false, "recompute the digest table from this checkout's program and write it to -digests")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !*regen && (!ok || *seconds < 1 || (*traced != 0 && *traced != 1)) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload %s, --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work"))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	ctx := context.Background()
	if *regen {
		if err := writeDigests(ctx, *digests); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	dt, err := loadDigests(*digests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	cfg := &runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		workers: min(workerCap, runtime.NumCPU()),
		work:    filepath.Join(work, *name),
		digests: dt,
	}
	if cfg.traced {
		cfg.tr = trace.New() // the benchmark's own spans
	}
	if err := os.RemoveAll(cfg.work); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	steal0, total0 := cpuTimes()
	res, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	_ = os.RemoveAll(cfg.work) // scratch only; a leftover directory is cleared by the next run
	steal1, total1 := cpuTimes()
	res.record["cpu_steal_ratio"] = ratio(steal1-steal0, total1-total0)
	return report(*name, cfg, res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the provenance record and, as the last line, the result
// object; it returns the exit code: non-zero when any check failed.
func report(name string, cfg *runConfig, res *runResult) int {
	res.record["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
	res.record["fail_ratio"] = metric{ratio(float64(res.failed), float64(res.attempted)), "ratio"}
	metrics := res.metrics
	if cfg.traced {
		metrics = res.layers.metrics()
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
		if err := writeChrome(cfg.tr, path); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: trace export:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "e2ebench: Chrome trace of the benchmark's spans: %s\n", path)
		res.layers.printTable(os.Stderr, name)
		res.record["count_mismatches"] = res.layers.checkRepeat(filepath.Join(".bench_build", "counts", fmt.Sprintf("%s-seed%d.json", name, cfg.seed)))
	} else {
		metrics["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
		for _, m := range endToEnd {
			if got, ok := metrics[m.name]; !ok || got.Unit != m.unit {
				fmt.Fprintf(os.Stderr, "e2ebench: %s did not report %s in %s\n", name, m.name, m.unit)
				return 1
			}
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: FAILED: %s\n", name, f)
	}
	rec := map[string]any{
		"workload": name,
		"seed":     cfg.seed,
		"traced":   cfg.traced,
		"host":     hostFacts(),
		"metrics":  res.record,
	}
	line(rec)
	line(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if res.failed > 0 {
		return 1
	}
	return 0
}

func line(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers and strings always encode
	}
	fmt.Println(string(b))
}

// hostFacts records where and from what a result was measured, so results
// are compared only between runs on the same host and source.
func hostFacts() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout without a repository reports "unknown" (sourceDigest still
// identifies the code).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(l, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// cpuTimes reads the host's cumulative steal time and total CPU time, in
// clock ticks, from /proc/stat. The steal share over a run says how much
// CPU the hypervisor gave to other guests meanwhile: runs with a high share
// measured a slower machine. Both are 0 where /proc/stat is unavailable.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	first, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(first)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// rssPeakMB is the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
