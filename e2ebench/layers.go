package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"plim/internal/trace"
)

// role says which column of the per-layer table a metric belongs to.
type role int

const (
	busy  role = iota // time the layer spent working
	wait              // time work waited for the layer
	count             // work done, as a count
	share             // a hit or sharing ratio
	other             // sizes and normalised costs
)

// layerMetric is one per-layer metric of the traced run. exact counts
// depend only on the seed and must repeat from run to run.
type layerMetric struct {
	name, unit string
	role       role
	exact      bool
}

// layerMetrics lists every per-layer metric in report order; BENCHMARK.json
// names the same set.
var layerMetrics = []layerMetric{
	{"loadgen.late_p99_ms", "ms", wait, false},
	{"loadgen.sent", "count", count, true},
	{"server.overhead_p50_ms", "ms", busy, false},
	{"server.encode_ms", "ms", busy, false},
	{"server.resp_bytes", "bytes", other, false},
	{"server.coalesced_ratio", "ratio", share, false},
	{"sched.queue_wait_ms", "ms", wait, false},
	{"sched.tasks", "count", count, false},
	{"sched.steals", "count", other, false},
	{"sched.max_injector_wait_ms", "ms", other, false},
	{"suite.generate_ms", "ms", busy, false},
	{"suite.calls", "count", count, true},
	{"suite.hit_ratio", "ratio", share, false},
	{"core.rewrite_hit_ratio", "ratio", share, false},
	{"core.probes", "count", count, false},
	{"rewrite.ms", "ms", busy, false},
	{"rewrite.runs", "count", count, true},
	{"compile.ms", "ms", busy, false},
	{"compile.runs", "count", count, true},
	{"compile.us_per_inst", "us", other, false},
	{"verify.ms", "ms", busy, false},
	{"verify.runs", "count", count, true},
	{"exec.ms", "ms", busy, false},
	{"exec.chunks", "count", count, true},
	{"exec.ns_per_word_inst", "ns", other, false},
	{"diskcache.read_ms", "ms", busy, false},
	{"diskcache.write_ms", "ms", busy, false},
	{"diskcache.hits", "count", count, true},
	{"diskcache.misses", "count", other, true},
	{"diskcache.bytes", "bytes", other, false},
	{"mig.read_ms", "ms", busy, false},
	{"trace.overhead_ratio", "ratio", other, false},
}

// layerReport accumulates the per-layer metrics of one traced run. A layer
// the workload does not exercise reports 0.
type layerReport struct {
	vals map[string]float64
	aux  map[string]float64 // bases of ratios, not reported themselves
}

func newLayerReport() *layerReport {
	return &layerReport{vals: map[string]float64{}, aux: map[string]float64{}}
}

func (l *layerReport) add(name string, v float64) { l.vals[declared(name)] += v }

func (l *layerReport) set(name string, v float64) { l.vals[declared(name)] = v }

// declared returns name, panicking when layerMetrics does not list it: a
// misspelt metric is a bug in the benchmark.
func declared(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return name
		}
	}
	panic("e2ebench: undeclared layer metric " + name)
}

// addTrace accounts one traced server response. Counts include coalesced
// followers — each request counts the stages of the flight that served
// it, which depends on the seed alone — while times count each computation
// once, from its leader.
func (l *layerReport) addTrace(t *traceBlock, leader bool) {
	l.add("rewrite.runs", float64(t.rewrites()))
	compiles, _ := t.spans("compile")
	l.add("compile.runs", float64(compiles))
	if !leader {
		return
	}
	for kind, name := range map[string]string{
		"generate":   "suite.generate_ms",
		"rewrite":    "rewrite.ms",
		"compile":    "compile.ms",
		"exec_chunk": "exec.ms",
		"encode":     "server.encode_ms",
	} {
		_, ms := t.spans(kind)
		l.add(name, ms)
	}
	l.add("sched.queue_wait_ms", t.stage("queue"))
}

func (l *layerReport) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{l.vals[m.name], m.unit}
	}
	return out
}

// printTable writes the per-layer table: per layer its busy time, wait
// time, counts, ratios and the remaining metrics.
func (l *layerReport) printTable(w io.Writer, workload string) {
	fmt.Fprintf(w, "per-layer breakdown, workload %s (0 = layer not exercised)\n", workload)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tbusy ms\twait ms\tcounts\tratios\tother")
	var order []string
	rows := map[string]*[5][]string{}
	for _, m := range layerMetrics {
		layer, field, _ := strings.Cut(m.name, ".")
		r, ok := rows[layer]
		if !ok {
			r = new([5][]string)
			rows[layer] = r
			order = append(order, layer)
		}
		r[m.role] = append(r[m.role], fmt.Sprintf("%s=%.4g", field, l.vals[m.name]))
	}
	for _, layer := range order {
		r := rows[layer]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", layer,
			strings.Join(r[busy], " "), strings.Join(r[wait], " "), strings.Join(r[count], " "),
			strings.Join(r[share], " "), strings.Join(r[other], " "))
	}
	tw.Flush()
}

// checkRepeat compares the exact counts with those an earlier traced run
// of the same workload and seed stored at path, and stores them when path
// does not exist yet. It returns the counts that did not repeat.
func (l *layerReport) checkRepeat(path string) []string {
	cur := map[string]float64{}
	for _, m := range layerMetrics {
		if m.exact {
			cur[m.name] = l.vals[m.name]
		}
	}
	prev := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			_ = os.WriteFile(path, mustMarshal(cur), 0o644) // a missing file only skips the next comparison
		}
		return nil
	}
	if err := json.Unmarshal(b, &prev); err != nil {
		return []string{fmt.Sprintf("unreadable %s: %v", path, err)}
	}
	var bad []string
	for name, v := range cur {
		if p, ok := prev[name]; !ok || p != v {
			bad = append(bad, fmt.Sprintf("%s: %g, earlier run %g", name, v, p))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Fprintf(os.Stderr, "e2ebench: count did not repeat: %s\n", b)
	}
	return bad
}

// timed runs fn inside a span of tr (nil: untraced) and returns its wall
// time in milliseconds.
func timed(tr *trace.Trace, kind, name string, fn func()) float64 {
	sp := trace.StartNoCtx(trace.NewContext(context.Background(), tr), kind, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.End()
	return float64(d.Nanoseconds()) / 1e6
}

func writeChrome(tr *trace.Trace, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
