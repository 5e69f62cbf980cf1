package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"plim"
	"plim/internal/diskcache"
	"plim/internal/trace"
)

// tableI-disk: the paper reproduction as users run it. Each iteration runs
// RunSuite(TableIConfigs(), all 18) at shrink 1 twice, each time on a fresh
// engine — like a new plimtab process — over one persistent cache
// directory: first empty (cold: generate, rewrite, compile, disk writes),
// then primed (disk-warm: disk reads and compile).

// tracedIterations is how many iterations a traced run measures: a fixed
// number, so its counts depend on the seed alone.
const tracedIterations = 2

// setupShrink is the datapath divisor of the set-up iteration, which runs
// the same cold and warm passes on small benchmarks before timing starts.
const setupShrink = 4

// suitePass is one measured RunSuite call.
type suitePass struct {
	dur    time.Duration
	jobs   sample // per-benchmark job latencies, ms
	sr     *plim.SuiteResult
	disk   plim.CacheCounters
	sched  plim.SchedStats
	probes [2]uint64 // memory tier hits, misses
	tr     *plim.Trace
}

func runPass(ctx context.Context, dir string, shrink, workers int, traced bool) (*suitePass, error) {
	p := &suitePass{}
	eng := plim.NewEngine(plim.WithWorkers(workers), plim.WithShrink(shrink), plim.WithPersistentCache(dir), plim.WithTrace(traced))
	pctx := plim.ContextWithProgress(ctx, func(ev plim.Event) {
		if d, ok := ev.(plim.EventBenchmarkDone); ok {
			p.jobs = append(p.jobs, ms(d.Elapsed))
		}
	})
	t0 := time.Now()
	sr, err := eng.RunSuite(pctx, plim.TableIConfigs())
	p.dur = time.Since(t0)
	if err != nil {
		return nil, err
	}
	p.sr = sr
	p.disk, _ = eng.PersistentCacheStats()
	p.sched = eng.SchedulerStats()
	p.probes[0], p.probes[1] = eng.MemoryCacheProbes()
	p.tr = eng.TakeTrace()
	return p, nil
}

// iteration runs one cold pass and one disk-warm pass over a fresh
// directory.
func iteration(ctx context.Context, dir string, shrink, workers int, traced bool) (cold, warm *suitePass, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if cold, err = runPass(ctx, dir, shrink, workers, traced); err != nil {
		return nil, nil, err
	}
	if warm, err = runPass(ctx, dir, shrink, workers, traced); err != nil {
		return nil, nil, err
	}
	return cold, warm, nil
}

// checkIteration checks an iteration's passes: byte-identical Table I
// CSVs that match the committed digest (when want is set), and a disk-warm
// pass without rewrite or benchmark misses.
func checkIteration(cold, warm *suitePass, want string) error {
	a, err := tableICSV(cold.sr)
	if err != nil {
		return err
	}
	b, err := tableICSV(warm.sr)
	if err != nil {
		return err
	}
	switch {
	case a != b:
		return fmt.Errorf("Table I CSV differs between the cold and the disk-warm pass")
	case want != "" && sha256Hex(a) != want:
		return fmt.Errorf("Table I CSV digest %s, reference %s", sha256Hex(a), want)
	case warm.disk.RewriteMisses != 0 || warm.disk.BenchmarkMisses != 0:
		return fmt.Errorf("disk-warm pass missed %d rewrites and %d benchmarks", warm.disk.RewriteMisses, warm.disk.BenchmarkMisses)
	}
	return nil
}

func runTableDisk(ctx context.Context, cfg *runConfig) (*runResult, error) {
	setupDir := filepath.Join(cfg.work, "setup")
	setup := func() (struct{}, error) {
		cold, warm, err := iteration(ctx, setupDir, setupShrink, cfg.workers, false)
		if err == nil {
			err = checkIteration(cold, warm, "")
		}
		return struct{}{}, err
	}
	_, setupTimes, err := setupRepeated(setup, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	res := newResult()
	colds, warms, jobs, cells, busy := tableWindow(ctx, cfg, false, res)
	tail, pct := jobs.tailOrMax()
	res.set("setup_s", "s", setupTimes.median())
	res.set("a.lat_p50_ms", "ms", colds.median())
	res.set("b.lat_p50_ms", "ms", warms.median())
	res.set("lat_tail_ms", "ms", tail)
	res.set("work_per_s", "1/s", ratio(cells, busy))
	res.record["setup_s"] = metric{setupTimes.median(), "s"}
	res.record["suite_cold_s"] = metric{colds.median() / 1000, "s"}
	res.record["suite_disk_warm_s"] = metric{warms.median() / 1000, "s"}
	res.record["iterations"] = len(colds)
	res.record["job_tail_ms"] = metric{tail, "ms"}
	res.record["job_tail_percentile"] = pct
	if cfg.traced {
		lr := newLayerReport()
		res.layers = lr
		tcolds, _, _, _, _ := tableWindow(ctx, cfg, true, res)
		lr.set("trace.overhead_ratio", ratio(tcolds.median(), colds.median()))
		lr.set("compile.us_per_inst", ratio(1000*lr.vals["compile.ms"], lr.aux["insts"]))
		lr.set("core.rewrite_hit_ratio", ratio(lr.aux["memory hits"], lr.vals["core.probes"]))
		lr.set("suite.hit_ratio", ratio(lr.aux["benchmark hits"], lr.aux["benchmark probes"]))
		if err := replayDisk(cfg, lr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tableWindow runs iterations until the window has elapsed (at least one;
// exactly tracedIterations when traced) and returns the cold and warm pass times (ms), the per-benchmark job
// latencies (ms), and the suite cells (benchmark × configuration reports)
// produced per busy second. Traced windows also fill res.layers.
func tableWindow(ctx context.Context, cfg *runConfig, traced bool, res *runResult) (colds, warms, jobs sample, cells, busy float64) {
	dir := filepath.Join(cfg.work, "cache")
	start := time.Now()
	for i := 0; traced && i < tracedIterations || !traced && time.Since(start) < cfg.window; i++ {
		sp := trace.StartNoCtx(trace.NewContext(ctx, cfg.tr), "suite", "iteration")
		cold, warm, err := iteration(ctx, dir, 1, cfg.workers, traced)
		sp.End()
		res.attempted += 2
		if err == nil {
			err = checkIteration(cold, warm, cfg.digests.tableICSV)
		}
		if err != nil {
			res.fail("iteration %d: %v", len(colds), err)
			res.failed++ // both passes of the iteration count as failed
			continue
		}
		for _, p := range []*suitePass{cold, warm} {
			jobs = append(jobs, p.jobs...)
			busy += p.dur.Seconds()
			cells += float64(len(p.sr.Benchmarks) * len(p.sr.Configs))
			if traced {
				accountPass(p, res.layers)
			}
		}
		colds = append(colds, ms(cold.dur))
		warms = append(warms, ms(warm.dur))
	}
	return colds, warms, jobs, cells, busy
}

// accountPass adds one traced pass to the per-layer report: stage totals
// and span counts of the engine's trace, scheduler, memory-tier and disk
// counters of its engine.
func accountPass(p *suitePass, lr *layerReport) {
	lr.add("suite.calls", 1)
	if p.tr != nil {
		for _, st := range p.tr.Totals() {
			switch st.Name {
			case "queue":
				lr.add("sched.queue_wait_ms", ms(st.Dur))
			case "generate":
				lr.add("suite.generate_ms", ms(st.Dur))
			case "rewrite":
				lr.add("rewrite.ms", ms(st.Dur))
			case "compile":
				lr.add("compile.ms", ms(st.Dur))
			}
		}
		for _, sp := range p.tr.Spans() {
			switch {
			case sp.Kind == "compile":
				lr.add("compile.runs", 1)
			case sp.Name == "rewrite-probe" && slices.Contains(sp.Attrs, trace.Attr{Key: "outcome", Value: "compute"}):
				lr.add("rewrite.runs", 1)
			}
		}
	}
	var insts int
	for _, row := range p.sr.Reports {
		for _, rep := range row {
			insts += rep.NumInstructions()
		}
	}
	lr.aux["insts"] += float64(insts)
	for _, h := range p.sched.Latency {
		lr.add("sched.tasks", float64(h.Count))
	}
	for _, n := range p.sched.Steals {
		lr.add("sched.steals", float64(n))
	}
	lr.set("sched.max_injector_wait_ms", max(lr.vals["sched.max_injector_wait_ms"], 1000*p.sched.MaxInjectorWaitSeconds))
	lr.add("core.probes", float64(p.probes[0]+p.probes[1]))
	lr.aux["memory hits"] += float64(p.probes[0])
	d := p.disk
	lr.add("diskcache.hits", float64(d.RewriteHits+d.BenchmarkHits))
	lr.add("diskcache.misses", float64(d.RewriteMisses+d.BenchmarkMisses))
	lr.aux["benchmark hits"] += float64(d.BenchmarkHits)
	lr.aux["benchmark probes"] += float64(d.BenchmarkHits + d.BenchmarkMisses)
}

// replayDisk times the disk tier from outside, on the directory the last
// traced iteration primed: every benchmark and rewrite entry the disk-warm
// pass read is loaded again through diskcache.Cache.Load*, then stored
// into an empty directory through Store*, as the cold pass wrote it.
func replayDisk(cfg *runConfig, lr *layerReport) error {
	src, err := diskcache.Open(filepath.Join(cfg.work, "cache"))
	if err != nil {
		return err
	}
	dstDir := filepath.Join(cfg.work, "replay")
	if err := os.RemoveAll(dstDir); err != nil {
		return err
	}
	dst, err := diskcache.Open(dstDir)
	if err != nil {
		return err
	}
	effort := plim.DefaultEffort
	for _, name := range plim.Benchmarks() {
		var m *plim.MIG
		var ok bool
		lr.add("diskcache.read_ms", timed(cfg.tr, "diskcache", "LoadBenchmark "+name, func() { m, ok = src.LoadBenchmark(name, 1) }))
		if !ok {
			return fmt.Errorf("disk replay: benchmark %s missing from the primed directory", name)
		}
		var werr error
		lr.add("diskcache.write_ms", timed(cfg.tr, "diskcache", "StoreBenchmark "+name, func() { werr = dst.StoreBenchmark(name, 1, m) }))
		if werr != nil {
			return werr
		}
		fp := m.Fingerprint()
		for _, kind := range []plim.RewriteKind{plim.RewriteNone, plim.RewriteAlgorithm1, plim.RewriteAlgorithm2} {
			var rw *plim.MIG
			var st plim.RewriteStats
			lr.add("diskcache.read_ms", timed(cfg.tr, "diskcache", "LoadRewrite "+name, func() { rw, st, ok = src.LoadRewrite(fp, uint8(kind), effort) }))
			if !ok {
				return fmt.Errorf("disk replay: %s rewrite %v missing from the primed directory", name, kind)
			}
			lr.add("diskcache.write_ms", timed(cfg.tr, "diskcache", "StoreRewrite "+name, func() { werr = dst.StoreRewrite(fp, uint8(kind), effort, rw, st) }))
			if werr != nil {
				return werr
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join(cfg.work, "cache"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			lr.add("diskcache.bytes", float64(info.Size()))
		}
	}
	return nil
}
