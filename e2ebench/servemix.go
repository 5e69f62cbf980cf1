package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"plim"
	"plim/internal/trace"
)

// serve-mix: an open loop of independent clients at two fixed Poisson
// rates, about 5% and 11% of the in-process server's saturation throughput
// for this mix on a 2-CPU host; README.md says why they are that low.
const (
	mixLoRPS     = 40
	mixHiRPS     = 80
	goodputLimit = 250 * time.Millisecond
	mixTailP     = 0.90 // lat_tail_ms: this quantile of both phases' latencies
	zipfS        = 1.1  // popularity skew of the compile keys
)

// mixItem is one serve-mix request before encoding.
type mixItem struct {
	kind   string // compile, netlist or execute
	bench  string
	config string
	verify bool
	text   string      // netlist: the .mig text sent
	src    *plim.MIG   // netlist: the submitted function
	batch  *plim.Batch // execute: the input vectors
}

func (it *mixItem) request(traced bool) *request {
	switch it.kind {
	case "netlist":
		return &request{class: "netlist", key: it.src.Name, path: "/v1/compile",
			body: mustMarshal(computeBody{Netlist: it.text, Config: "full", Emit: "binary", Trace: traced})}
	case "execute":
		return &request{class: "execute", key: digestKey(it.bench, it.config), path: "/v1/execute",
			body: mustMarshal(computeBody{Benchmark: it.bench, Config: it.config, VectorsPacked: packWire(it.batch), Output: "packed", Trace: traced})}
	}
	return &request{class: "compile", key: digestKey(it.bench, it.config), path: "/v1/compile",
		body: mustMarshal(computeBody{Benchmark: it.bench, Config: it.config, Verify: it.verify, Trace: traced})}
}

// mixPhase is one fixed-rate phase of the open loop.
type mixPhase struct {
	name  string
	items []*mixItem
	reqs  []*request
	due   []time.Duration
}

// planMix generates both phases from the seed. Class shares and key
// popularity are quotas (the same for every seed); the seed decides the
// order, the arrival times, the netlists and the vectors.
func planMix(seed int64, window time.Duration, traced bool) []*mixPhase {
	rng := rand.New(rand.NewSource(seed))
	var phases []*mixPhase
	for _, p := range []struct {
		name string
		rps  int
	}{{"lo", mixLoRPS}, {"hi", mixHiRPS}} {
		n := int(float64(p.rps) * window.Seconds())
		ph := &mixPhase{name: p.name, items: mixItems(rng, n, p.name)}
		ph.due = poissonSchedule(rng, n, window)
		for _, it := range ph.items {
			ph.reqs = append(ph.reqs, it.request(traced))
		}
		phases = append(phases, ph)
	}
	return phases
}

// mixPopularity is the popularity rank order of the benchmarks: smallest
// circuit first (MIG nodes at shrink 1), so service users mostly compile
// small control logic and the large arithmetic circuits form the tail.
var mixPopularity = []string{
	"int2float", "ctrl", "router", "dec", "priority", "cavlc", "i2c", "adder", "bar",
	"max", "log2", "voter", "sin", "mem_ctrl", "sqrt", "square", "multiplier", "div",
}

// mixKeys lists the 18 benchmarks × 5 Table I configurations in popularity
// rank order: benchmark by benchmark, configurations in column order.
func mixKeys() [][2]string {
	var keys [][2]string
	for _, b := range mixPopularity {
		for _, c := range plim.TableIConfigs() {
			keys = append(keys, [2]string{b, c.Name})
		}
	}
	return keys
}

// zipfQuota splits n requests over k ranks in proportion to 1/(r+1)^s,
// rounding by largest remainder, so every seed offers the same popularity
// profile.
func zipfQuota(n, k int, s float64) []int {
	w := make([]float64, k)
	var sum float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		sum += w[r]
	}
	q := make([]int, k)
	rem := make([]float64, k)
	left := n
	for r := range w {
		exact := float64(n) * w[r] / sum
		q[r] = int(exact)
		rem[r] = exact - float64(q[r])
		left -= q[r]
	}
	for ; left > 0; left-- {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		q[best]++
		rem[best] = -1
	}
	return q
}

// mixItems draws one phase's n requests: 75% benchmark compiles (a fifth of
// them verified, a tenth write-capped), 15% compiles of unique inline
// netlists and 10% small executes.
func mixItems(rng *rand.Rand, n int, phase string) []*mixItem {
	nNet, nExec := n*15/100, n*10/100
	nComp := n - nNet - nExec
	keys := mixKeys()
	var items []*mixItem
	for r, c := range zipfQuota(nComp, len(keys), zipfS) {
		for ; c > 0; c-- {
			items = append(items, &mixItem{kind: "compile", bench: keys[r][0], config: keys[r][1]})
		}
	}
	// Flags go by position in rank order, so which keys are verified or
	// capped is the same for every seed too.
	for i, it := range items {
		switch i % 10 {
		case 0, 5:
			it.verify = true
		case 3:
			it.config += capSuffix
		}
	}
	for i := 0; i < nNet; i++ {
		m := randomNetlist(rng, fmt.Sprintf("net_%s_%d", phase, i), 6+2*(i%4))
		var b strings.Builder
		if err := m.Write(&b); err != nil {
			panic(err) // writing to a strings.Builder cannot fail
		}
		items = append(items, &mixItem{kind: "netlist", src: m, text: b.String()})
	}
	e := 0
	for r, c := range zipfQuota(nExec, len(keys), zipfS) {
		info, _ := plim.LookupBenchmark(keys[r][0])
		for ; c > 0; c-- {
			items = append(items, &mixItem{kind: "execute", bench: keys[r][0], config: keys[r][1],
				batch: plim.RandomBatch(info.PI, 64*(1+e%16), rng.Int63())})
			e++
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return spreadHeavy(items)
}

// mixHeavy is how many of the largest benchmarks (the tail of
// mixPopularity) count as heavy: their compiles take tens of milliseconds,
// against about one for the rest of the mix.
const mixHeavy = 4

// spreadHeavy keeps the shuffled order but moves the heavy requests to
// evenly spaced positions. Clustered heavy requests queue behind one
// another, and how often that happens would otherwise depend on the seed
// more than on the server.
func spreadHeavy(items []*mixItem) []*mixItem {
	heavy := mixPopularity[len(mixPopularity)-mixHeavy:]
	var hs, rest []*mixItem
	for _, it := range items {
		if it.kind != "netlist" && slices.Contains(heavy, it.bench) {
			hs = append(hs, it)
		} else {
			rest = append(rest, it)
		}
	}
	out := make([]*mixItem, 0, len(items))
	for j, it := range hs {
		// Heavy request j goes to position (j+½)·n/h.
		take := min(max(0, (2*j+1)*len(items)/(2*len(hs))-len(out)), len(rest))
		out = append(out, rest[:take]...)
		rest = rest[take:]
		out = append(out, it)
	}
	return append(out, rest...)
}

// randomNetlist builds a small datapath of two w-bit operands (w even) the
// way RTL netlists arrive (plim.NewNetlistBuilder): a seeded constant mask,
// then one add, xor, maximum and multiply each, in seeded order. The fixed
// operation set keeps the cost of a netlist nearly independent of the seed.
func randomNetlist(rng *rand.Rand, name string, w int) *plim.MIG {
	b := plim.NewNetlistBuilder(name)
	x, y := b.Input("x", w), b.Input("y", w)
	acc := b.XorV(x, b.Const(uint64(rng.Int63n(1<<w)), w))
	for _, op := range rng.Perm(4) {
		switch op {
		case 0:
			acc, _ = b.Add(acc, y, plim.Const0)
		case 1:
			acc = b.XorV(acc, y)
		case 2:
			acc, _ = b.MaxU(acc, y)
		case 3:
			acc = b.Mul(acc[:w/2], y[:w/2])
		}
	}
	b.Output("z", acc)
	return b.M
}

// mixConfig resolves a serve-mix configuration name the way the server
// does: a Table I column with an optional write-cap suffix.
func mixConfig(name string) (plim.Config, error) {
	base, capped := strings.CutSuffix(name, capSuffix)
	for _, c := range plim.TableIConfigs() {
		if c.Name == base {
			if capped {
				c.MaxWrites = capWrites
				c.Name = name
			}
			return c, nil
		}
	}
	return plim.Config{}, fmt.Errorf("unknown configuration %q", name)
}

// checkMix checks one serve-mix response against its reference: compile
// results against the digest table, netlist programs and execute outputs
// against mig.Eval.
func checkMix(it *mixItem, o *outcome, dt *digestTable, srcs *benchSources) error {
	switch it.kind {
	case "compile":
		var r compileReply
		if err := decodeReply(o, &r); err != nil {
			return err
		}
		if err := dt.check(digestKey(it.bench, it.config), &r); err != nil {
			return err
		}
		if it.verify {
			if v := r.Verification; v == nil || !v.OK || v.TotalWrites != r.Writes.Total {
				return fmt.Errorf("%s: verification missing, failed or disagreeing with the write total", digestKey(it.bench, it.config))
			}
		}
	case "netlist":
		var r compileReply
		if err := decodeReply(o, &r); err != nil {
			return err
		}
		p, err := plim.ReadProgram(bytes.NewReader(r.ProgramBinary))
		if err != nil {
			return fmt.Errorf("%s: %w", it.src.Name, err)
		}
		in := plim.RandomBatch(it.src.NumPIs(), 256, int64(len(it.text)))
		res, err := plim.ExecuteBatch(p, in, plim.ExecOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", it.src.Name, err)
		}
		if err := checkOutputs(it.src, in, packWire(res.Outputs)); err != nil {
			return fmt.Errorf("%s: %w", it.src.Name, err)
		}
	case "execute":
		var r executeReply
		if err := decodeReply(o, &r); err != nil {
			return err
		}
		key := digestKey(it.bench, it.config)
		want, ok := dt.compile[key]
		switch {
		case !ok:
			return fmt.Errorf("%s: no reference digest", key)
		case r.Fault != nil || r.Vectors != it.batch.Len():
			return fmt.Errorf("%s: fault or vector count mismatch", key)
		case r.Writes.Total != want.total*uint64(it.batch.Len()):
			return fmt.Errorf("%s: %d writes, want %d × %d vectors", key, r.Writes.Total, want.total, it.batch.Len())
		}
		src, err := srcs.get(it.bench)
		if err != nil {
			return err
		}
		if err := checkOutputs(src, it.batch, r.OutputsPack); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

// warmServed starts a server and warms its benchmark generator and rewrite
// caches for every benchmark and rewrite kind, so measured requests find
// warm keys. The warm-up calls the caches directly rather than through the
// engine's scheduler, whose counters the traced run reports.
func warmServed(ctx context.Context, workers int) (*served, error) {
	s, err := startServed(workers)
	if err != nil {
		return nil, err
	}
	names := plim.Benchmarks()
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(names); i += workers {
				m, err := s.eng.Benchmark(names[i])
				for _, kind := range []plim.RewriteKind{plim.RewriteNone, plim.RewriteAlgorithm1, plim.RewriteAlgorithm2} {
					if err == nil {
						_, _, err = s.eng.Rewrite(ctx, m, kind)
					}
				}
				if err != nil {
					errs[i] = fmt.Errorf("warm-up %s: %w", names[i], err)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// mixWindow runs both phases against s and checks every response after
// the last phase. ok[p][i] reports whether response i of phase p was
// correct.
func mixWindow(ctx context.Context, s *served, phases []*mixPhase, workers int, tr *trace.Trace, dt *digestTable, res *runResult) (outs [][]outcome, ok [][]bool) {
	for _, ph := range phases {
		runtime.GC() // start every phase from the same heap state
		outs = append(outs, openLoop(ctx, s.c, ph.reqs, ph.due, workers, tr))
	}
	srcs := &benchSources{}
	for p, ph := range phases {
		ok = append(ok, make([]bool, len(ph.items)))
		for i, it := range ph.items {
			res.attempted++
			err := checkMix(it, &outs[p][i], dt, srcs)
			if err != nil {
				res.fail("%s phase, %s request %d: %v", ph.name, it.kind, i, err)
				continue
			}
			ok[p][i] = true
		}
	}
	return outs, ok
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runServeMix(ctx context.Context, cfg *runConfig) (*runResult, error) {
	phaseWindow := cfg.window / 2
	phases := planMix(cfg.seed, phaseWindow, false)
	setup := func() (*served, error) { return warmServed(ctx, cfg.workers) }
	s, setupTimes, err := setupRepeated(setup, (*served).stop)
	if err != nil {
		return nil, err
	}
	res := newResult()
	outs, ok := mixWindow(ctx, s, phases, cfg.workers, nil, cfg.digests, res)
	s.stop()

	var lat [2]sample
	for p, ph := range phases {
		// Goodput divides by the time from the phase start to its last
		// response, so a backlog that drains after the schedule ends lowers it.
		good, span := 0, time.Duration(0)
		for i := range ph.items {
			o := &outs[p][i]
			lat[p] = append(lat[p], ms(o.latency))
			span = max(span, ph.due[i]+o.latency)
			if ok[p][i] && o.latency <= goodputLimit {
				good++
			}
		}
		tail, pct := lat[p].tailOrMax()
		res.record[ph.name+".lat_p50_ms"] = metric{lat[p].median(), "ms"}
		res.record[ph.name+".lat_p99_ms"] = metric{tail, "ms"}
		res.record[ph.name+".tail_percentile"] = pct
		res.record[ph.name+".samples"] = len(lat[p])
		res.record[ph.name+".goodput_rps"] = metric{ratio(float64(good), span.Seconds()), "1/s"}
	}
	// lat_tail_ms is the p90 of both phases together, where unique netlists
	// and mid-sized compiles sit. Above about p97 lie only the ~60 compiles of
	// the largest circuits, whose speed moves from run to run with the host;
	// a tail read there (lo/hi.lat_p99_ms, kept in the record) spread past the
	// metric's bound between runs of the same code.
	both := append(append(sample(nil), lat[0]...), lat[1]...)
	res.record["lat_tail_percentile"] = 100 * mixTailP
	res.set("setup_s", "s", setupTimes.median())
	res.set("a.lat_p50_ms", "ms", lat[0].median())
	res.set("b.lat_p50_ms", "ms", lat[1].median())
	res.set("lat_tail_ms", "ms", both.quantile(mixTailP))
	res.set("work_per_s", "1/s", res.record["hi.goodput_rps"].(metric).Value)
	res.record["setup_s"] = metric{setupTimes.median(), "s"}
	res.record["goodput_limit_ms"] = ms(goodputLimit)
	if cfg.traced {
		if err := tracedServeMix(ctx, cfg, lat[1].median(), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedServeMix replays the same seed with "trace": true on a fresh,
// equally warmed server and fills the per-layer report.
func tracedServeMix(ctx context.Context, cfg *runConfig, untracedHiP50 float64, res *runResult) error {
	phases := planMix(cfg.seed, cfg.window/2, true)
	s, err := warmServed(ctx, cfg.workers)
	if err != nil {
		return err
	}
	lr := newLayerReport()
	res.layers = lr
	before := snapshotServed(ctx, s)
	outs, ok := mixWindow(ctx, s, phases, cfg.workers, cfg.tr, cfg.digests, res)
	after := snapshotServed(ctx, s)
	s.stop()
	after.sub(before, lr)

	var late, overhead, hiLat sample
	var insts, wordInsts float64
	for p, ph := range phases {
		for i, it := range ph.items {
			o := &outs[p][i]
			late = append(late, ms(o.late))
			lr.add("loadgen.sent", 1)
			lr.add("server.resp_bytes", float64(len(o.body)))
			if ph.name == "hi" {
				hiLat = append(hiLat, ms(o.latency))
			}
			if !ok[p][i] {
				continue
			}
			var r struct {
				Instructions int         `json:"instructions"`
				Chunks       int         `json:"chunks"`
				Trace        *traceBlock `json:"trace"`
			}
			if err := json.Unmarshal(o.body, &r); err != nil || r.Trace == nil {
				res.fail("%s request %d: traced response without a trace block", it.kind, i)
				continue
			}
			lr.addTrace(r.Trace, !o.coalesced)
			lr.add("exec.chunks", float64(r.Chunks))
			if !o.coalesced {
				overhead = append(overhead, ms(o.service)-r.Trace.WallMS)
				if n, _ := r.Trace.spans("compile"); n > 0 {
					insts += float64(r.Instructions)
				}
				wordInsts += float64(r.Chunks * r.Instructions)
			}
		}
	}
	lateTail, _ := late.tailOrMax()
	lr.set("loadgen.late_p99_ms", lateTail)
	lr.set("server.overhead_p50_ms", overhead.median())
	lr.set("compile.us_per_inst", ratio(1000*lr.vals["compile.ms"], insts))
	lr.set("exec.ns_per_word_inst", ratio(1e6*lr.vals["exec.ms"], wordInsts))
	lr.set("trace.overhead_ratio", ratio(hiLat.median(), untracedHiP50))
	return replayMix(ctx, s.eng, phases, cfg.tr, lr)
}

// replayMix times, from outside, what the program's trace does not
// separate: static verification of the verified compiles and parsing of
// the submitted netlists, each through the layer's public function.
func replayMix(ctx context.Context, eng *plim.Engine, phases []*mixPhase, tr *trace.Trace, lr *layerReport) error {
	programs := map[string]*plim.Program{}
	for _, ph := range phases {
		for _, it := range ph.items {
			switch {
			case it.kind == "netlist":
				var err error
				lr.add("mig.read_ms", timed(tr, "mig", "ReadMIG", func() { _, err = plim.ReadMIG(strings.NewReader(it.text)) }))
				if err != nil {
					return fmt.Errorf("netlist replay: %w", err)
				}
			case it.verify:
				c, err := mixConfig(it.config)
				if err != nil {
					return err
				}
				key := digestKey(it.bench, it.config)
				p, ok := programs[key]
				if !ok {
					m, err := eng.Benchmark(it.bench)
					if err != nil {
						return err
					}
					rep, err := eng.Run(ctx, m, c)
					if err != nil {
						return err
					}
					p = rep.Result.Program
					programs[key] = p
				}
				var vr *plim.VerifyReport
				lr.add("verify.ms", timed(tr, "verify", key, func() { vr = plim.Verify(p, plim.VerifyOptions{MaxWrites: c.MaxWrites}) }))
				lr.add("verify.runs", 1)
				if !vr.OK() {
					return fmt.Errorf("verify replay: %s: %v", key, vr.Err())
				}
			}
		}
	}
	return nil
}

// servedSnapshot holds the counters of a served engine that the traced
// run reports as deltas.
type servedSnapshot struct {
	tasks, steals      uint64
	maxInjectorWaitMS  float64
	memHits, memMisses uint64
	flights, coalesced float64
}

func snapshotServed(ctx context.Context, s *served) servedSnapshot {
	st := s.eng.SchedulerStats()
	var snap servedSnapshot
	for _, h := range st.Latency {
		snap.tasks += h.Count
	}
	for _, n := range st.Steals {
		snap.steals += n
	}
	snap.maxInjectorWaitMS = 1000 * st.MaxInjectorWaitSeconds
	snap.memHits, snap.memMisses = s.eng.MemoryCacheProbes()
	if body, err := s.c.get(ctx, "/metrics"); err == nil {
		snap.flights = promValue(body, "plimserve_flights_total")
		snap.coalesced = promValue(body, "plimserve_coalesced_requests_total")
	}
	return snap
}

// sub reports the counters accumulated between b and a.
func (a servedSnapshot) sub(b servedSnapshot, lr *layerReport) {
	lr.add("sched.tasks", float64(a.tasks-b.tasks))
	lr.add("sched.steals", float64(a.steals-b.steals))
	lr.set("sched.max_injector_wait_ms", a.maxInjectorWaitMS)
	hits, misses := float64(a.memHits-b.memHits), float64(a.memMisses-b.memMisses)
	lr.add("core.probes", hits+misses)
	lr.set("core.rewrite_hit_ratio", ratio(hits, hits+misses))
	flights, coalesced := a.flights-b.flights, a.coalesced-b.coalesced
	lr.set("server.coalesced_ratio", ratio(coalesced, flights+coalesced))
}

// promValue reads an unlabelled sample from a Prometheus text exposition.
func promValue(body []byte, name string) float64 {
	for _, l := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(l, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}
