package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"plim"
)

// execute-bulk: one batch-simulation caller that waits for each reply.
var (
	bulkPrograms = []string{"multiplier", "div", "sqrt", "ctrl"}
	bulkSizes    = []int{16 << 10, 32 << 10, 64 << 10}
)

// tracedCycles is how many cycles through every (vector set, encoding)
// pair a traced run sends.
const tracedCycles = 2

// bulkBodyLimit keeps every body under the server's default 8 MiB request
// limit, with room for the request line.
const bulkBodyLimit = 8<<20 - 4<<10

// bulkBatch is one (program, size) input set with both body encodings.
type bulkBatch struct {
	bench       string
	batch       *plim.Batch
	packed, nd  []byte
	reference   []byte // the first response body, checked against mig.Eval
	mismatches  int    // later responses that differed from reference
	static      uint64 // static per-run writes of the program (verify)
	fingerprint string
}

// planBulk builds the seeded vector sets: every program at every size,
// capped so the NDJSON form (one "0101" line per vector) fits the body
// limit. Sizes are fixed, so each seed asks for the same work; the seed
// decides the vectors and the request order.
func planBulk(seed int64, traced bool) ([]*bulkBatch, []int) {
	rng := rand.New(rand.NewSource(seed))
	var out []*bulkBatch
	for _, bench := range bulkPrograms {
		info, _ := plim.LookupBenchmark(bench)
		for _, size := range bulkSizes {
			n := min(size, (bulkBodyLimit/(info.PI+1))&^63)
			bb := &bulkBatch{bench: bench, batch: plim.RandomBatch(info.PI, n, rng.Int63())}
			bb.packed = mustMarshal(computeBody{Benchmark: bench, Config: "full", VectorsPacked: packWire(bb.batch), Output: "packed", Trace: traced})
			var nd strings.Builder
			nd.Write(mustMarshal(computeBody{Benchmark: bench, Config: "full", Output: "packed", Trace: traced}))
			nd.WriteByte('\n')
			for _, v := range bb.batch.Strings() {
				nd.WriteString(v)
				nd.WriteByte('\n')
			}
			bb.nd = []byte(nd.String())
			out = append(out, bb)
		}
	}
	// The request sequence cycles through a seeded permutation of every
	// (vector set, encoding) pair.
	order := rng.Perm(2 * len(out))
	return out, order
}

func (bb *bulkBatch) request(ndjson bool) *request {
	if ndjson {
		return &request{class: "execute-ndjson", key: bb.bench, path: "/v1/execute", ctype: "application/x-ndjson", body: bb.nd}
	}
	return &request{class: "execute-packed", key: bb.bench, path: "/v1/execute", ctype: "application/json", body: bb.packed}
}

// bulkSetup starts a server and compiles each program once through
// /v1/compile with verification, recording its static write count.
func bulkSetup(ctx context.Context, workers int, batches []*bulkBatch) (*served, error) {
	s, err := startServed(workers)
	if err != nil {
		return nil, err
	}
	static := map[string]*compileReply{}
	for _, bench := range bulkPrograms {
		var o outcome
		s.c.do(ctx, &request{path: "/v1/compile", body: mustMarshal(computeBody{Benchmark: bench, Config: "full", Verify: true})}, &o)
		var r compileReply
		if err := decodeReply(&o, &r); err != nil {
			s.stop()
			return nil, fmt.Errorf("compile %s: %w", bench, err)
		}
		if r.Verification == nil || !r.Verification.OK {
			s.stop()
			return nil, fmt.Errorf("compile %s: verification failed", bench)
		}
		static[bench] = &r
	}
	for _, bb := range batches {
		r := static[bb.bench]
		bb.static, bb.fingerprint = r.Verification.TotalWrites, r.Verification.Fingerprint
	}
	return s, nil
}

// bulkWindow runs the closed loop for the run's window, in whole cycles
// through every (vector set, encoding) pair. Each response is
// compared byte for byte with the first response for the same vector set
// (the JSON and NDJSON forms answer identically); only those first bodies
// are kept, and checked after the window.
// A traced window sends exactly tracedCycles cycles, so its counts depend
// on the seed alone.
func bulkWindow(ctx context.Context, s *served, cfg *runConfig, batches []*bulkBatch, order []int, traced bool, res *runResult) ([]outcome, []*bulkBatch) {
	var used []*bulkBatch
	cycle, window := len(order), cfg.window
	if traced {
		cycle, window = tracedCycles*len(order), 0
	}
	outs := closedLoop(ctx, s.c, func(i int) *request {
		k := order[i%len(order)]
		bb := batches[k/2]
		used = append(used, bb)
		return bb.request(k%2 == 1)
	}, cycle, window, cfg.tr)
	for i := range outs {
		o, bb := &outs[i], used[i]
		if !o.ok() {
			continue
		}
		if bb.reference == nil {
			bb.reference = o.body
		} else if !traced && !bytes.Equal(bb.reference, o.body) {
			bb.mismatches++
		}
		if !traced {
			o.body = nil
		}
	}
	return outs, used
}

// checkBulk checks one first response: counts and fingerprint against the
// compile-time verification, writes against static writes × vectors, and
// outputs against mig.Eval of the source benchmark.
func checkBulk(bb *bulkBatch, body []byte, srcs *benchSources) error {
	var r executeReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	n := bb.batch.Len()
	switch {
	case r.Fault != nil:
		return fmt.Errorf("%s: unexpected endurance fault", bb.bench)
	case r.Vectors != n || r.Chunks != bb.batch.Chunks():
		return fmt.Errorf("%s: %d vectors in %d chunks, want %d in %d", bb.bench, r.Vectors, r.Chunks, n, bb.batch.Chunks())
	case r.Fingerprint != bb.fingerprint:
		return fmt.Errorf("%s: executed program %s, compiled %s", bb.bench, r.Fingerprint, bb.fingerprint)
	case r.Writes.Total != bb.static*uint64(n):
		return fmt.Errorf("%s: %d writes, want static %d × %d vectors", bb.bench, r.Writes.Total, bb.static, n)
	}
	src, err := srcs.get(bb.bench)
	if err != nil {
		return err
	}
	return checkOutputs(src, bb.batch, r.OutputsPack)
}

// checkBulkWindow counts and checks every request of a window.
func checkBulkWindow(outs []outcome, used []*bulkBatch, res *runResult) {
	srcs := &benchSources{}
	checked := map[*bulkBatch]error{}
	for i := range outs {
		res.attempted++
		o, bb := &outs[i], used[i]
		if !o.ok() {
			res.fail("request %d (%s): status %d: %v", i, bb.bench, o.status, o.err)
			continue
		}
		err, done := checked[bb]
		if !done {
			err = checkBulk(bb, bb.reference, srcs)
			checked[bb] = err
		}
		if err != nil {
			res.fail("request %d: %v", i, err)
		}
	}
	for bb := range checked {
		for ; bb.mismatches > 0; bb.mismatches-- {
			res.fail("%s: a response differed from the first response for the same vectors", bb.bench)
		}
	}
}

func runExecuteBulk(ctx context.Context, cfg *runConfig) (*runResult, error) {
	batches, order := planBulk(cfg.seed, false)
	setup := func() (*served, error) { return bulkSetup(ctx, cfg.workers, batches) }
	s, setupTimes, err := setupRepeated(setup, (*served).stop)
	if err != nil {
		return nil, err
	}
	res := newResult()
	outs, used := bulkWindow(ctx, s, cfg, batches, order, false, res)
	s.stop()
	checkBulkWindow(outs, used, res)

	var all, packed, nd sample
	var vectors, busy float64
	for i := range outs {
		o := &outs[i]
		l := ms(o.latency)
		all = append(all, l)
		busy += l
		if o.ok() {
			vectors += float64(used[i].batch.Len())
		}
		if i2 := order[i%len(order)]; i2%2 == 1 {
			nd = append(nd, l)
		} else {
			packed = append(packed, l)
		}
	}
	tail, pct := all.tailOrMax()
	vps := ratio(vectors, busy/1000)
	res.set("setup_s", "s", setupTimes.median())
	res.set("a.lat_p50_ms", "ms", packed.median())
	res.set("b.lat_p50_ms", "ms", nd.median())
	res.set("lat_tail_ms", "ms", tail)
	res.set("work_per_s", "1/s", vps)
	res.record["setup_s"] = metric{setupTimes.median(), "s"}
	res.record["lat_p50_ms"] = metric{all.median(), "ms"}
	res.record["lat_tail_ms"] = metric{tail, "ms"}
	res.record["tail_percentile"] = pct
	res.record["samples"] = len(all)
	res.record["vectors_per_s"] = metric{vps, "1/s"}
	if cfg.traced {
		if err := tracedExecuteBulk(ctx, cfg, all.median(), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedExecuteBulk replays the same seed with "trace": true on a fresh
// server and fills the per-layer report from the responses' trace blocks.
func tracedExecuteBulk(ctx context.Context, cfg *runConfig, untracedP50 float64, res *runResult) error {
	batches, order := planBulk(cfg.seed, true)
	s, err := bulkSetup(ctx, cfg.workers, batches)
	if err != nil {
		return err
	}
	lr := newLayerReport()
	res.layers = lr
	before := snapshotServed(ctx, s)
	outs, used := bulkWindow(ctx, s, cfg, batches, order, true, res)
	after := snapshotServed(ctx, s)
	s.stop()
	after.sub(before, lr)

	var overhead, lat sample
	var compiled, wordInsts float64
	for i := range outs {
		o, bb := &outs[i], used[i]
		res.attempted++
		lr.add("loadgen.sent", 1)
		lr.add("server.resp_bytes", float64(len(o.body)))
		lat = append(lat, ms(o.latency))
		var r executeReply
		if err := decodeReply(o, &r); err != nil || r.Trace == nil || r.Fingerprint != bb.fingerprint || r.Vectors != bb.batch.Len() {
			res.fail("traced request %d (%s): failed or without a trace block", i, bb.bench)
			continue
		}
		lr.addTrace(r.Trace, !o.coalesced)
		lr.add("exec.chunks", float64(r.Chunks))
		overhead = append(overhead, ms(o.service)-r.Trace.WallMS)
		if n, _ := r.Trace.spans("compile"); n > 0 {
			compiled += float64(r.Instructions)
		}
		wordInsts += float64(r.Chunks) * float64(r.Instructions)
	}
	lr.set("server.overhead_p50_ms", overhead.median())
	lr.set("compile.us_per_inst", ratio(1000*lr.vals["compile.ms"], compiled))
	lr.set("exec.ns_per_word_inst", ratio(1e6*lr.vals["exec.ms"], wordInsts))
	lr.set("trace.overhead_ratio", ratio(lat.median(), untracedP50))
	return nil
}
