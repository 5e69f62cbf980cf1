// Package core assembles the paper's endurance-management scheme: it wires
// MIG rewriting (internal/rewrite), node selection and translation
// (internal/compile) and device allocation (internal/alloc) into the named
// configurations evaluated in Shirinzadeh et al., DATE 2017, Tables I–III.
//
// The five incremental configurations of Table I are:
//
//	naive       no rewriting, node-order selection, LIFO allocation
//	compiler21  Algorithm 1 rewriting + standard selection + LIFO ([21])
//	minwrite    compiler21 + the minimum-write-count allocator
//	rewriting   Algorithm 2 rewriting + standard selection + min-write
//	full        Algorithm 2 + Algorithm 3 selection + min-write
//
// Table III adds the maximum-write-count strategy on top of full:
// FullCap(w) for w ∈ {10, 20, 50, 100}.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"plim/internal/alloc"
	"plim/internal/compile"
	"plim/internal/cost"
	"plim/internal/diskcache"
	"plim/internal/memo"
	"plim/internal/mig"
	"plim/internal/progress"
	"plim/internal/rewrite"
	"plim/internal/sched"
	"plim/internal/stats"
	"plim/internal/suite"
	"plim/internal/verify"
)

// RewriteKind selects the rewriting algorithm applied before compilation.
type RewriteKind uint8

// Rewriting choices.
const (
	RewriteNone RewriteKind = iota
	RewriteAlgorithm1
	RewriteAlgorithm2
)

// String names the rewriting choice.
func (k RewriteKind) String() string {
	switch k {
	case RewriteNone:
		return "none"
	case RewriteAlgorithm1:
		return "algorithm1"
	case RewriteAlgorithm2:
		return "algorithm2"
	}
	return "?"
}

// DefaultEffort is the paper's MIG-rewriting cycle count (§IV).
const DefaultEffort = 5

// Config is one endurance-management configuration.
type Config struct {
	Name      string
	Rewrite   RewriteKind
	Selection compile.Selection
	Alloc     alloc.Kind
	MaxWrites uint64 // 0 = no maximum-write strategy
}

// The named configurations of the paper's evaluation.
var (
	// Naive benefits only from node translation (Table I column 1).
	Naive = Config{Name: "naive", Rewrite: RewriteNone, Selection: compile.NodeOrder, Alloc: alloc.LIFO}
	// Compiler21 is the DAC'16 PLiM compiler (Table I column 2).
	Compiler21 = Config{Name: "compiler21", Rewrite: RewriteAlgorithm1, Selection: compile.Standard, Alloc: alloc.LIFO}
	// MinWrite adds the minimum write count strategy (Table I column 3).
	MinWrite = Config{Name: "minwrite", Rewrite: RewriteAlgorithm1, Selection: compile.Standard, Alloc: alloc.MinWrite}
	// Rewriting swaps in the endurance-aware MIG rewriting (column 4).
	Rewriting = Config{Name: "rewriting", Rewrite: RewriteAlgorithm2, Selection: compile.Standard, Alloc: alloc.MinWrite}
	// Full adds the endurance-aware node selection (column 5).
	Full = Config{Name: "full", Rewrite: RewriteAlgorithm2, Selection: compile.Endurance, Alloc: alloc.MinWrite}
)

// FullCap is Full plus the maximum write count strategy (Table III).
func FullCap(w uint64) Config {
	c := Full
	c.Name = fmt.Sprintf("full+cap%d", w)
	c.MaxWrites = w
	return c
}

// TableIConfigs returns the five configurations of Table I in column order.
func TableIConfigs() []Config {
	return []Config{Naive, Compiler21, MinWrite, Rewriting, Full}
}

// Report is the outcome of running one configuration on one function.
type Report struct {
	Config  Config
	Rewrite rewrite.Stats
	// Result may be shared with other reports through a program tier
	// (Env.Programs, the engine's cache): treat it as read-only.
	Result *compile.Result
	// Writes summarizes the per-device write counts (paper's min/max/STDEV).
	Writes stats.Summary
	// Verify is the static verification report for the compiled program;
	// nil unless the run was verified (Env.Verify /
	// plim.WithVerify). A non-nil report has no hard violations — those
	// fail the compile — but may list dead-write warnings.
	Verify *verify.Report
	// Cost is the per-run price of the compiled program under the
	// configured cost model (Env.CostModel / plim.WithCostModel);
	// nil without one. When the run is verified, static and allocator cost
	// parity has been proven before this report exists.
	Cost *cost.Cost
}

// NumInstructions is the paper's #I.
func (r *Report) NumInstructions() int { return r.Result.NumInstructions }

// NumRRAMs is the paper's #R.
func (r *Report) NumRRAMs() int { return r.Result.NumRRAMs }

// Lifetime estimates how many executions of the compiled program a memory
// with the given per-device endurance survives.
func (r *Report) Lifetime(endurance uint64) uint64 {
	return stats.Lifetime(r.Result.WriteCounts, endurance)
}

// PipelineFor maps a rewrite kind onto its pass schedule. RewriteNone maps
// to a nil pipeline.
func PipelineFor(kind RewriteKind) ([]rewrite.Pass, error) {
	switch kind {
	case RewriteNone:
		return nil, nil
	case RewriteAlgorithm1:
		return rewrite.Algorithm1, nil
	case RewriteAlgorithm2:
		return rewrite.Algorithm2, nil
	}
	return nil, fmt.Errorf("core: unknown rewrite kind %d", kind)
}

// Rewrite applies kind's pass schedule to m for up to effort cycles. The
// input MIG is not modified. RewriteNone only drops dangling nodes (every
// configuration compiles live nodes only); its stats report the node
// counts with zero cycles. obs (which may be nil) receives a
// progress.RewriteCycle event — tagged with cfgName, which may be empty —
// after every completed cycle. On cancellation the MIG is nil and the
// error is ctx.Err().
func Rewrite(ctx context.Context, m *mig.MIG, kind RewriteKind, effort int, obs progress.Func, cfgName string) (*mig.MIG, rewrite.Stats, error) {
	pipeline, err := PipelineFor(kind)
	if err != nil {
		return nil, rewrite.Stats{}, err
	}
	if pipeline == nil {
		if err := ctx.Err(); err != nil {
			return nil, rewrite.Stats{}, err
		}
		out := m.Cleanup()
		st := rewrite.Stats{
			NodesBefore:    m.Statistics().MajNodes,
			NodesAfter:     out.Statistics().MajNodes,
			CompHistBefore: m.ComplementHistogram(),
			CompHistAfter:  out.ComplementHistogram(),
		}
		_, st.DepthBefore = m.Levels()
		_, st.DepthAfter = out.Levels()
		return out, st, nil
	}
	return rewrite.RunContext(ctx, m, pipeline, effort, func(cycle, nodes int) {
		obs.Emit(progress.RewriteCycle{
			Function: m.Name, Config: cfgName,
			Cycle: cycle, Effort: effort, Nodes: nodes,
		})
	})
}

// RewriteKey identifies a memoized rewrite: any structurally identical MIG
// (e.g. the same benchmark rebuilt by a later table) shares the entry.
type RewriteKey struct {
	FP     uint64
	Kind   RewriteKind
	Effort int
}

// Rewritten is a memoized rewrite result. The graph is shared between
// callers and must be treated as read-only.
type Rewritten struct {
	M     *mig.MIG
	Stats rewrite.Stats
}

// RewriteTier memoizes rewriting runs across configurations, benchmarks and
// engine calls, charging each result its frozen graph's estimated size.
type RewriteTier = memo.Tier[RewriteKey, Rewritten]

// NewRewriteTier returns a rewrite tier bounded at budget estimated bytes
// (≤ 0 = unbounded), backed by d when non-nil.
func NewRewriteTier(budget int, d *diskcache.Cache) *RewriteTier {
	o := memo.Options[RewriteKey, Rewritten]{
		Budget: budget,
		Cost:   func(r Rewritten) int { return r.M.MemSize() },
		Probe:  "rewrite-probe",
		Attr:   "fp",
		Label:  func(k RewriteKey) string { return fmt.Sprintf("%016x", k.FP) },
	}
	if d != nil {
		o.Disk = rewriteDisk{d}
	}
	return memo.New(o)
}

// rewriteDisk adapts the persistent tier's rewrite entries.
type rewriteDisk struct{ c *diskcache.Cache }

func (d rewriteDisk) Probe(k RewriteKey) (Rewritten, diskcache.ProbeOutcome) {
	m, st, out := d.c.ProbeRewrite(k.FP, uint8(k.Kind), k.Effort) // a hit decodes frozen
	return Rewritten{m, st}, out
}

func (d rewriteDisk) Store(k RewriteKey, r Rewritten) error {
	return d.c.StoreRewrite(k.FP, uint8(k.Kind), k.Effort, r.M, r.Stats)
}

// CachedRewrite is Rewrite memoized through t; a nil t rewrites directly.
// On a hit no progress events are emitted — the rewrite simply did not run
// again — and the result is shared and frozen (mig.MIG.Freeze): callers
// must not mutate it.
func CachedRewrite(ctx context.Context, t *RewriteTier, m *mig.MIG, kind RewriteKind, effort int, obs progress.Func, label string) (*mig.MIG, rewrite.Stats, error) {
	var fp uint64
	if t != nil {
		fp = m.Fingerprint()
	}
	return cachedRewrite(ctx, t, RewriteKey{fp, kind, effort}, m, obs, label)
}

// cachedRewrite is CachedRewrite with the key's fingerprint already taken.
func cachedRewrite(ctx context.Context, t *RewriteTier, key RewriteKey, m *mig.MIG, obs progress.Func, label string) (*mig.MIG, rewrite.Stats, error) {
	if err := ctx.Err(); err != nil {
		// Checked up front so a cancelled caller never races a ready cache
		// hit into returning a result.
		return nil, rewrite.Stats{}, err
	}
	if t == nil {
		return Rewrite(ctx, m, key.Kind, key.Effort, obs, label)
	}
	r, err := t.Get(ctx, key, func() (Rewritten, error) {
		out, st, err := Rewrite(ctx, m, key.Kind, key.Effort, obs, label)
		if err != nil {
			return Rewritten{}, err
		}
		if out == m && !m.Frozen() {
			// Effort 0 can hand the caller's own MIG back; the tier must
			// never retain a graph the caller may keep mutating.
			out = m.Clone()
		}
		out.Freeze()
		return Rewritten{out, st}, nil
	})
	return r.M, r.Stats, err
}

// Run rewrites m according to cfg (with the given effort) and compiles it.
// The input MIG is not modified. Cancellation is checked on entry, between
// rewrite cycles and before compilation; on cancellation the error is
// ctx.Err(). obs (which may be nil) receives a progress.RewriteCycle event
// after every completed rewrite cycle and a CompileStart/CompileDone pair
// around the compile/alloc stage.
func Run(ctx context.Context, m *mig.MIG, cfg Config, effort int, obs progress.Func) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cur, st, err := Rewrite(ctx, m, cfg.Rewrite, effort, obs, cfg.Name)
	if err != nil {
		return nil, err
	}
	return CompileConfig(ctx, cur, cfg, st, obs, nil, false, nil)
}

// ProgramKey identifies a memoized compilation: the rewrite that produced
// the compiled graph plus every compile.Options input a configuration sets.
// The cost model is keyed by value, so engines with equal models share
// entries; Priced distinguishes an unpriced compile from a zero model.
type ProgramKey struct {
	Rewrite   RewriteKey
	Selection compile.Selection
	Alloc     alloc.Kind
	MaxWrites uint64
	Model     cost.Model
	Priced    bool
}

// ProgramTier memoizes compiled programs across calls: for a given rewrite
// and policy the compiled program is a pure function of its key, so warm
// requests skip compilation. Entries are shared *compile.Result values and
// must be treated as read-only; verification and the Report stay per call.
type ProgramTier = memo.Tier[ProgramKey, *compile.Result]

// NewProgramTier returns a program tier bounded at budget estimated bytes
// (≤ 0 = unbounded). Programs are never persisted: the tier has no disk
// leg.
func NewProgramTier(budget int) *ProgramTier {
	return memo.New(memo.Options[ProgramKey, *compile.Result]{
		Budget: budget,
		Cost:   (*compile.Result).MemSize,
		Probe:  "program-probe",
		Attr:   "fp",
		Label:  func(k ProgramKey) string { return fmt.Sprintf("%016x", k.Rewrite.FP) },
	})
}

// CompileConfig runs the compile/alloc stage of one configuration on an
// already-rewritten MIG, emitting CompileStart/CompileDone progress events.
// rst is the rewriting statistics to attach to the report (the staged
// runner shares one rewrite across several configurations). Scratch state
// is drawn from pool; a nil pool falls back to the compile package's shared
// default pool, so the fast path is always allocation-lean.
//
// When doVerify is set, the compiled program is statically verified
// (internal/verify) before the report is returned: def-before-use, range,
// output liveness, the policy's wear cap and static-vs-allocator write
// parity. A hard violation fails the compile; dead-write warnings land in
// Report.Verify.
//
// cm, when non-nil, prices the compilation (compile.Options.CostModel);
// with doVerify additionally set, static-vs-allocator cost parity is
// checked and a divergence fails the compile like any other violation.
func CompileConfig(ctx context.Context, rewritten *mig.MIG, cfg Config, rst rewrite.Stats, obs progress.Func, pool *compile.ScratchPool, doVerify bool, cm *cost.Model) (*Report, error) {
	return compileConfig(ctx, nil, RewriteKey{}, rewritten, cfg, rst, obs, pool, doVerify, cm)
}

// compileConfig is CompileConfig served through the program tier t when
// non-nil, rk naming the rewrite that produced rewritten. Hit or miss, the
// progress events are emitted, the report is fresh and verification runs.
func compileConfig(ctx context.Context, t *ProgramTier, rk RewriteKey, rewritten *mig.MIG, cfg Config, rst rewrite.Stats, obs progress.Func, pool *compile.ScratchPool, doVerify bool, cm *cost.Model) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs.Emit(progress.CompileStart{Function: rewritten.Name, Config: cfg.Name})
	start := time.Now()
	copts := compile.Options{
		Selection: cfg.Selection,
		Alloc:     cfg.Alloc,
		MaxWrites: cfg.MaxWrites,
		CostModel: cm,
	}
	compute := func() (*compile.Result, error) {
		if pool != nil {
			return compile.CompileWith(rewritten, copts, pool)
		}
		return compile.Compile(rewritten, copts)
	}
	var res *compile.Result
	var err error
	if t != nil {
		key := ProgramKey{Rewrite: rk, Selection: cfg.Selection, Alloc: cfg.Alloc, MaxWrites: cfg.MaxWrites}
		if cm != nil {
			key.Model, key.Priced = *cm, true
		}
		res, err = t.Get(ctx, key, compute)
	} else {
		res, err = compute()
	}
	done := progress.CompileDone{
		Function: rewritten.Name, Config: cfg.Name,
		Elapsed: time.Since(start), Err: err,
	}
	if err == nil {
		done.Instructions = res.NumInstructions
		done.RRAMs = res.NumRRAMs
	}
	obs.Emit(done)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", cfg.Name, err)
	}
	report := &Report{
		Config:  cfg,
		Rewrite: rst,
		Result:  res,
		Writes:  stats.Summarize(res.WriteCounts),
		Cost:    res.Cost,
	}
	if doVerify {
		vr := verify.Program(res.Program, verify.Options{MaxWrites: cfg.MaxWrites, CostModel: cm})
		verify.CheckWriteParity(vr, res.WriteCounts, "allocator")
		if res.Cost != nil {
			verify.CheckCostParity(vr, *res.Cost, "allocator")
		}
		if err := vr.Err(); err != nil {
			return nil, fmt.Errorf("core: %s: %w", cfg.Name, err)
		}
		report.Verify = vr
	}
	return report, nil
}

// Stage is one rewrite stage of an execution plan: the set of planned
// configurations (as indices into the planned slice) that share a single
// rewriting pipeline and therefore a single rewritten MIG.
type Stage struct {
	Kind    RewriteKind
	Configs []int
}

// Plan groups configurations by rewriting kind, preserving the order of
// first appearance. The five Table I configurations plan into three
// stages: none{naive}, algorithm1{compiler21, minwrite} and
// algorithm2{rewriting, full} — so a staged run performs two rewrites
// instead of four.
func Plan(cfgs []Config) []Stage {
	var stages []Stage
	index := make(map[RewriteKind]int, 3)
	for i, cfg := range cfgs {
		si, ok := index[cfg.Rewrite]
		if !ok {
			si = len(stages)
			index[cfg.Rewrite] = si
			stages = append(stages, Stage{Kind: cfg.Rewrite})
		}
		stages[si].Configs = append(stages[si].Configs, i)
	}
	return stages
}

// stageLabel names a stage in RewriteCycle progress events: the sole
// configuration's name when the stage is private, the rewrite kind when it
// is shared.
func stageLabel(st Stage, cfgs []Config) string {
	if len(st.Configs) == 1 {
		return cfgs[st.Configs[0]].Name
	}
	return st.Kind.String()
}

// Env is the pipeline environment every entry point (RunStaged, Explore,
// tables.RunSuite) runs in: the scheduler, the memo tiers, the compile
// scratch pool, the progress sink and the per-compile verify and pricing
// switches. plim.Engine builds one per call from its own state. The zero
// Env runs on one transient worker, uncached, silent, unverified and
// unpriced.
type Env struct {
	// Sched executes the call's task graph; it is shared by every call of
	// one engine (and every server request), which then interleave at task
	// granularity. Nil runs the graph on one transient worker, in
	// deterministic depth-first order.
	Sched *sched.Pool
	// Benchmarks memoizes benchmark builds per (name, shrink); nil builds
	// afresh.
	Benchmarks *suite.Tier
	// Rewrites memoizes rewrite stages across calls; nil rewrites afresh.
	Rewrites *RewriteTier
	// Programs memoizes compiled programs across calls; nil compiles
	// afresh.
	Programs *ProgramTier
	// Scratch supplies reusable compile scratch state to every compile
	// task; nil uses the compile package's shared default pool.
	Scratch *compile.ScratchPool
	// Progress receives rewrite-cycle, compile start/done, benchmark and
	// scheduler task events. It may be invoked concurrently when the graph
	// runs on several workers.
	Progress progress.Func
	// Verify statically verifies every compiled program (see
	// CompileConfig); a hard violation fails that configuration's compile.
	Verify bool
	// CostModel, when non-nil, prices every compilation (Report.Cost) and
	// — with Verify set — proves static-vs-allocator cost parity.
	CostModel *cost.Model
}

// RunGraph builds one task graph with build and runs it to completion on
// env.Sched, or on a transient one-worker pool when Sched is nil. The
// graph's injector priority is ctx's deadline. The error is the graph
// context's: ctx.Err() itself on cancellation, nil otherwise.
func (env Env) RunGraph(ctx context.Context, build func(*sched.Graph)) error {
	pool := env.Sched
	if pool == nil {
		pool = sched.New(1)
		defer pool.Stop()
	}
	g := pool.NewGraph(ctx, env.Progress)
	build(g)
	return g.Wait()
}

// StagedGraph adds the staged plan of cfgs to graph g: one rewrite task
// per distinct rewriting pipeline, one compile task per configuration
// (depending on its stage's rewrite), all depending on dep when non-nil.
// mFn supplies the input MIG; it is called from task bodies after dep has
// completed and may return nil to signal that upstream work failed, in
// which case no stage runs and no events are emitted. Successful compiles
// write their reports into out (indexed like cfgs).
//
// The returned leaves are the plan's compile tasks (join/aggregation tasks
// should depend on them) and finish composes the plan's error in stage
// order; it must only be called after every leaf completed (e.g. from a
// task depending on all of them, or after Graph.Wait).
func StagedGraph(g *sched.Graph, dep *sched.Task, mFn func() *mig.MIG, cfgs []Config, env Env, effort int, out []*Report) (leaves []*sched.Task, finish func() error) {
	stages := Plan(cfgs)
	rks := make([]RewriteKey, len(stages))
	rms := make([]*mig.MIG, len(stages))
	rsts := make([]rewrite.Stats, len(stages))
	rwErrs := make([]error, len(stages))
	cmpErrs := make([]error, len(cfgs))
	leaves = make([]*sched.Task, 0, len(cfgs))
	for si, st := range stages {
		label := stageLabel(st, cfgs)
		rw := g.Task(sched.KindRewrite, label, func(ctx context.Context) {
			m := mFn()
			if m == nil {
				return // upstream failure; its error is reported there
			}
			rks[si] = RewriteKey{Kind: st.Kind, Effort: effort}
			if env.Rewrites != nil || env.Programs != nil {
				// One fingerprint keys both the rewrite and the program
				// probes (O(1) on the tiers' frozen graphs).
				rks[si].FP = m.Fingerprint()
			}
			rms[si], rsts[si], rwErrs[si] = cachedRewrite(ctx, env.Rewrites, rks[si], m, env.Progress, label)
		}, dep)
		for _, ci := range st.Configs {
			ct := g.Task(sched.KindCompile, cfgs[ci].Name, func(ctx context.Context) {
				if rms[si] == nil {
					return // stage rewrite failed or was skipped
				}
				out[ci], cmpErrs[ci] = compileConfig(ctx, env.Programs, rks[si], rms[si], cfgs[ci], rsts[si], env.Progress, env.Scratch, env.Verify, env.CostModel)
			}, rw)
			leaves = append(leaves, ct)
		}
	}
	finish = func() error {
		var errs []error
		for si, st := range stages {
			if rwErrs[si] != nil {
				errs = append(errs, rwErrs[si])
				continue
			}
			for _, ci := range st.Configs {
				if cmpErrs[ci] != nil {
					errs = append(errs, cmpErrs[ci])
				}
			}
		}
		return errors.Join(errs...)
	}
	return leaves, finish
}

// RunStaged runs several configurations on the same function as a staged
// plan: each distinct rewriting pipeline runs once (memoized through
// env.Rewrites when set) and the compile/alloc stages fan out over the
// shared rewritten MIG as independent scheduler tasks on env's scheduler.
// effort is the rewriting cycle budget (0 = no cycles). Reports are
// returned in configuration order and are identical to those of sequential
// per-configuration Run calls. On cancellation the error is ctx.Err()
// itself; unstarted tasks of the plan never run.
func RunStaged(ctx context.Context, m *mig.MIG, cfgs []Config, env Env, effort int) ([]*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]*Report, len(cfgs))
	var finish func() error
	if err := env.RunGraph(ctx, func(g *sched.Graph) {
		_, finish = StagedGraph(g, nil, func() *mig.MIG { return m }, cfgs, env, effort, out)
	}); err != nil {
		// Cancellation surfaces as ctx.Err() itself (the documented
		// contract), not wrapped inside errors.Join.
		return nil, err
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return out, nil
}
