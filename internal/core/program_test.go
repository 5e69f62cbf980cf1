package core

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"plim/internal/compile"
	"plim/internal/cost"
	"plim/internal/mig"
	"plim/internal/progress"
	"plim/internal/sched"
)

// stagedEffort is the rewriting effort of the staged runs below.
const stagedEffort = 2

// stagedCached is the environment of an engine-style staged run over fresh
// rewrite and program tiers.
func stagedCached(cm *cost.Model, verify bool) Env {
	return Env{
		Rewrites:  NewRewriteTier(0, nil),
		Programs:  NewProgramTier(0),
		Verify:    verify,
		CostModel: cm,
	}
}

func binaryOf(t *testing.T, r *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.Result.Program.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestProgramTierServesWarmRun: a second run of one (function, config)
// returns the first run's program from the tier — one miss, then one hit —
// with fresh reports and the compile events still emitted.
func TestProgramTierServesWarmRun(t *testing.T) {
	env := stagedCached(cost.Default(), false)
	var starts, dones int
	env.Progress = func(ev progress.Event) {
		switch ev.(type) {
		case progress.CompileStart:
			starts++
		case progress.CompileDone:
			dones++
		}
	}
	first, err := RunStaged(context.Background(), randomMIG("f", 8, 120, 6, 1), []Config{Full}, env, stagedEffort)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunStaged(context.Background(), randomMIG("f", 8, 120, 6, 1), []Config{Full}, env, stagedEffort)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := env.Programs.Probes(); h != 1 || m != 1 {
		t.Fatalf("program tier probes = %d hits / %d misses, want 1 / 1", h, m)
	}
	if !bytes.Equal(binaryOf(t, first[0]), binaryOf(t, second[0])) {
		t.Fatal("warm program differs from the cold one")
	}
	if first[0] == second[0] {
		t.Fatal("warm run reused the cold run's Report")
	}
	if starts != 2 || dones != 2 {
		t.Fatalf("compile events: %d starts / %d dones, want 2 / 2", starts, dones)
	}
	uncached, err := Run(context.Background(), randomMIG("f", 8, 120, 6, 1), Full, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binaryOf(t, uncached), binaryOf(t, second[0])) || uncached.Writes != second[0].Writes {
		t.Fatal("cached program differs from an uncached compile")
	}
}

// TestProgramTierKeysSeparateConfigsAndModels: policies that share a
// rewrite (full vs its cap), policies on different rewrites (minwrite) and
// one policy under two cost models each get their own entry.
func TestProgramTierKeysSeparateConfigsAndModels(t *testing.T) {
	m := randomMIG("f", 8, 120, 6, 2)
	env := stagedCached(cost.Default(), false)
	cfgs := []Config{Full, FullCap(50), MinWrite}
	reps, err := RunStaged(context.Background(), m, cfgs, env, stagedEffort)
	if err != nil {
		t.Fatal(err)
	}
	alt := *cost.Default()
	alt.Name = "alt"
	alt.RM3.EnergyPJ *= 2
	env.CostModel = &alt
	altReps, err := RunStaged(context.Background(), m, cfgs[:1], env, stagedEffort)
	if err != nil {
		t.Fatal(err)
	}
	if h, ms := env.Programs.Probes(); h != 0 || ms != 4 || env.Programs.Len() != 4 {
		t.Fatalf("program tier: %d hits / %d misses / %d entries, want 0 / 4 / 4", h, ms, env.Programs.Len())
	}
	results := []*compile.Result{reps[0].Result, reps[1].Result, reps[2].Result, altReps[0].Result}
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			if results[i] == results[j] {
				t.Fatalf("results %d and %d share one entry", i, j)
			}
		}
	}
	if altReps[0].Cost.Model != "alt" || reps[0].Cost.Model != "default" {
		t.Fatalf("cost models: %q / %q", reps[0].Cost.Model, altReps[0].Cost.Model)
	}
	// An equal model under another pointer shares the entry.
	same := *cost.Default()
	env.CostModel = &same
	again, err := RunStaged(context.Background(), m, cfgs[:1], env, stagedEffort)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Result != reps[0].Result {
		t.Fatal("an equal cost model missed the entry")
	}
}

// TestProgramTierVerifiesHits: verification is per call — a verified hit
// carries its own Report.Verify, and a cached program that fails
// verification fails every verified call it is served to.
func TestProgramTierVerifiesHits(t *testing.T) {
	m := randomMIG("f", 8, 120, 6, 3)
	env := stagedCached(cost.Default(), false)
	if _, err := RunStaged(context.Background(), m, []Config{Full}, env, stagedEffort); err != nil {
		t.Fatal(err)
	}
	env.Verify = true
	reps, err := RunStaged(context.Background(), m, []Config{Full}, env, stagedEffort)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := env.Programs.Probes(); h != 1 {
		t.Fatalf("verified run was not served from the tier (%d hits)", h)
	}
	if reps[0].Verify == nil || !reps[0].Verify.OK() {
		t.Fatalf("verified hit carries no clean Report.Verify: %+v", reps[0].Verify)
	}

	// Seed the entry of a second config with a corrupted result: its wear
	// bookkeeping no longer matches its program.
	good := reps[0].Result
	bad := *good
	bad.WriteCounts = slices.Clone(good.WriteCounts)
	bad.WriteCounts[0]++
	key := ProgramKey{
		Rewrite:   RewriteKey{m.Fingerprint(), Rewriting.Rewrite, stagedEffort},
		Selection: Rewriting.Selection, Alloc: Rewriting.Alloc,
		Model: *env.CostModel, Priced: true,
	}
	if _, err := env.Programs.Get(context.Background(), key, func() (*compile.Result, error) { return &bad, nil }); err != nil {
		t.Fatal(err)
	}
	_, err = RunStaged(context.Background(), m, []Config{Rewriting}, env, stagedEffort)
	if err == nil || !strings.Contains(err.Error(), "verify:") {
		t.Fatalf("verified hit on a corrupted program: err = %v, want a verify violation", err)
	}
	env.Verify = false
	if _, err := RunStaged(context.Background(), m, []Config{Rewriting}, env, stagedEffort); err != nil {
		t.Fatalf("unverified hit failed: %v", err)
	}
}

// TestProgramTierSingleflight: concurrent first staged runs of one function
// compile each configuration once.
func TestProgramTierSingleflight(t *testing.T) {
	const n = 8
	env := stagedCached(cost.Default(), true)
	env.Sched = sched.New(4)
	defer env.Sched.Stop()
	cfgs := TableIConfigs()
	errs := make(chan error, n)
	for range n {
		go func() {
			_, err := RunStaged(context.Background(), randomMIG("f", 8, 120, 6, 4), cfgs, env, stagedEffort)
			errs <- err
		}()
	}
	for range n {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if h, m := env.Programs.Probes(); m != uint64(len(cfgs)) || h != uint64((n-1)*len(cfgs)) {
		t.Fatalf("program tier probes = %d hits / %d misses, want %d / %d", h, m, (n-1)*len(cfgs), len(cfgs))
	}
}

// TestProgramTierBudgetEvicts: a tier whose budget holds one program keeps
// only the most recent one, and the evicted key recompiles.
func TestProgramTierBudgetEvicts(t *testing.T) {
	m1, m2 := randomMIG("f1", 8, 120, 6, 5), randomMIG("f2", 8, 120, 6, 6)
	size := func(m *mig.MIG) int {
		rep, err := Run(context.Background(), m, Full, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Result.MemSize()
	}
	env := stagedCached(nil, false)
	env.Programs = NewProgramTier(max(size(m1), size(m2)))
	run := func(m *mig.MIG) *compile.Result {
		reps, err := RunStaged(context.Background(), m, []Config{Full}, env, stagedEffort)
		if err != nil {
			t.Fatal(err)
		}
		return reps[0].Result
	}
	r1 := run(m1)
	run(m2)
	if env.Programs.Len() != 1 {
		t.Fatalf("program tier holds %d entries, want 1", env.Programs.Len())
	}
	if again := run(m1); again == r1 {
		t.Fatal("evicted program still served")
	}
	if h, ms := env.Programs.Probes(); h != 0 || ms != 3 {
		t.Fatalf("program tier probes = %d hits / %d misses, want 0 / 3", h, ms)
	}
}
