package plim

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

func programBytes(t *testing.T, r *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.Result.Program.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEngineProgramCacheWarmRun: the second Run of one (function, config)
// is served by the program cache — one miss, one hit — and returns the
// byte-identical program.
func TestEngineProgramCacheWarmRun(t *testing.T) {
	eng := NewEngine(WithEffort(2), WithVerify(true))
	cold, err := eng.Run(context.Background(), engineTestMIG(t), Full)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Run(context.Background(), engineTestMIG(t), Full)
	if err != nil {
		t.Fatal(err)
	}
	if h, m, n := eng.ProgramCacheStats(); h != 1 || m != 1 || n != 1 {
		t.Fatalf("program cache: %d hits / %d misses / %d entries, want 1 / 1 / 1", h, m, n)
	}
	if !bytes.Equal(programBytes(t, cold), programBytes(t, warm)) {
		t.Fatal("warm program differs from the cold one")
	}
	if warm.Verify == nil || warm.Verify == cold.Verify {
		t.Fatal("the warm run was not verified on its own")
	}
	if h, m := eng.MemoryCacheProbes(); h != 1 || m != 1 {
		t.Fatalf("MemoryCacheProbes = %d / %d, want the rewrite tier's 1 / 1 only", h, m)
	}
}

// TestEngineWithoutCacheCompilesEveryTime: WithCache(false) turns the
// program cache off with the others.
func TestEngineWithoutCacheCompilesEveryTime(t *testing.T) {
	eng := NewEngine(WithEffort(2), WithCache(false))
	var compiles int
	ctx := ContextWithProgress(context.Background(), func(ev Event) {
		if _, ok := ev.(EventCompileDone); ok {
			compiles++
		}
	})
	a, err := eng.Run(ctx, engineTestMIG(t), Full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(ctx, engineTestMIG(t), Full)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result == b.Result || compiles != 2 {
		t.Fatalf("uncached engine shared a result (compile events %d)", compiles)
	}
	if h, m, n := eng.ProgramCacheStats(); h != 0 || m != 0 || n != 0 {
		t.Fatalf("uncached engine counted program probes: %d / %d / %d", h, m, n)
	}
	if !bytes.Equal(programBytes(t, a), programBytes(t, b)) {
		t.Fatal("uncached programs differ")
	}
}

// TestEngineRunAllConcurrentCompilesOnce: concurrent first RunAll calls on
// one function compile each configuration once.
func TestEngineRunAllConcurrentCompilesOnce(t *testing.T) {
	const n = 6
	eng := NewEngine(WithEffort(2), WithWorkers(3))
	cfgs := TableIConfigs()
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.RunAll(context.Background(), engineTestMIG(t), cfgs); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if h, m, _ := eng.ProgramCacheStats(); m != uint64(len(cfgs)) || h != uint64((n-1)*len(cfgs)) {
		t.Fatalf("program cache: %d hits / %d misses, want %d / %d", h, m, (n-1)*len(cfgs), len(cfgs))
	}
}

// TestEngineProgramCacheBudget: WithCacheBudget bounds the program cache
// like the other tiers — a budget holding one program keeps one.
func TestEngineProgramCacheBudget(t *testing.T) {
	a, b := engineRandomMIG(3), engineRandomMIG(4)
	size := 0
	for _, m := range []*MIG{a, b} {
		rep, err := NewEngine(WithEffort(2), WithCache(false)).Run(context.Background(), m, Full)
		if err != nil {
			t.Fatal(err)
		}
		size = max(size, rep.Result.MemSize())
	}
	eng := NewEngine(WithEffort(2), WithCacheBudget(size))
	for _, m := range []*MIG{a, b, a} {
		if _, err := eng.Run(context.Background(), m, Full); err != nil {
			t.Fatal(err)
		}
	}
	if h, m, n := eng.ProgramCacheStats(); h != 0 || m != 3 || n != 1 {
		t.Fatalf("program cache: %d hits / %d misses / %d entries, want 0 / 3 / 1", h, m, n)
	}
}

// TestEngineSharedGraphsAreFrozen: SharedBenchmark hands out the frozen
// cached graph itself, while Benchmark and Rewrite hand out private copies
// that accept every mutation, structural hashing included.
func TestEngineSharedGraphsAreFrozen(t *testing.T) {
	eng := NewEngine(WithEffort(1))
	s1, err := eng.SharedBenchmark(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.SharedBenchmark(context.Background(), "ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || !s1.Frozen() {
		t.Fatal("SharedBenchmark did not return the frozen cached graph")
	}
	priv, err := eng.BenchmarkScaled("ctrl", 8)
	if err != nil {
		t.Fatal(err)
	}
	rw, _, err := eng.Rewrite(context.Background(), s1, RewriteAlgorithm2)
	if err != nil {
		t.Fatal(err)
	}
	fp := s1.Fingerprint()
	for name, m := range map[string]*MIG{"Benchmark": priv, "Rewrite": rw} {
		if m == s1 || m.Frozen() {
			t.Fatalf("%s returned a shared or frozen graph", name)
		}
		// Re-adding an existing node must find it through the strash.
		po := m.PO(0)
		for i := 1; !m.IsMaj(po.Node()); i++ {
			po = m.PO(i)
		}
		c := m.Children(po.Node())
		nodes := m.NumNodes()
		if got := m.Maj(c[0], c[1], c[2]); got.Node() != po.Node() || m.NumNodes() != nodes {
			t.Fatalf("%s copy lost its structural hash", name)
		}
		m.AddPO(m.Maj(m.PO(0), m.PO(1).Not(), Const1), "junk")
	}
	if s1.Fingerprint() != fp || s1.Clone().Fingerprint() != fp {
		t.Fatal("mutating private copies touched the shared graph")
	}
}

// TestEngineProgramProbeSpans: each program-tier lookup records one cache
// span named program-probe, keyed by the same fingerprint as the rewrite
// probe, resolving to compute when cold and memory-hit when warm.
func TestEngineProgramProbeSpans(t *testing.T) {
	eng := NewEngine(WithEffort(2), WithTrace(true))
	attrs := func(sp TraceSpan) map[string]string {
		out := map[string]string{}
		for _, a := range sp.Attrs {
			out[a.Key] = a.Value
		}
		return out
	}
	for _, want := range []string{"compute", "memory-hit"} {
		if _, err := eng.Run(context.Background(), engineTestMIG(t), Full); err != nil {
			t.Fatal(err)
		}
		probes := map[string]map[string]string{}
		for _, sp := range eng.TakeTrace().Spans() {
			if sp.Kind == "cache" {
				probes[sp.Name] = attrs(sp)
			}
		}
		pp, rp := probes["program-probe"], probes["rewrite-probe"]
		if pp == nil || rp == nil {
			t.Fatalf("cache spans %v, want a program-probe and a rewrite-probe", probes)
		}
		if pp["outcome"] != want || pp["fp"] == "" || pp["fp"] != rp["fp"] {
			t.Fatalf("program-probe %v (rewrite-probe %v), want outcome %s and the rewrite's fp", pp, rp, want)
		}
	}
}
