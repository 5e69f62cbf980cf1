package memo

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"plim/internal/diskcache"
	"plim/internal/trace"
)

// costTier returns a tier whose values are their own cost, so tests pick
// each entry's charge directly.
func costTier(budget int) *Tier[int, int] {
	return New(Options[int, int]{Budget: budget, Cost: func(v int) int { return v }})
}

// put completes key k with a value costing cost bytes.
func put(t *testing.T, tr *Tier[int, int], k, cost int) {
	t.Helper()
	if _, err := tr.Get(t.Context(), k, func() (int, error) { return cost, nil }); err != nil {
		t.Fatal(err)
	}
}

// keys lists the indexed keys, most recently used first.
func keys[K comparable, V any](tr *Tier[K, V]) []K {
	var out []K
	for e := tr.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// startBlocked begins a computation of key k that does not finish until
// the returned release is called with its result; it returns once the
// entry is indexed. done is closed when the computing Get returns.
func startBlocked(t *testing.T, tr *Tier[int, int], k int) (release func(v int, err error), done chan struct{}) {
	t.Helper()
	type result struct {
		v   int
		err error
	}
	ch := make(chan result)
	done = make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer close(done)
		tr.Get(context.Background(), k, func() (int, error) {
			close(started)
			r := <-ch
			return r.v, r.err
		})
	}()
	<-started
	return func(v int, err error) { ch <- result{v, err} }, done
}

// waitHits spins until the tier has counted n hits — i.e. n waiters have
// attached to entries.
func waitHits(tr *Tier[int, int], n uint64) {
	for {
		if h, _ := tr.Probes(); h >= n {
			return
		}
		runtime.Gosched()
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	tr := costTier(20)
	put(t, tr, 1, 10)
	put(t, tr, 2, 10)
	put(t, tr, 3, 10)
	if tr.Len() != 2 || tr.total != 20 {
		t.Fatalf("Len %d total %d, want 2 and 20", tr.Len(), tr.total)
	}
	if got := keys(tr); !slices.Equal(got, []int{3, 2}) {
		t.Fatalf("surviving keys = %v, want [3 2]", got)
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	tr := costTier(20)
	put(t, tr, 1, 10)
	put(t, tr, 2, 10)
	put(t, tr, 1, 10) // hit: refreshes 1
	put(t, tr, 3, 10)
	if got := keys(tr); !slices.Equal(got, []int{3, 1}) {
		t.Fatalf("surviving keys = %v, want [3 1] (2 is the LRU victim)", got)
	}
}

func TestUnevenCostsEvictUntilWithinBudget(t *testing.T) {
	tr := costTier(100)
	put(t, tr, 1, 30)
	put(t, tr, 2, 30)
	// One big entry forces out both older small ones.
	put(t, tr, 3, 90)
	if got := keys(tr); !slices.Equal(got, []int{3}) || tr.total != 90 {
		t.Fatalf("surviving keys = %v total %d, want [3] and 90", got, tr.total)
	}
}

func TestEntryOverBudgetEvictsItself(t *testing.T) {
	tr := costTier(10)
	put(t, tr, 1, 50)
	if tr.Len() != 0 || tr.total != 0 {
		t.Fatalf("oversized entry retained: len %d total %d", tr.Len(), tr.total)
	}
}

// TestEvictionSkipsNonEvictable: in-flight entries are never evicted, even
// when completed neighbours overflow the budget.
func TestEvictionSkipsNonEvictable(t *testing.T) {
	tr := costTier(5)
	release, done := startBlocked(t, tr, 1)
	put(t, tr, 2, 10)
	put(t, tr, 3, 10)
	if got := keys(tr); !slices.Equal(got, []int{1}) {
		t.Fatalf("keys = %v, want only the in-flight [1]", got)
	}
	release(1, nil)
	<-done
	if v, err := tr.Get(t.Context(), 1, nil); err != nil || v != 1 {
		t.Fatalf("completed in-flight entry: %d, %v", v, err)
	}
}

func TestSetCostAndDeleteTrackTotal(t *testing.T) {
	tr := costTier(0)
	release, done := startBlocked(t, tr, 1)
	if tr.total != 0 {
		t.Fatalf("in-flight entry charged %d", tr.total)
	}
	release(40, nil)
	<-done
	if tr.total != 40 {
		t.Fatalf("Total = %d, want 40", tr.total)
	}
	// A failed computation is unindexed without touching the total.
	if _, err := tr.Get(t.Context(), 2, func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("error not reported")
	}
	if tr.total != 40 || tr.Len() != 1 {
		t.Fatalf("after failure: total %d len %d, want 40 and 1", tr.total, tr.Len())
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	tr := costTier(0)
	for i := 0; i < 100; i++ {
		put(t, tr, i, 1000)
	}
	if tr.Len() != 100 {
		t.Fatalf("unbounded tier evicted down to %d", tr.Len())
	}
}

func TestDeleteUnlinks(t *testing.T) {
	tr := costTier(0)
	put(t, tr, 1, 1)
	put(t, tr, 2, 1)
	put(t, tr, 3, 1)
	tr.remove(tr.index[2])
	if got := keys(tr); !slices.Equal(got, []int{3, 1}) || tr.Len() != 2 || tr.total != 2 {
		t.Fatalf("after remove: keys %v len %d total %d, want [3 1], 2, 2", got, tr.Len(), tr.total)
	}
	if tr.tail.key != 1 || tr.head.key != 3 {
		t.Fatal("head/tail not relinked")
	}
}

// TestGetSingleflight: concurrent callers of one key share one computation,
// see one value, and count one miss plus one hit per waiter.
func TestGetSingleflight(t *testing.T) {
	tr := costTier(0)
	const n = 16
	release, done := startBlocked(t, tr, 7)
	var computes atomic.Int32
	var wg sync.WaitGroup
	outs := make([]int, n-1)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := tr.Get(context.Background(), 7, func() (int, error) {
				computes.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Error(err)
			}
			outs[i] = v
		}()
	}
	waitHits(tr, n-1)
	release(42, nil)
	<-done
	wg.Wait()
	if c := computes.Load(); c != 0 {
		t.Fatalf("waiters computed %d times", c)
	}
	for _, v := range outs {
		if v != 42 {
			t.Fatalf("waiter saw %d, want 42", v)
		}
	}
	if h, m := tr.Probes(); h != n-1 || m != 1 {
		t.Fatalf("probes = %d hits / %d misses, want %d / 1", h, m, n-1)
	}
}

// TestErrorsNotCachedWaitersRetry: a failed computation is unindexed and a
// waiter attached to it recomputes under its own compute.
func TestErrorsNotCachedWaitersRetry(t *testing.T) {
	tr := costTier(0)
	release, done := startBlocked(t, tr, 1)
	got := make(chan int)
	go func() {
		v, err := tr.Get(context.Background(), 1, func() (int, error) { return 9, nil })
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	waitHits(tr, 1)
	release(0, context.Canceled)
	<-done
	if v := <-got; v != 9 {
		t.Fatalf("retrying waiter got %d, want its own 9", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only the successful retry)", tr.Len())
	}
}

// TestPanicDoesNotWedgeKey: a panicking computation reaches its caller but
// still unindexes the entry, so later callers compute afresh.
func TestPanicDoesNotWedgeKey(t *testing.T) {
	tr := costTier(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not reach the computing caller")
			}
		}()
		tr.Get(t.Context(), 1, func() (int, error) { panic("compute bug") })
	}()
	if tr.Len() != 0 {
		t.Fatalf("panicked computation left %d entries", tr.Len())
	}
	if v, err := tr.Get(t.Context(), 1, func() (int, error) { return 2, nil }); err != nil || v != 2 {
		t.Fatalf("retry after panic: %d, %v", v, err)
	}
}

// TestWaiterStopsOnCancel: a waiter whose context ends returns ctx.Err()
// while the computation completes and is cached for everyone else.
func TestWaiterStopsOnCancel(t *testing.T) {
	tr := costTier(0)
	release, done := startBlocked(t, tr, 1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() {
		_, err := tr.Get(ctx, 1, nil)
		errc <- err
	}()
	waitHits(tr, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	release(5, nil)
	<-done
	if v, err := tr.Get(t.Context(), 1, nil); err != nil || v != 5 {
		t.Fatalf("after cancelled waiter: %d, %v", v, err)
	}
	// A completed entry is served even to an already-cancelled caller.
	if v, err := tr.Get(ctx, 1, nil); err != nil || v != 5 {
		t.Fatalf("completed entry under cancelled ctx: %d, %v", v, err)
	}
}

// fakeDisk is a map-backed disk leg whose probes answer a fixed outcome
// for absent keys.
type fakeDisk struct {
	vals   map[int]int
	miss   diskcache.ProbeOutcome
	stores int
}

func (d *fakeDisk) Probe(k int) (int, diskcache.ProbeOutcome) {
	if v, ok := d.vals[k]; ok {
		return v, diskcache.ProbeHit
	}
	return 0, d.miss
}

func (d *fakeDisk) Store(k, v int) error {
	d.vals[k] = v
	d.stores++
	return nil
}

// TestDiskLeg covers the persistent leg and the probe span outcomes: a disk
// hit skips compute, a verify-miss and a plain miss compute and store back,
// a failed compute stores nothing, and a repeat is a memory hit.
func TestDiskLeg(t *testing.T) {
	disk := &fakeDisk{vals: map[int]int{1: 10}, miss: diskcache.ProbeVerifyMiss}
	tr := New(Options[int, int]{
		Cost: func(int) int { return 1 }, Disk: disk,
		Probe: "test-probe", Attr: "key", Label: func(k int) string { return string(rune('a' + k)) },
	})
	tc := trace.New()
	ctx := trace.NewContext(context.Background(), tc)
	fail := func() (int, error) { return 0, errors.New("boom") }
	computed := 0
	compute := func() (int, error) { computed++; return 20, nil }

	if v, err := tr.Get(ctx, 1, fail); err != nil || v != 10 {
		t.Fatalf("disk hit: %d, %v", v, err)
	}
	if _, err := tr.Get(ctx, 2, fail); err == nil {
		t.Fatal("failed compute reported no error")
	}
	if disk.stores != 0 {
		t.Fatal("failed compute was stored")
	}
	if v, err := tr.Get(ctx, 2, compute); err != nil || v != 20 || computed != 1 {
		t.Fatalf("verify-miss compute: %d, %v (computed %d)", v, err, computed)
	}
	disk.miss = diskcache.ProbeMiss
	if _, err := tr.Get(ctx, 3, compute); err != nil || disk.stores != 2 || disk.vals[3] != 20 {
		t.Fatalf("miss compute: %v, stores %d", err, disk.stores)
	}
	if v, err := tr.Get(ctx, 1, fail); err != nil || v != 10 {
		t.Fatalf("memory hit: %d, %v", v, err)
	}

	var got [][2]string
	for _, sp := range tc.Spans() {
		if sp.Kind != "cache" || sp.Name != "test-probe" || len(sp.Attrs) != 2 || sp.Attrs[1].Key != "outcome" {
			t.Fatalf("malformed probe span %+v", sp)
		}
		got = append(got, [2]string{sp.Attrs[0].Value, sp.Attrs[1].Value})
	}
	want := [][2]string{{"b", "disk-hit"}, {"c", "verify-miss"}, {"c", "verify-miss"}, {"d", "compute"}, {"b", "memory-hit"}}
	if !slices.Equal(got, want) {
		t.Fatalf("probe spans = %v, want %v", got, want)
	}
}
