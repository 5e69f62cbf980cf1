// Package memo is the repository's one memoization mechanism: a generic,
// byte-budgeted, singleflight cache tier with an optional persistent leg.
// The engine instantiates it three times — rewrite results (core), benchmark
// builds (suite) and bit-sliced execution plans — and every behaviour below
// holds identically for all three.
//
//   - Singleflight: concurrent Get calls for one key share one computation.
//     The first caller computes; the rest wait on the result.
//   - Probe counting: the first lookup of every Get counts as a hit or a
//     miss. Attaching to an in-flight computation counts as a hit.
//   - LRU budget: a completed entry is charged Options.Cost bytes, and
//     completing a computation evicts least-recently-used completed entries
//     until the total fits the budget. In-flight entries are never evicted.
//     Waiters that already hold an entry observe its result even if it is
//     evicted concurrently — eviction only unindexes.
//   - Publish: a deferred step unindexes the entry and closes its done
//     channel when the computation fails or panics; the panic still unwinds
//     the computing caller. Errors are never cached, and waiters retry.
//   - Cancellation: waiters stop waiting when their context ends. The
//     computation itself is the caller's business.
//   - Disk leg: an in-memory miss probes Options.Disk before computing,
//     and fresh results are stored back (best-effort).
//   - Tracing: each Get records one "cache" span named Options.Probe, a
//     child of ctx's current span, annotated with the resolved outcome —
//     memory-hit, disk-hit, verify-miss or compute. It covers the lookup
//     (and a coalesced caller's wait), never the computation.
//
// Values are shared between callers and must be treated as read-only.
package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"plim/internal/diskcache"
	"plim/internal/trace"
)

// errPanicked is what waiters observe when the computing caller panicked
// instead of completing: the entry is gone, so they retry (and hit the same
// panic in their own stack if it is deterministic).
var errPanicked = errors.New("memo: computation panicked")

// Disk is the persistent leg below a tier: one adapter per artifact kind
// over the matching diskcache Probe*/Store* pair.
type Disk[K comparable, V any] interface {
	Probe(K) (V, diskcache.ProbeOutcome)
	Store(K, V) error
}

// Options configures a Tier.
type Options[K comparable, V any] struct {
	// Budget bounds the summed Cost of completed entries; ≤ 0 = unbounded.
	Budget int
	// Cost estimates a completed value's resident bytes.
	Cost func(V) int
	// Disk, when non-nil, is the persistent second tier.
	Disk Disk[K, V]
	// Probe names the per-Get trace span ("" records none). When the span
	// is traced it carries Attr = Label(key).
	Probe, Attr string
	Label       func(K) string
}

// Tier is a memoizing cache; see the package comment. The zero value is not
// usable; call New. A nil *Tier reports zero from Len and Probes.
type Tier[K comparable, V any] struct {
	opts Options[K, V]

	mu    sync.Mutex
	index map[K]*entry[K, V]
	// head is the most recently used entry, tail the least; total sums the
	// costs of indexed entries.
	head, tail *entry[K, V]
	total      int

	hits, misses atomic.Uint64
}

// entry is one key's computation, threaded on the recency list.
type entry[K comparable, V any] struct {
	key  K
	done chan struct{} // closed once val/err are final
	val  V
	err  error

	// cost is charged against the budget once the entry completes;
	// evictable stays false while the computation is in flight.
	cost       int
	evictable  bool
	prev, next *entry[K, V]
}

// New returns an empty tier.
func New[K comparable, V any](opts Options[K, V]) *Tier[K, V] {
	return &Tier[K, V]{opts: opts, index: make(map[K]*entry[K, V])}
}

// Len reports the number of indexed entries, in-flight ones included.
func (t *Tier[K, V]) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.index)
}

// Budget reports the tier's byte budget (≤ 0 = unbounded).
func (t *Tier[K, V]) Budget() int { return t.opts.Budget }

// Probes reports the memory-tier probe counters: hits (including probes
// that attached to an in-flight computation) and misses (probes that had to
// compute or go to disk).
func (t *Tier[K, V]) Probes() (hits, misses uint64) {
	if t == nil {
		return 0, 0
	}
	return t.hits.Load(), t.misses.Load()
}

// Get returns the value for key, computing it with compute on a miss. On
// error the zero V is returned; a waiter whose ctx ends first returns
// ctx.Err() while the computation carries on for its own caller.
func (t *Tier[K, V]) Get(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var sp trace.Handle
	if t.opts.Probe != "" {
		sp = trace.StartNoCtx(ctx, "cache", t.opts.Probe)
		if sp.Traced() {
			sp.Attr(t.opts.Attr, t.opts.Label(key))
		}
	}
	first := true
	for {
		t.mu.Lock()
		e, ok := t.index[key]
		if ok {
			t.touch(e)
		}
		if first {
			first = false
			if ok {
				t.hits.Add(1)
			} else {
				t.misses.Add(1)
			}
		}
		if !ok {
			e = t.add(key)
			t.mu.Unlock()
			t.fill(e, compute, sp)
			return e.val, e.err
		}
		t.mu.Unlock()
		// A completed entry is served even to a cancelled caller; only an
		// actual wait is abandoned on cancellation.
		select {
		case <-e.done:
		default:
			select {
			case <-e.done:
			case <-ctx.Done():
				sp.End()
				var zero V
				return zero, ctx.Err()
			}
		}
		if e.err == nil {
			sp.Attr("outcome", "memory-hit")
			sp.End()
			return e.val, nil
		}
		// The computing caller failed; its entry is gone. Retry: either this
		// caller computes (and reports its own error) or it waits on a newer
		// computation.
	}
}

// fill resolves a fresh entry from the disk leg or compute, then publishes
// it. The publish is deferred so a panicking compute still unindexes the
// entry and closes done — otherwise every later caller of the key would
// block on an entry nobody is computing.
func (t *Tier[K, V]) fill(e *entry[K, V], compute func() (V, error), sp trace.Handle) {
	completed := false
	defer func() {
		if !completed && e.err == nil {
			e.err = errPanicked
		}
		t.mu.Lock()
		if e.err != nil {
			var zero V
			e.val = zero
			t.remove(e)
		} else {
			e.evictable = true
			e.cost = t.opts.Cost(e.val)
			t.total += e.cost
			t.evictExcess()
		}
		t.mu.Unlock()
		close(e.done)
	}()
	outcome := "compute"
	if t.opts.Disk != nil {
		v, out := t.opts.Disk.Probe(e.key)
		if out == diskcache.ProbeHit {
			// The stored value was computed (possibly by another process)
			// from an identical key, so it is what compute would produce.
			e.val = v
			completed = true
			sp.Attr("outcome", "disk-hit")
			sp.End()
			return
		}
		if out == diskcache.ProbeVerifyMiss {
			outcome = "verify-miss"
		}
	}
	sp.Attr("outcome", outcome)
	sp.End() // the computation itself belongs to the caller's span
	e.val, e.err = compute()
	completed = true
	if e.err == nil && t.opts.Disk != nil {
		// Best-effort write-back; a failed store only costs the next cold
		// process a recomputation.
		_ = t.opts.Disk.Store(e.key, e.val)
	}
}

// add indexes a fresh in-flight entry for key as most recently used. The
// caller holds t.mu and has checked key is absent.
func (t *Tier[K, V]) add(key K) *entry[K, V] {
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	t.index[key] = e
	t.pushFront(e)
	return e
}

// touch marks an indexed entry most recently used.
func (t *Tier[K, V]) touch(e *entry[K, V]) {
	t.unlink(e)
	t.pushFront(e)
}

// remove unindexes e. Indexed entries are the only ones ever removed: an
// in-flight entry cannot be evicted before its own publish.
func (t *Tier[K, V]) remove(e *entry[K, V]) {
	t.unlink(e)
	t.total -= e.cost
	delete(t.index, e.key)
}

// evictExcess drops evictable entries, least recently used first, until the
// total cost is within budget or only in-flight entries remain. A single
// entry costlier than the whole budget is itself evicted as soon as it
// completes — the budget is a bound, not a guarantee of residency.
func (t *Tier[K, V]) evictExcess() {
	if t.opts.Budget <= 0 {
		return
	}
	for e := t.tail; e != nil && t.total > t.opts.Budget; {
		victim := e
		e = e.prev
		if victim.evictable {
			t.remove(victim)
		}
	}
}

func (t *Tier[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

func (t *Tier[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
