// Package diskcache is the persistent second tier below the engine's
// in-memory memo tiers: a content-addressed on-disk store for MIG rewrite
// results and benchmark generator output. Separate CLI invocations
// (plimtab, then plimc) start with cold processes but share a cache
// directory, so the second invocation skips every rewrite the first one
// already performed.
//
// Two entry kinds are stored, mirroring the memo tiers they back. Each
// kind is plugged into its tier (internal/memo) as the tier's disk leg by
// a small adapter over its Probe*/Store* pair:
//
//   - rewrite results, keyed by (input-MIG fingerprint, rewrite kind,
//     effort) exactly like core.RewriteKey, holding the rewritten MIG plus
//     its rewrite.Stats;
//   - benchmark builds, keyed by (benchmark name, shrink) exactly like
//     suite.Key, holding the generated MIG.
//
// Every entry is one file: a small text header (magic, format version, the
// full key, the stored graph's fingerprint, payload length and CRC-32)
// followed by the graph in the binary MIG encoding (mig.AppendBinary). A
// hit decodes straight into a frozen graph (mig.DecodeBinary) — no text
// parsing and no structural-hash map — ready to publish as a memo-tier
// entry. The .mig text format stays the user-facing interchange format.
// Writes go through a temp file in the cache directory and an atomic
// rename, so concurrent processes sharing a directory never observe a
// partially written entry and the last writer simply wins. Reads verify
// the header, the key, the payload length and the checksum, and the decoder
// rejects any payload that is not a well-formed graph; any mismatch — a
// corrupt file, a torn write left by a crash, an entry from an older format
// version — is treated as a cache miss, never as an error. A miss
// merely costs a recomputation, and the fresh store overwrites the bad
// entry.
//
// Invalidation is by construction: keys are content-addressed (a different
// input graph, algorithm or effort is a different file) and FormatVersion
// is bumped whenever the payload encoding, the stats layout or the
// fingerprint function changes, which orphans every old entry at once.
package diskcache

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"plim/internal/mig"
	"plim/internal/rewrite"
)

// FormatVersion is written into every entry header and checked on load.
// Bump it whenever the entry layout, the payload encoding, rewrite.Stats
// or mig.Fingerprint changes incompatibly; all existing entries then read
// as misses and are rewritten on the next store.
//
// Version history: 1 = initial layout; 2 = entries additionally record the
// stored graph's own fingerprint (the "out" header line), enabling
// load-time re-verification under SetVerify; 3 = the payload is the binary
// MIG encoding (mig.AppendBinary) instead of .mig text.
const FormatVersion = 3

const magic = "plimcache"

// Entry kind tags inside the header.
const (
	kindRewrite   = "rewrite"
	kindBenchmark = "bench"
)

// ProbeOutcome classifies one disk probe for trace spans and metrics:
// ProbeVerifyMiss is the subset of misses where a structurally readable
// entry was rejected solely by SetVerify fingerprint re-verification.
type ProbeOutcome uint8

// Probe outcomes.
const (
	ProbeMiss ProbeOutcome = iota
	ProbeHit
	ProbeVerifyMiss
)

// String names the outcome the way trace spans and metrics label it.
func (o ProbeOutcome) String() string {
	switch o {
	case ProbeHit:
		return "hit"
	case ProbeVerifyMiss:
		return "verify_miss"
	}
	return "miss"
}

// Counters is a snapshot of a cache's hit/miss/store accounting. Loads
// that fail verification (corrupt, truncated, version-mismatched entries)
// count as misses.
type Counters struct {
	RewriteHits, RewriteMisses     uint64
	BenchmarkHits, BenchmarkMisses uint64
	Stores, StoreErrors            uint64
}

// Cache is an open persistent cache directory. It is safe for concurrent
// use by multiple goroutines and by multiple processes sharing the same
// directory.
type Cache struct {
	dir string

	// verify arms load-time re-verification: a hit must also reproduce the
	// fingerprint recorded at store time (see SetVerify).
	verify atomic.Bool

	rewriteHits, rewriteMisses atomic.Uint64
	benchHits, benchMisses     atomic.Uint64
	stores, storeErrors        atomic.Uint64
	verifyMisses               atomic.Uint64
}

// Open creates (if needed) and opens a cache directory. Stale temp files
// left behind by crashed writers are swept on open.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	sweepStaleTemps(dir)
	return &Cache{dir: dir}, nil
}

// staleTempAge is how old a .tmp-* file must be before Open reclaims it.
// Stores buffer the whole entry in memory first, so a healthy writer holds
// its temp file for milliseconds; an hour leaves a huge margin for slow
// filesystems while still bounding the garbage a crashy fleet can leave in
// a shared directory.
const staleTempAge = time.Hour

func sweepStaleTemps(dir string) {
	tmps, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, p := range tmps {
		if fi, err := os.Stat(p); err == nil && fi.Mode().IsRegular() && fi.ModTime().Before(cutoff) {
			os.Remove(p) // best-effort; a concurrent writer's rename already moved its file away
		}
	}
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// SetVerify toggles load-time re-verification (default off; plim.Engine
// arms it under WithVerify). Every entry records the fingerprint of the
// graph it stores; with verification on, a load additionally compares it
// with the fingerprint the decoder recorded for the graph it built and
// treats any mismatch as a miss. The CRC already catches torn writes and
// random corruption; the fingerprint closes the residual gap — a
// corrupted-but-CRC-colliding payload, or an entry written by a build
// whose serialization drifted without a FormatVersion bump — so a
// verifying engine can never be served a graph that is not byte-for-byte
// the one that was stored.
func (c *Cache) SetVerify(enabled bool) { c.verify.Store(enabled) }

// VerifyMisses counts loads rejected by SetVerify re-verification alone.
func (c *Cache) VerifyMisses() uint64 { return c.verifyMisses.Load() }

// Counters returns a snapshot of the cache's accounting.
func (c *Cache) Counters() Counters {
	return Counters{
		RewriteHits:     c.rewriteHits.Load(),
		RewriteMisses:   c.rewriteMisses.Load(),
		BenchmarkHits:   c.benchHits.Load(),
		BenchmarkMisses: c.benchMisses.Load(),
		Stores:          c.stores.Load(),
		StoreErrors:     c.storeErrors.Load(),
	}
}

func rewritePath(dir string, fp uint64, kind uint8, effort int) string {
	return filepath.Join(dir, fmt.Sprintf("rw-%016x-k%d-e%d.plimcache", fp, kind, effort))
}

func benchPath(dir, name string, shrink int) string {
	return filepath.Join(dir, fmt.Sprintf("bench-%s-s%d.plimcache", sanitize(name), shrink))
}

// sanitize keeps benchmark-derived file names path-safe. Registry names
// are plain identifiers already; anything else is hex-escaped.
func sanitize(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if !(ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9' || ch == '_' || ch == '-' || ch == '.') {
			ok = false
			break
		}
	}
	if ok && name != "" {
		return name
	}
	return fmt.Sprintf("x%x", name)
}

// Storable reports whether m round-trips faithfully through the binary
// payload, which a persisted entry must (a disk hit is contractually
// byte-identical to a fresh computation). The payload numbers all PIs
// before any majority node, so a graph that interleaves them would come
// back renumbered — structurally equivalent but not fingerprint- or
// node-order-identical. Only hand-built MIGs interleave — every generator,
// Cleanup and rewrite output is canonical — and such graphs are simply not
// persisted. Names need no check: they are length-prefixed, so any bytes
// round-trip.
func Storable(m *mig.MIG) bool {
	for i := 0; i < m.NumPIs(); i++ {
		if m.PINode(i) != mig.NodeID(i+1) {
			return false
		}
	}
	return true
}

// StoreRewrite persists a rewrite result under (fp, kind, effort). Graphs
// that cannot round-trip faithfully (see Storable) are skipped without
// error. Store failures are counted but otherwise best-effort: the caller
// already holds the computed result.
func (c *Cache) StoreRewrite(fp uint64, kind uint8, effort int, m *mig.MIG, st rewrite.Stats) error {
	if !Storable(m) {
		return nil
	}
	b := entryHead(kindRewrite, m)
	b = fmt.Appendf(b, "key %016x %d %d\n", fp, kind, effort)
	b = fmt.Appendf(b, "out %016x\n", m.Fingerprint())
	b = fmt.Appendf(b, "stats %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
		st.Cycles, st.NodesBefore, st.NodesAfter, st.DepthBefore, st.DepthAfter,
		st.CompHistBefore[0], st.CompHistBefore[1], st.CompHistBefore[2], st.CompHistBefore[3],
		st.CompHistAfter[0], st.CompHistAfter[1], st.CompHistAfter[2], st.CompHistAfter[3])
	return c.store(rewritePath(c.dir, fp, kind, effort), b, m)
}

// LoadRewrite probes the cache for a rewrite result. ok is false on any
// miss, including unreadable, corrupt or version-mismatched entries.
func (c *Cache) LoadRewrite(fp uint64, kind uint8, effort int) (m *mig.MIG, st rewrite.Stats, ok bool) {
	m, st, out := c.ProbeRewrite(fp, kind, effort)
	return m, st, out == ProbeHit
}

// ProbeRewrite is LoadRewrite reporting how the probe resolved, so callers
// can annotate trace spans with hit / miss / verify_miss.
func (c *Cache) ProbeRewrite(fp uint64, kind uint8, effort int) (m *mig.MIG, st rewrite.Stats, out ProbeOutcome) {
	payload, header, ok := c.load(rewritePath(c.dir, fp, kind, effort), kindRewrite)
	if ok {
		m, st, out = c.parseRewrite(payload, header, fp, kind, effort)
	}
	if out == ProbeHit {
		c.rewriteHits.Add(1)
	} else {
		c.rewriteMisses.Add(1)
	}
	return m, st, out
}

func (c *Cache) parseRewrite(payload []byte, header []string, fp uint64, kind uint8, effort int) (*mig.MIG, rewrite.Stats, ProbeOutcome) {
	var st rewrite.Stats
	if len(header) != 3 {
		return nil, st, ProbeMiss
	}
	var gotFP uint64
	var gotKind, gotEffort int
	if _, err := fmt.Sscanf(header[0], "key %x %d %d", &gotFP, &gotKind, &gotEffort); err != nil ||
		gotFP != fp || gotKind != int(kind) || gotEffort != effort {
		return nil, st, ProbeMiss
	}
	if _, err := fmt.Sscanf(header[2], "stats %d %d %d %d %d %d %d %d %d %d %d %d %d",
		&st.Cycles, &st.NodesBefore, &st.NodesAfter, &st.DepthBefore, &st.DepthAfter,
		&st.CompHistBefore[0], &st.CompHistBefore[1], &st.CompHistBefore[2], &st.CompHistBefore[3],
		&st.CompHistAfter[0], &st.CompHistAfter[1], &st.CompHistAfter[2], &st.CompHistAfter[3]); err != nil {
		return nil, st, ProbeMiss
	}
	m, out := c.decode(payload, header[1])
	return m, st, out
}

// decode decodes a payload into a frozen graph and checks it against the
// "out <fingerprint>" header line recorded at store time. The line must
// parse regardless of the verify switch (it is part of the layout); the
// comparison happens only when SetVerify armed the cache, and costs
// nothing extra: DecodeBinary already recorded the fingerprint.
func (c *Cache) decode(payload []byte, outLine string) (*mig.MIG, ProbeOutcome) {
	var want uint64
	if _, err := fmt.Sscanf(outLine, "out %x", &want); err != nil {
		return nil, ProbeMiss
	}
	m, err := mig.DecodeBinary(payload)
	if err != nil {
		return nil, ProbeMiss
	}
	if c.verify.Load() && m.Fingerprint() != want {
		c.verifyMisses.Add(1)
		return nil, ProbeVerifyMiss
	}
	return m, ProbeHit
}

// StoreBenchmark persists a benchmark build under (name, shrink).
func (c *Cache) StoreBenchmark(name string, shrink int, m *mig.MIG) error {
	if !Storable(m) {
		return nil
	}
	b := entryHead(kindBenchmark, m)
	b = fmt.Appendf(b, "key %q %d\nout %016x\n", name, shrink, m.Fingerprint())
	return c.store(benchPath(c.dir, name, shrink), b, m)
}

// LoadBenchmark probes the cache for a benchmark build.
func (c *Cache) LoadBenchmark(name string, shrink int) (*mig.MIG, bool) {
	m, out := c.ProbeBenchmark(name, shrink)
	return m, out == ProbeHit
}

// ProbeBenchmark is LoadBenchmark reporting how the probe resolved.
func (c *Cache) ProbeBenchmark(name string, shrink int) (m *mig.MIG, out ProbeOutcome) {
	payload, header, ok := c.load(benchPath(c.dir, name, shrink), kindBenchmark)
	if ok {
		m, out = c.parseBenchmark(payload, header, name, shrink)
	}
	if out == ProbeHit {
		c.benchHits.Add(1)
	} else {
		c.benchMisses.Add(1)
	}
	return m, out
}

func (c *Cache) parseBenchmark(payload []byte, header []string, name string, shrink int) (*mig.MIG, ProbeOutcome) {
	if len(header) != 2 {
		return nil, ProbeMiss
	}
	var gotName string
	var gotShrink int
	if _, err := fmt.Sscanf(header[0], "key %q %d", &gotName, &gotShrink); err != nil ||
		gotName != name || gotShrink != shrink {
		return nil, ProbeMiss
	}
	return c.decode(payload, header[1])
}

// entryHead starts the buffer of m's entry with its magic line; the store
// methods append their header lines and storeFile the payload. The buffer
// is sized for a typical entry (a few bytes per node and pin), so it is
// usually allocated once.
func entryHead(entryKind string, m *mig.MIG) []byte {
	b := make([]byte, 0, 256+len(m.Name)+6*m.NumNodes()+8*(m.NumPIs()+m.NumPOs()))
	return fmt.Appendf(b, "%s %d %s\n", magic, FormatVersion, entryKind)
}

// store writes one entry atomically: serialize into memory, write a temp
// file in the cache directory, rename over the final path. Concurrent
// writers race benignly (both write complete files; the last rename wins)
// and a crash mid-write leaves only a temp file or a truncated temp file,
// never a truncated entry under the final name.
func (c *Cache) store(path string, head []byte, m *mig.MIG) error {
	err := c.storeFile(path, head, m)
	if err != nil {
		c.storeErrors.Add(1)
	} else {
		c.stores.Add(1)
	}
	return err
}

// storeFile completes the entry in head's buffer — the binary payload is
// appended after the header lines, then its "payload <len> <crc>" line is
// inserted in front of it — and writes it out.
func (c *Cache) storeFile(path string, head []byte, m *mig.MIG) error {
	mark := len(head)
	buf := m.AppendBinary(head)
	payload := buf[mark:]
	line := fmt.Appendf(nil, "payload %d %08x\n", len(payload), crc32.ChecksumIEEE(payload))
	buf = slices.Insert(buf, mark, line...)

	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	return nil
}

// load reads one entry file and verifies everything below the key: magic,
// version, entry kind, payload length and checksum. It returns the payload
// and the header lines between the magic line and the payload line; any
// problem is a miss (nil, nil, false).
func (c *Cache) load(path, entryKind string) (payload []byte, header []string, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false
	}
	line, rest, found := bytes.Cut(data, []byte{'\n'})
	if !found {
		return nil, nil, false
	}
	var ver int
	var gotMagic, gotKind string
	if _, err := fmt.Sscanf(string(line), "%s %d %s", &gotMagic, &ver, &gotKind); err != nil ||
		gotMagic != magic || ver != FormatVersion || gotKind != entryKind {
		return nil, nil, false
	}
	for {
		line, rest, found = bytes.Cut(rest, []byte{'\n'})
		if !found {
			return nil, nil, false
		}
		if bytes.HasPrefix(line, []byte("payload ")) {
			var n int
			var sum uint32
			if _, err := fmt.Sscanf(string(line), "payload %d %x", &n, &sum); err != nil {
				return nil, nil, false
			}
			if len(rest) != n || crc32.ChecksumIEEE(rest) != sum {
				return nil, nil, false
			}
			// Mark the entry recently used so GC's oldest-first eviction
			// approximates LRU rather than FIFO. Best-effort: a concurrent
			// writer may just have renamed a fresh file over path, which only
			// makes the entry look even younger.
			now := time.Now()
			_ = os.Chtimes(path, now, now)
			return rest, header, true
		}
		header = append(header, string(line))
		if len(header) > 8 {
			return nil, nil, false // runaway header: not one of ours
		}
	}
}
