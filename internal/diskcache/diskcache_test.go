package diskcache

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"plim/internal/mig"
	"plim/internal/rewrite"
)

func testMIG(name string, seed int) *mig.MIG {
	m := mig.New(name)
	sigs := []mig.Signal{m.AddPI("a"), m.AddPI("b"), m.AddPI("c")}
	for i := 0; i < 60; i++ {
		a := sigs[(i+seed)%len(sigs)]
		b := sigs[(i*7+seed)%len(sigs)].Not()
		c := sigs[(i*13)%len(sigs)]
		if s := m.Maj(a, b, c); !s.IsConst() {
			sigs = append(sigs, s)
		}
	}
	m.AddPO(sigs[len(sigs)-1], "o")
	m.AddPO(sigs[len(sigs)-2].Not(), "p")
	return m.Cleanup()
}

func testStats() rewrite.Stats {
	return rewrite.Stats{
		Cycles: 3, NodesBefore: 60, NodesAfter: 41,
		DepthBefore: 12, DepthAfter: 9,
		CompHistBefore: [4]int{1, 2, 3, 4},
		CompHistAfter:  [4]int{5, 6, 7, 8},
	}
}

func open(t testing.TB) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// entryFile returns the single entry file in the cache directory.
func entryFile(t *testing.T, c *Cache) string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(c.Dir(), "*.plimcache"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one entry file, got %v (%v)", entries, err)
	}
	return entries[0]
}

func TestRewriteRoundTrip(t *testing.T) {
	c := open(t)
	m := testMIG("rt", 1)
	st := testStats()
	fp := m.Fingerprint()

	if _, _, ok := c.LoadRewrite(fp, 2, 5); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.StoreRewrite(fp, 2, 5, m, st); err != nil {
		t.Fatal(err)
	}
	got, gotSt, ok := c.LoadRewrite(fp, 2, 5)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if gotSt != st {
		t.Fatalf("stats changed: %+v vs %+v", gotSt, st)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatal("loaded MIG fingerprint differs from stored")
	}
	var a, b bytes.Buffer
	if err := m.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("loaded MIG serialization differs from stored")
	}

	// Different key components are different entries.
	if _, _, ok := c.LoadRewrite(fp, 1, 5); ok {
		t.Fatal("kind is not part of the key")
	}
	if _, _, ok := c.LoadRewrite(fp, 2, 4); ok {
		t.Fatal("effort is not part of the key")
	}
	if _, _, ok := c.LoadRewrite(fp+1, 2, 5); ok {
		t.Fatal("fingerprint is not part of the key")
	}

	cnt := c.Counters()
	if cnt.RewriteHits != 1 || cnt.RewriteMisses != 4 || cnt.Stores != 1 {
		t.Fatalf("counters = %+v", cnt)
	}
}

func TestBenchmarkRoundTrip(t *testing.T) {
	c := open(t)
	m := testMIG("ctrl", 2)
	if _, ok := c.LoadBenchmark("ctrl", 2); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.StoreBenchmark("ctrl", 2, m); err != nil {
		t.Fatal(err)
	}
	got, ok := c.LoadBenchmark("ctrl", 2)
	if !ok {
		t.Fatal("stored benchmark missed")
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatal("loaded benchmark fingerprint differs")
	}
	if _, ok := c.LoadBenchmark("ctrl", 3); ok {
		t.Fatal("shrink is not part of the key")
	}
	if _, ok := c.LoadBenchmark("ctrl2", 2); ok {
		t.Fatal("name is not part of the key")
	}
}

// TestCorruptEntryIsAMiss flips payload bytes in a stored entry: the CRC
// check must turn it into a miss, never an error or a bad graph.
func TestCorruptEntryIsAMiss(t *testing.T) {
	c := open(t)
	m := testMIG("corrupt", 3)
	fp := m.Fingerprint()
	if err := c.StoreRewrite(fp, 2, 5, m, testStats()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)-10] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadRewrite(fp, 2, 5); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	// A fresh store heals the entry.
	if err := c.StoreRewrite(fp, 2, 5, m, testStats()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadRewrite(fp, 2, 5); !ok {
		t.Fatal("re-stored entry missed")
	}
}

// TestTruncatedEntryIsAMiss simulates a torn write (a crash between write
// and rename would leave only a temp file, but a crashed copy or a full
// disk can truncate): every prefix of a valid entry must read as a miss.
func TestTruncatedEntryIsAMiss(t *testing.T) {
	c := open(t)
	m := testMIG("trunc", 4)
	fp := m.Fingerprint()
	if err := c.StoreRewrite(fp, 2, 5, m, testStats()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 10, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := c.LoadRewrite(fp, 2, 5); ok {
			t.Fatalf("entry truncated to %d/%d bytes served as a hit", n, len(data))
		}
	}
}

// TestVersionBumpInvalidates: entries from another format version must be
// ignored wholesale.
func TestVersionBumpInvalidates(t *testing.T) {
	c := open(t)
	m := testMIG("ver", 5)
	fp := m.Fingerprint()
	if err := c.StoreRewrite(fp, 2, 5, m, testStats()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf("%s %d ", magic, FormatVersion)
	next := fmt.Sprintf("%s %d ", magic, FormatVersion+1)
	mut := strings.Replace(string(data), old, next, 1)
	if mut == string(data) {
		t.Fatal("did not find header to rewrite")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadRewrite(fp, 2, 5); ok {
		t.Fatal("entry from a different format version served as a hit")
	}
}

// TestMismatchedKeyInsideEntry: an entry whose header key disagrees with
// its file name (e.g. a file copied or renamed by hand) is a miss.
func TestMismatchedKeyInsideEntry(t *testing.T) {
	c := open(t)
	m := testMIG("key", 6)
	fp := m.Fingerprint()
	if err := c.StoreRewrite(fp, 2, 5, m, testStats()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c)
	other := rewritePath(c.Dir(), fp+1, 2, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(other, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadRewrite(fp+1, 2, 5); ok {
		t.Fatal("entry with mismatched embedded key served as a hit")
	}
}

// TestInterleavedGraphNotStored: graphs that cannot round-trip faithfully
// through the file format are skipped, not mangled.
func TestInterleavedGraphNotStored(t *testing.T) {
	m := mig.New("interleave")
	p := m.AddPI("p")
	q := m.AddPI("q")
	g := m.And(p, q)
	r := m.AddPI("r")
	m.AddPO(m.Or(g, r), "o")
	if Storable(m) {
		t.Fatal("interleaved graph reported storable")
	}
	c := open(t)
	if err := c.StoreRewrite(m.Fingerprint(), 0, 0, m, rewrite.Stats{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadRewrite(m.Fingerprint(), 0, 0); ok {
		t.Fatal("unstorable graph was stored anyway")
	}
}

// TestConcurrentStoreLoad hammers one directory from many goroutines (two
// Cache handles, as two engines or processes would) under -race: every
// load must either miss or return a fully consistent entry.
func TestConcurrentStoreLoad(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4
	migs := make([]*mig.MIG, keys)
	fps := make([]uint64, keys)
	for i := range migs {
		migs[i] = testMIG(fmt.Sprintf("c%d", i), i)
		fps[i] = migs[i].Fingerprint()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := c1
			if w%2 == 1 {
				c = c2
			}
			for i := 0; i < 50; i++ {
				k := (w + i) % keys
				if i%3 == 0 {
					if err := c.StoreRewrite(fps[k], 2, 5, migs[k], testStats()); err != nil {
						t.Errorf("store: %v", err)
						return
					}
				}
				if m, _, ok := c.LoadRewrite(fps[k], 2, 5); ok {
					if m.Fingerprint() != fps[k] {
						t.Errorf("load returned wrong graph for key %d", k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestArbitraryNamesRoundTrip: the binary payload length-prefixes every
// name, so model, PI and PO names containing spaces, tabs or newlines —
// which the whitespace-delimited .mig text format could not carry — are
// stored and reload fingerprint- and name-identical.
func TestArbitraryNamesRoundTrip(t *testing.T) {
	build := func(model, piName, poName string) *mig.MIG {
		m := mig.New(model)
		a := m.AddPI(piName)
		b := m.AddPI("b")
		m.AddPO(m.And(a, b), poName)
		return m
	}
	cases := []*mig.MIG{
		build("ok", "", ""),
		build("mo del", "in", "out"),
		build("ok", "in a", "out"),
		build("ok", "in", "out\n.pi evil"),
		build("ok", "in\tb", "out"),
	}
	c := open(t)
	for i, m := range cases {
		if !Storable(m) {
			t.Fatalf("case %d: canonical graph reported unstorable", i)
		}
		if err := c.StoreRewrite(m.Fingerprint(), 0, 0, m, rewrite.Stats{}); err != nil {
			t.Fatal(err)
		}
		got, _, ok := c.LoadRewrite(m.Fingerprint(), 0, 0)
		if !ok {
			t.Fatalf("case %d: stored graph missed", i)
		}
		if got.Fingerprint() != m.Fingerprint() || got.Name != m.Name ||
			got.PIName(0) != m.PIName(0) || got.POName(0) != m.POName(0) {
			t.Fatalf("case %d: names changed: %q %q %q", i, got.Name, got.PIName(0), got.POName(0))
		}
	}
}

// TestOpenSweepsStaleTemps: temp files abandoned by crashed writers are
// reclaimed on Open; fresh temp files (a concurrent writer's) and real
// entries are left alone.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testMIG("sweep", 7)
	if err := c.StoreRewrite(m.Fingerprint(), 2, 5, m, testStats()); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, ".tmp-crashed")
	fresh := filepath.Join(dir, ".tmp-inflight")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file was reaped")
	}
	if _, _, ok := c.LoadRewrite(m.Fingerprint(), 2, 5); !ok {
		t.Error("real entry lost during sweep")
	}
}

// TestVerifyOnLoadRejectsCRCCollision simulates the failure the CRC alone
// cannot catch: an entry whose payload was swapped for a different —
// structurally valid — graph with a matching checksum line. Without
// SetVerify the load succeeds (the CRC was "right"); with it, the
// fingerprint recorded at store time exposes the substitution.
func TestVerifyOnLoadRejectsCRCCollision(t *testing.T) {
	m := testMIG("victim", 1)
	imposter := testMIG("victim", 2) // same name, different structure
	if m.Fingerprint() == imposter.Fingerprint() {
		t.Fatal("test graphs must differ")
	}

	forge := func(t *testing.T, c *Cache) {
		t.Helper()
		if err := c.StoreRewrite(m.Fingerprint(), 2, 5, m, testStats()); err != nil {
			t.Fatal(err)
		}
		// Rewrite the entry in place with the imposter payload and a
		// freshly computed (i.e. "colliding") CRC line.
		path := entryFile(t, c)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		head, _, ok := strings.Cut(string(data), "payload ")
		if !ok {
			t.Fatal("no payload line")
		}
		payload := imposter.AppendBinary(nil)
		forged := fmt.Sprintf("%spayload %d %08x\n%s", head, len(payload), crc32ieee(payload), payload)
		if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("unverified-load-accepts", func(t *testing.T) {
		c := open(t)
		forge(t, c)
		got, _, ok := c.LoadRewrite(m.Fingerprint(), 2, 5)
		if !ok {
			t.Fatal("unverified cache should accept the CRC-consistent forgery")
		}
		if got.Fingerprint() != imposter.Fingerprint() {
			t.Fatal("expected the imposter graph back")
		}
	})

	t.Run("verified-load-rejects", func(t *testing.T) {
		c := open(t)
		c.SetVerify(true)
		forge(t, c)
		if _, _, ok := c.LoadRewrite(m.Fingerprint(), 2, 5); ok {
			t.Fatal("verified cache served a forged entry")
		}
		if c.VerifyMisses() != 1 {
			t.Fatalf("verify miss not counted: %d", c.VerifyMisses())
		}
		if c.Counters().RewriteMisses != 1 {
			t.Fatal("verify rejection must account as a miss")
		}
	})

	t.Run("verified-load-accepts-honest-entry", func(t *testing.T) {
		c := open(t)
		c.SetVerify(true)
		if err := c.StoreRewrite(m.Fingerprint(), 2, 5, m, testStats()); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := c.LoadRewrite(m.Fingerprint(), 2, 5); !ok {
			t.Fatal("verified cache rejected an honest entry")
		}
	})
}

// TestVerifyOnLoadBenchmark covers the benchmark entry kind: verification
// is part of its layout too.
func TestVerifyOnLoadBenchmark(t *testing.T) {
	c := open(t)
	c.SetVerify(true)
	m := testMIG("adder", 3)
	if err := c.StoreBenchmark("adder", 2, m); err != nil {
		t.Fatal(err)
	}
	got, ok := c.LoadBenchmark("adder", 2)
	if !ok || got.Fingerprint() != m.Fingerprint() {
		t.Fatal("verified benchmark load failed on an honest entry")
	}

	// An entry with a garbled "out" line is a miss even unverified: the
	// line is part of the layout.
	path := entryFile(t, c)
	data, _ := os.ReadFile(path)
	mangled := strings.Replace(string(data), "out ", "oot ", 1)
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	c.SetVerify(false)
	if _, ok := c.LoadBenchmark("adder", 2); ok {
		t.Fatal("mangled out line must be a miss")
	}
}

// v2Entry renders m as FormatVersion 2 wrote a rewrite entry: the same
// header lines, but a .mig text payload.
func v2Entry(t testing.TB, fp uint64, kind uint8, effort int, m *mig.MIG, st rewrite.Stats) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := m.Write(&payload); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s 2 %s\n", magic, kindRewrite)
	fmt.Fprintf(&b, "key %016x %d %d\nout %016x\n", fp, kind, effort, m.Fingerprint())
	fmt.Fprintf(&b, "stats %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
		st.Cycles, st.NodesBefore, st.NodesAfter, st.DepthBefore, st.DepthAfter,
		st.CompHistBefore[0], st.CompHistBefore[1], st.CompHistBefore[2], st.CompHistBefore[3],
		st.CompHistAfter[0], st.CompHistAfter[1], st.CompHistAfter[2], st.CompHistAfter[3])
	fmt.Fprintf(&b, "payload %d %08x\n", payload.Len(), crc32ieee(payload.Bytes()))
	b.Write(payload.Bytes())
	return b.Bytes()
}

// TestV2TextEntryIsAMiss: an entry left by a FormatVersion 2 build (text
// payload) under the very path a lookup probes is a miss, and the store
// that follows overwrites it with a current entry that then hits.
func TestV2TextEntryIsAMiss(t *testing.T) {
	c := open(t)
	m := testMIG("v2", 8)
	fp := m.Fingerprint()
	path := rewritePath(c.Dir(), fp, 2, 5)
	if err := os.WriteFile(path, v2Entry(t, fp, 2, 5, m, testStats()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadRewrite(fp, 2, 5); ok {
		t.Fatal("version 2 text entry served as a hit")
	}
	if err := c.StoreRewrite(fp, 2, 5, m, testStats()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%s %d %s\n", magic, FormatVersion, kindRewrite); !strings.HasPrefix(string(data), want) {
		t.Fatalf("store did not overwrite the old entry: %q", data[:min(len(data), 40)])
	}
	got, st, ok := c.LoadRewrite(fp, 2, 5)
	if !ok || got.Fingerprint() != fp || st != testStats() {
		t.Fatal("overwritten entry missed or changed")
	}
	if cnt := c.Counters(); cnt.RewriteHits != 1 || cnt.RewriteMisses != 1 {
		t.Fatalf("counters = %+v", cnt)
	}
}

// FuzzProbeEntry writes arbitrary bytes where an entry lives and probes
// it, unverified and verified: every probe must resolve to a miss or to a
// hit whose graph is frozen and valid — never a panic.
func FuzzProbeEntry(f *testing.F) {
	m := testMIG("fuzz", 9)
	fp := m.Fingerprint()
	seed := open(f)
	if err := seed.StoreRewrite(fp, 2, 5, m, testStats()); err != nil {
		f.Fatal(err)
	}
	if err := seed.StoreBenchmark("fuzz", 2, m); err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{rewritePath(seed.Dir(), fp, 2, 5), benchPath(seed.Dir(), "fuzz", 2)} {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(v2Entry(f, fp, 2, 5, m, testStats()))
	f.Add([]byte("plimcache 3 rewrite\npayload 0 00000000\n"))

	c := open(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{rewritePath(c.Dir(), fp, 2, 5), benchPath(c.Dir(), "fuzz", 2)} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, verify := range []bool{false, true} {
			c.SetVerify(verify)
			got, _, out := c.ProbeRewrite(fp, 2, 5)
			checkProbe(t, "rewrite", got, out)
			got, out = c.ProbeBenchmark("fuzz", 2)
			checkProbe(t, "benchmark", got, out)
		}
	})
}

func checkProbe(t *testing.T, kind string, m *mig.MIG, out ProbeOutcome) {
	t.Helper()
	if out != ProbeHit {
		if m != nil {
			t.Fatalf("%s %v returned a graph", kind, out)
		}
		return
	}
	if !m.Frozen() {
		t.Fatalf("%s hit is not frozen", kind)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("%s hit is invalid: %v", kind, err)
	}
}

func crc32ieee(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
