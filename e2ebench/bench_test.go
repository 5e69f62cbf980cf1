package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plim"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := planMix(7, time.Second, false), planMix(7, time.Second, false)
	for p := range a {
		if !reflect.DeepEqual(a[p].due, b[p].due) {
			t.Fatalf("phase %s: arrival schedules differ for one seed", a[p].name)
		}
		if len(a[p].reqs) != len(b[p].reqs) {
			t.Fatalf("phase %s: %d vs %d requests", a[p].name, len(a[p].reqs), len(b[p].reqs))
		}
		for i := range a[p].reqs {
			if !bytes.Equal(a[p].reqs[i].body, b[p].reqs[i].body) || a[p].reqs[i].path != b[p].reqs[i].path {
				t.Fatalf("phase %s request %d: bodies differ for one seed", a[p].name, i)
			}
		}
	}
	c := planMix(8, time.Second, false)
	if reflect.DeepEqual(a[1].due, c[1].due) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
}

func TestMixQuotas(t *testing.T) {
	q := zipfQuota(1000, 90, zipfS)
	sum := 0
	for r, n := range q {
		sum += n
		if r > 0 && n > q[r-1] {
			t.Fatalf("rank %d gets %d requests, more than rank %d's %d", r, n, r-1, q[r-1])
		}
	}
	if sum != 1000 {
		t.Fatalf("quota sums to %d, want 1000", sum)
	}
	kinds := map[string]int{}
	for _, it := range mixItems(rand.New(rand.NewSource(3)), 200, "t") {
		kinds[it.kind]++
	}
	if kinds["compile"] != 150 || kinds["netlist"] != 30 || kinds["execute"] != 20 {
		t.Fatalf("request mix %v, want 150/30/20", kinds)
	}
}

func TestTailPercentile(t *testing.T) {
	var s sample
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	v, pct, ok := s.tail()
	if !ok || math.Abs(v-990.5) > 0.5 || pct != 99 {
		t.Fatalf("tail of 1..1000 = %v at p%v (ok %v), want ≈990.5 at p99", v, pct, ok)
	}
	for _, n := range []int{11, 57, 500, 1234} {
		v, pct, ok := s[:n].tail()
		sorted := s[:n].sorted()
		if want := 100 * float64(n-tailBeyond) / float64(n); !ok || pct != want {
			t.Fatalf("n=%d: tail at p%v, want p%v: the highest with %d samples beyond", n, pct, want, tailBeyond)
		}
		// The estimate sits among the order statistics around rank n−10.
		if lo, hi := sorted[max(0, n-tailBeyond-4)], sorted[min(n-1, n-tailBeyond+2)]; v < lo || v > hi {
			t.Fatalf("n=%d: tail %v outside [%v, %v]", n, v, lo, hi)
		}
	}
	if _, _, ok := s[:tailBeyond].tail(); ok {
		t.Fatalf("a sample of %d has no percentile with %d samples beyond it", tailBeyond, tailBeyond)
	}
	if m := (sample{3, 1, 2, 10}).median(); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if q := s.quantile(0.9); math.Abs(q-900.5) > 0.5 {
		t.Fatalf("p90 of 1..1000 = %v, want ≈900.5", q)
	}
	if q := (sample{}).quantile(0.9); q != 0 {
		t.Fatalf("p90 of an empty sample = %v, want 0", q)
	}
}

func TestBetaInc(t *testing.T) {
	for _, x := range []float64{0.01, 0.2, 0.5, 0.9, 0.999} {
		for _, b := range []float64{1, 3.5, 40} {
			if got, want := betaInc(1, b, x), 1-math.Pow(1-x, b); math.Abs(got-want) > 1e-12 {
				t.Errorf("I_%v(1, %v) = %v, want %v", x, b, got, want)
			}
		}
		for _, a := range []float64{2.5, 600} {
			if got := betaInc(a, a, 0.5); math.Abs(got-0.5) > 1e-12 {
				t.Errorf("I_0.5(%v, %v) = %v, want 0.5", a, a, got)
			}
		}
	}
}

// A stalled server must show up in the due-time latency of the requests
// queued behind the stall, not as generator lateness.
func TestStallRaisesLatencyNotLateness(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c := newClient(ts.URL, 1)
	defer c.close()
	const n = 20
	reqs := make([]*request, n)
	due := make([]time.Duration, n)
	for i := range reqs {
		reqs[i] = &request{class: "t", path: "/", body: []byte("{}")}
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	outs := openLoop(context.Background(), c, reqs, due, 1, nil)
	var late sample
	for i := range outs {
		if !outs[i].ok() {
			t.Fatalf("request %d failed: %v", i, outs[i].err)
		}
		late = append(late, ms(outs[i].late))
	}
	// Request 5 was due 50 ms in, so it waited out most of the stall.
	if l := outs[5].latency; l < stall-100*time.Millisecond {
		t.Fatalf("request due during the stall has latency %v, want ≥ %v", l, stall-100*time.Millisecond)
	}
	if m, _ := late.tailOrMax(); m > 100 {
		t.Fatalf("generator ran %.1f ms late during a server stall; the stall leaked into lateness", m)
	}
}

// A digest that disagrees with the program's output must fail the check,
// and a run with a failed check must exit non-zero.
func TestCorruptedDigestFailsRun(t *testing.T) {
	dt, err := loadDigests("digests.tsv")
	if err != nil {
		t.Fatal(err)
	}
	s, err := startServed(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	it := &mixItem{kind: "compile", bench: "ctrl", config: "full", verify: true}
	var o outcome
	s.c.do(context.Background(), it.request(false), &o)
	if err := checkMix(it, &o, dt, &benchSources{}); err != nil {
		t.Fatalf("committed digest rejects the program's output: %v", err)
	}

	// Corrupt the ctrl/full total in a copy of the table.
	b, err := os.ReadFile("digests.tsv")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Split(l, "\t"); len(f) == 10 && f[1] == "ctrl" && f[2] == "full" {
			f[8] += "1"
			l = strings.Join(f, "\t")
		}
		out = append(out, l)
	}
	bad := filepath.Join(t.TempDir(), "digests.tsv")
	if err := os.WriteFile(bad, []byte(strings.Join(out, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	dt, err = loadDigests(bad)
	if err != nil {
		t.Fatal(err)
	}
	err = checkMix(it, &o, dt, &benchSources{})
	if err == nil {
		t.Fatal("corrupted digest accepted")
	}
	res := newResult()
	for _, m := range endToEnd {
		res.set(m.name, m.unit, 1)
	}
	if code := report("serve-mix", &runConfig{}, res); code != 0 {
		t.Fatalf("a run without failures exited %d", code)
	}
	res.attempted++
	res.fail("%v", err)
	if code := report("serve-mix", &runConfig{}, res); code == 0 {
		t.Fatal("a run with a failed check exited 0")
	}
}

func TestLoadDigestsRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.tsv")
	for _, body := range []string{
		"compile\tctrl\tfull\t1\t2\n",
		"tableI-csv-sha256\tab\ncompile\tctrl\tfull\tx\t2\t3\t4\t5\t6\t0.5\n",
		"compile\tctrl\tfull\t1\t2\t3\t4\t5\t6\t0.5\n", // no Table I digest
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadDigests(path); err == nil {
			t.Fatalf("accepted malformed table %q", body)
		}
	}
}

func TestMixPopularityCoversSuite(t *testing.T) {
	got := append([]string(nil), mixPopularity...)
	want := plim.Benchmarks()
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("popularity order %v does not list the suite's benchmarks %v", mixPopularity, plim.Benchmarks())
	}
}

// BENCHMARK.json at the repository root must name exactly the metrics the
// benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s in %s, benchmark reports %s in %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := doc.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per_layer[%d] = %s in %s, benchmark reports %s in %s", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}

func TestCapSuffixNamesCapWrites(t *testing.T) {
	if want := fmt.Sprintf("+cap%d", capWrites); capSuffix != want {
		t.Fatalf("capSuffix %q, want %q", capSuffix, want)
	}
	c, err := mixConfig("full" + capSuffix)
	if err != nil || c.MaxWrites != capWrites || c.Name != "full"+capSuffix {
		t.Fatalf("mixConfig(full%s) = %+v, %v", capSuffix, c, err)
	}
}

func TestSpreadHeavyKeepsItemsAndSpacesHeavy(t *testing.T) {
	items := mixItems(rand.New(rand.NewSource(5)), 600, "t")
	heavy := mixPopularity[len(mixPopularity)-mixHeavy:]
	var at []int
	kinds := map[string]int{}
	for i, it := range items {
		kinds[it.kind]++
		if it.kind != "netlist" && slices.Contains(heavy, it.bench) {
			at = append(at, i)
		}
	}
	if len(items) != 600 || kinds["compile"] != 450 || kinds["netlist"] != 90 || kinds["execute"] != 60 {
		t.Fatalf("mix after spreading: %d items, %v", len(items), kinds)
	}
	if len(at) < 2 {
		t.Fatalf("only %d heavy requests in 600", len(at))
	}
	gap := 600 / len(at)
	for i := 1; i < len(at); i++ {
		if d := at[i] - at[i-1]; d < gap-1 || d > gap+1 {
			t.Fatalf("heavy requests at %v: gap %d, want about %d", at, d, gap)
		}
	}
}
