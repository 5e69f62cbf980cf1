package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"plim"
)

// The /metrics output promises the Prometheus text exposition format. This
// file parses every line of a populated scrape — instead of grepping a few
// known names — so any future family that breaks the format (bad name,
// missing HELP/TYPE, non-monotonic histogram) fails here, not in the
// scraper.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe      = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// metricSample is one parsed sample line.
type metricSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition parses a text-format scrape, failing the test on any
// malformed line, and returns the samples plus the HELP/TYPE declarations.
func parseExposition(t *testing.T, body string) (samples []metricSample, help, typ map[string]string) {
	t.Helper()
	help, typ = map[string]string{}, map[string]string{}
	seenSample := map[string]bool{} // family → any sample emitted yet
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if _, dup := help[parts[0]]; dup {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, parts[0])
			}
			help[parts[0]] = parts[1]
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			if _, ok := help[parts[0]]; !ok {
				t.Fatalf("line %d: TYPE %s without a preceding HELP", ln+1, parts[0])
			}
			if _, dup := typ[parts[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			if seenSample[parts[0]] {
				t.Fatalf("line %d: TYPE %s after its samples", ln+1, parts[0])
			}
			typ[parts[0]] = parts[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			s := metricSample{name: m[1], labels: map[string]string{}}
			if m[3] != "" {
				for _, pair := range strings.Split(m[3], ",") {
					lm := labelRe.FindStringSubmatch(pair)
					if lm == nil || !labelNameRe.MatchString(lm[1]) {
						t.Fatalf("line %d: malformed label %q in %q", ln+1, pair, line)
					}
					if _, dup := s.labels[lm[1]]; dup {
						t.Fatalf("line %d: duplicate label %s", ln+1, lm[1])
					}
					s.labels[lm[1]] = lm[2]
				}
			}
			v, err := strconv.ParseFloat(m[4], 64)
			if err != nil && m[4] != "+Inf" && m[4] != "-Inf" && m[4] != "NaN" {
				t.Fatalf("line %d: bad value %q: %v", ln+1, m[4], err)
			}
			s.value = v
			seenSample[familyOf(s.name)] = true
			samples = append(samples, s)
		}
	}
	return samples, help, typ
}

// familyOf strips the histogram/summary sample suffixes back to the
// declared family name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, suf); ok {
			return f
		}
	}
	return name
}

func TestMetricsExpositionWellFormed(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{}, plim.WithPersistentCache(t.TempDir()))

	// Populate: a compile (latency histograms, sched task kinds, cache
	// probes across both tiers) and an execute (vector counters).
	if resp, b := postJSON(t, ts.URL+"/v1/compile", `{"benchmark":"ctrl","config":"full"}`, nil); resp.StatusCode != 200 {
		t.Fatalf("compile: %d %s", resp.StatusCode, b)
	}
	if resp, b := postJSON(t, ts.URL+"/v1/execute", `{"benchmark":"ctrl","random":70}`, nil); resp.StatusCode != 200 {
		t.Fatalf("execute: %d %s", resp.StatusCode, b)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, help, typ := parseExposition(t, string(body))
	if len(samples) == 0 {
		t.Fatal("no samples scraped")
	}

	// Every sample's family must be declared with HELP and TYPE; histogram
	// suffixes belong to histogram-typed families only.
	for _, s := range samples {
		fam := familyOf(s.name)
		if _, ok := typ[fam]; !ok {
			t.Fatalf("sample %s has no TYPE declaration (family %s)", s.name, fam)
		}
		if _, ok := help[fam]; !ok {
			t.Fatalf("sample %s has no HELP declaration (family %s)", s.name, fam)
		}
		if s.name != fam && typ[fam] != "histogram" {
			t.Fatalf("sample %s uses a histogram suffix on %s family %s", s.name, typ[fam], fam)
		}
	}

	// The families this PR promises must be present.
	for _, fam := range []string{
		"plimserve_build_info",
		"plimserve_cache_probe_total",
		"plimserve_requests_total",
		"plimserve_request_seconds",
	} {
		if _, ok := typ[fam]; !ok {
			t.Fatalf("family %s missing from scrape", fam)
		}
	}
	for _, s := range samples {
		if s.name == "plimserve_build_info" {
			if s.value != 1 || s.labels["go_version"] == "" {
				t.Fatalf("build_info: %+v", s)
			}
		}
	}

	// The compile and the execute share one (ctrl, full) program: the
	// program tier compiled it once and served the execute from memory.
	want := map[string]float64{
		`plimserve_cache_probe_total{outcome="hit",tier="program"}`:  1,
		`plimserve_cache_probe_total{outcome="miss",tier="program"}`: 1,
		`plimserve_cache_memory_entries{kind="program"}`:             1,
	}
	for _, s := range samples {
		if w, ok := want[sampleID(s)]; ok {
			if s.value != w {
				t.Fatalf("%s = %g, want %g", sampleID(s), s.value, w)
			}
			delete(want, sampleID(s))
		}
	}
	for id := range want {
		t.Fatalf("sample %s missing from scrape", id)
	}

	checkHistograms(t, samples, typ)
}

// sampleID renders a sample as name{labels}, labels sorted by key.
func sampleID(s metricSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, s.labels[k])
	}
	return s.name + "{" + strings.Join(parts, ",") + "}"
}

// checkHistograms verifies, per histogram series (family × non-le labels):
// buckets are cumulative and non-decreasing in le order, the +Inf bucket
// exists and equals _count, and _sum/_count are present.
func checkHistograms(t *testing.T, samples []metricSample, typ map[string]string) {
	t.Helper()
	type bucket struct {
		le  float64
		val float64
	}
	series := func(s metricSample) string {
		var keys []string
		for k := range s.labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		id := familyOf(s.name)
		for _, k := range keys {
			id += fmt.Sprintf("|%s=%s", k, s.labels[k])
		}
		return id
	}
	buckets := map[string][]bucket{}
	counts := map[string]float64{}
	sums := map[string]bool{}
	for _, s := range samples {
		fam := familyOf(s.name)
		if typ[fam] != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("bucket without le label: %+v", s)
			}
			ub := parseLe(t, le)
			buckets[series(s)] = append(buckets[series(s)], bucket{ub, s.value})
		case strings.HasSuffix(s.name, "_count"):
			counts[series(s)] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			sums[series(s)] = true
		default:
			t.Fatalf("histogram family %s emits bare sample %s", fam, s.name)
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram series scraped")
	}
	for id, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			t.Fatalf("series %s has no +Inf bucket", id)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].val < bs[i-1].val {
				t.Fatalf("series %s: bucket le=%v count %v < previous %v (not cumulative)",
					id, bs[i].le, bs[i].val, bs[i-1].val)
			}
		}
		cnt, ok := counts[id]
		if !ok || !sums[id] {
			t.Fatalf("series %s misses _count/_sum", id)
		}
		if last.val != cnt {
			t.Fatalf("series %s: +Inf bucket %v != _count %v", id, last.val, cnt)
		}
	}
}

func parseLe(t *testing.T, le string) float64 {
	t.Helper()
	if le == "+Inf" {
		return math.Inf(1)
	}
	ub, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bad le bound %q: %v", le, err)
	}
	return ub
}
