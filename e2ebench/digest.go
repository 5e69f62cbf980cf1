package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"plim"
)

// capSuffix is the write cap some serve-mix compile requests add to their
// configuration: capWrites writes per device.
const (
	capWrites = 50
	capSuffix = "+cap50"
)

// compileDigest is the reference result of one benchmark × configuration
// compile at shrink 1: the paper's #I and #R and the write summary.
type compileDigest struct {
	instructions, rrams, devices int
	min, max, total              uint64
	stdev                        string // shortest round-trip form of the float
}

func (d compileDigest) fields() []string {
	return []string{strconv.Itoa(d.instructions), strconv.Itoa(d.rrams), strconv.Itoa(d.devices),
		strconv.FormatUint(d.min, 10), strconv.FormatUint(d.max, 10), strconv.FormatUint(d.total, 10), d.stdev}
}

func digestOf(r *compileReply) compileDigest {
	w := r.Writes
	return compileDigest{r.Instructions, r.RRAMs, w.Devices, w.Min, w.Max, w.Total,
		strconv.FormatFloat(w.StdDev, 'g', -1, 64)}
}

// digestTable holds the committed references: one compile digest per
// "benchmark/config" key and the SHA-256 of the Table I CSV.
type digestTable struct {
	compile   map[string]compileDigest
	tableICSV string
}

func digestKey(bench, config string) string { return bench + "/" + config }

// check compares a compile reply with the reference for its key.
func (t *digestTable) check(key string, r *compileReply) error {
	want, ok := t.compile[key]
	if !ok {
		return fmt.Errorf("%s: no reference digest", key)
	}
	if got := digestOf(r); got != want {
		return fmt.Errorf("%s: got #I/#R/writes %v, reference %v", key, got.fields(), want.fields())
	}
	return nil
}

// loadDigests parses the digest table: tab-separated lines
// "compile <bench> <config> <#I> <#R> <devices> <min> <max> <total> <stdev>"
// and one "tableI-csv-sha256 <hex>" line; '#' starts a comment.
func loadDigests(path string) (*digestTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("digest table: %w", err)
	}
	defer f.Close()
	t := &digestTable{compile: map[string]compileDigest{}}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		l := sc.Text()
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Split(l, "\t")
		switch {
		case f[0] == "tableI-csv-sha256" && len(f) == 2:
			t.tableICSV = f[1]
		case f[0] == "compile" && len(f) == 10:
			var d compileDigest
			var errs [6]error
			d.instructions, errs[0] = strconv.Atoi(f[3])
			d.rrams, errs[1] = strconv.Atoi(f[4])
			d.devices, errs[2] = strconv.Atoi(f[5])
			d.min, errs[3] = strconv.ParseUint(f[6], 10, 64)
			d.max, errs[4] = strconv.ParseUint(f[7], 10, 64)
			d.total, errs[5] = strconv.ParseUint(f[8], 10, 64)
			d.stdev = f[9]
			for _, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %w", path, n, err)
				}
			}
			t.compile[digestKey(f[1], f[2])] = d
		default:
			return nil, fmt.Errorf("%s:%d: malformed line", path, n)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if t.tableICSV == "" || len(t.compile) == 0 {
		return nil, fmt.Errorf("%s: incomplete digest table", path)
	}
	return t, nil
}

func (t *digestTable) write(path string) error {
	var b strings.Builder
	b.WriteString("# Reference results the e2ebench checks compare against; regenerate with\n")
	b.WriteString("# bash e2ebench/run.sh --write-digests (only when program output is meant to change).\n")
	fmt.Fprintf(&b, "tableI-csv-sha256\t%s\n", t.tableICSV)
	keys := make([]string, 0, len(t.compile))
	for k := range t.compile {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bench, config, _ := strings.Cut(k, "/")
		fmt.Fprintf(&b, "compile\t%s\t%s\t%s\n", bench, config, strings.Join(t.compile[k].fields(), "\t"))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// mixConfigs lists every configuration a serve-mix compile may name: the
// five Table I columns, each also with the write cap.
func mixConfigs() []string {
	var out []string
	for _, c := range plim.TableIConfigs() {
		out = append(out, c.Name)
	}
	for _, c := range plim.TableIConfigs() {
		out = append(out, c.Name+capSuffix)
	}
	return out
}

// writeDigests recomputes the reference table from this checkout's program:
// every benchmark × mixConfigs compile through an in-process server, and
// the Table I CSV of a plain engine run.
func writeDigests(ctx context.Context, path string) error {
	s, err := startServed(workerCap)
	if err != nil {
		return err
	}
	defer s.stop()
	t := &digestTable{compile: map[string]compileDigest{}}
	for _, bench := range plim.Benchmarks() {
		for _, cfg := range mixConfigs() {
			var o outcome
			s.c.do(ctx, &request{path: "/v1/compile", body: mustMarshal(computeBody{Benchmark: bench, Config: cfg})}, &o)
			var r compileReply
			if err := decodeReply(&o, &r); err != nil {
				return fmt.Errorf("%s/%s: %w", bench, cfg, err)
			}
			t.compile[digestKey(bench, cfg)] = digestOf(&r)
		}
	}
	sr, err := plim.NewEngine(plim.WithWorkers(workerCap)).RunSuite(ctx, plim.TableIConfigs())
	if err != nil {
		return err
	}
	csv, err := tableICSV(sr)
	if err != nil {
		return err
	}
	t.tableICSV = sha256Hex(csv)
	return t.write(path)
}

// decodeReply checks for a 200 response and decodes its JSON body.
func decodeReply(o *outcome, v any) error {
	if o.err != nil {
		return o.err
	}
	if o.status != 200 {
		return fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	return json.Unmarshal(o.body, v)
}

func tableICSV(sr *plim.SuiteResult) (string, error) {
	t, err := plim.TableI(sr)
	if err != nil {
		return "", err
	}
	return t.Grid().CSV(), nil
}

func sha256Hex(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// sourceDigest hashes the checkout's Go sources and module files, which
// identifies the measured code where no git metadata is available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
