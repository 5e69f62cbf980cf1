package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"plim"
	"plim/internal/server"
)

// served is an in-process plimserve: server.New over a fresh engine behind
// a loopback listener, with a client limited to the engine's worker count.
type served struct {
	eng  *plim.Engine
	hs   *http.Server
	c    *client
	done chan error
}

func startServed(workers int) (*served, error) {
	eng := plim.NewEngine(plim.WithWorkers(workers))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		eng:  eng,
		hs:   &http.Server{Handler: server.New(eng, server.Options{})},
		c:    newClient("http://"+ln.Addr().String(), workers),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *served) stop() {
	s.c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timed-out drain still closes the listener; Serve returns below
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "e2ebench: server: %v\n", err)
	}
}

// setupRepeated sets a workload up setupRepeats times, tearing down all
// but the last instance, and returns that instance with the set-up times
// in seconds. Repeating makes setup_s a median rather than one sample.
func setupRepeated[T any](setup func() (T, error), teardown func(T)) (T, sample, error) {
	var cur T
	var times sample
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(cur)
			runtime.GC() // keep the dropped instance out of the next one's peak RSS
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return cur, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur = v
	}
	return cur, times, nil
}

// computeBody is the subset of the server's request body the benchmark
// sends.
type computeBody struct {
	Benchmark     string      `json:"benchmark,omitempty"`
	Netlist       string      `json:"netlist,omitempty"`
	Config        string      `json:"config,omitempty"`
	Emit          string      `json:"emit,omitempty"`
	Verify        bool        `json:"verify,omitempty"`
	VectorsPacked *packedWire `json:"vectors_packed,omitempty"`
	Output        string      `json:"output,omitempty"`
	Trace         bool        `json:"trace,omitempty"`
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always encode
	}
	return b
}

// packedWire is the server's bit-sliced vector encoding: line-major
// little-endian words.
type packedWire struct {
	N     int    `json:"n"`
	Lines int    `json:"lines"`
	Words []byte `json:"words"`
}

func packWire(b *plim.Batch) *packedWire {
	words := make([]byte, 0, b.Lines()*b.Chunks()*8)
	for i := 0; i < b.Lines(); i++ {
		for c := 0; c < b.Chunks(); c++ {
			words = binary.LittleEndian.AppendUint64(words, b.Word(i, c))
		}
	}
	return &packedWire{N: b.Len(), Lines: b.Lines(), Words: words}
}

// word returns word c of line i.
func (p *packedWire) word(i, c int) uint64 {
	chunks := (p.N + 63) / 64
	return binary.LittleEndian.Uint64(p.Words[(i*chunks+c)*8:])
}

// writesWire is the write summary of a response.
type writesWire struct {
	Devices int     `json:"devices"`
	Min     uint64  `json:"min"`
	Max     uint64  `json:"max"`
	Total   uint64  `json:"total"`
	StdDev  float64 `json:"stdev"`
}

// compileReply is the part of a /v1/compile response the checks read.
type compileReply struct {
	Instructions  int        `json:"instructions"`
	RRAMs         int        `json:"rrams"`
	Writes        writesWire `json:"writes"`
	ProgramBinary []byte     `json:"program_binary"`
	Verification  *struct {
		OK          bool   `json:"ok"`
		Fingerprint string `json:"program_fingerprint"`
		TotalWrites uint64 `json:"total_writes"`
	} `json:"verification"`
	Trace *traceBlock `json:"trace"`
}

// executeReply is the part of a /v1/execute response the checks read.
type executeReply struct {
	Fingerprint  string      `json:"program_fingerprint"`
	Instructions int         `json:"instructions"`
	Vectors      int         `json:"vectors"`
	Chunks       int         `json:"chunks"`
	OutputsPack  *packedWire `json:"outputs_packed"`
	Writes       writesWire  `json:"writes"`
	Fault        any         `json:"fault"`
	Trace        *traceBlock `json:"trace"`
}

// traceBlock is the "trace" member of a traced response.
type traceBlock struct {
	WallMS float64 `json:"wall_ms"`
	Stages []struct {
		Name string  `json:"name"`
		MS   float64 `json:"ms"`
	} `json:"stages_ms"`
	Spans []struct {
		Kind  string            `json:"kind"`
		Name  string            `json:"name"`
		DurMS float64           `json:"dur_ms"`
		Attrs map[string]string `json:"attrs"`
	} `json:"spans"`
}

// stage returns a stage total of the block in milliseconds.
func (t *traceBlock) stage(name string) float64 {
	for _, s := range t.Stages {
		if s.Name == name {
			return s.MS
		}
	}
	return 0
}

// spans returns the count and summed duration of the block's spans of one
// kind.
func (t *traceBlock) spans(kind string) (n int, ms float64) {
	for _, s := range t.Spans {
		if s.Kind == kind {
			n++
			ms += s.DurMS
		}
	}
	return n, ms
}

// rewrites counts the block's rewrite-cache probes that computed a
// rewrite, as opposed to being served by a cache tier.
func (t *traceBlock) rewrites() int {
	n := 0
	for _, s := range t.Spans {
		if s.Name == "rewrite-probe" && s.Attrs["outcome"] == "compute" {
			n++
		}
	}
	return n
}

// checkOutputs compares packed outputs against mig.Eval of the source MIG
// on the same vectors — an evaluator independent of the executor under
// test.
func checkOutputs(src *plim.MIG, in *plim.Batch, out *packedWire) error {
	if out == nil {
		return fmt.Errorf("no packed outputs")
	}
	if out.N != in.Len() || out.Lines != src.NumPOs() {
		return fmt.Errorf("outputs are %d×%d, want %d×%d", out.N, out.Lines, in.Len(), src.NumPOs())
	}
	if want := out.Lines * in.Chunks() * 8; len(out.Words) != want {
		return fmt.Errorf("outputs carry %d bytes, want %d", len(out.Words), want)
	}
	words := make([]uint64, in.Lines())
	for c := 0; c < in.Chunks(); c++ {
		for i := range words {
			words[i] = in.Word(i, c)
		}
		ref := src.Eval(words)
		mask := in.ActiveMask(c)
		for po, w := range ref {
			if (w^out.word(po, c))&mask != 0 {
				return fmt.Errorf("output %d differs from mig.Eval in chunk %d", po, c)
			}
		}
	}
	return nil
}

// benchSources memoizes locally generated benchmark MIGs, the reference
// side of the execute checks.
type benchSources struct {
	mu sync.Mutex
	m  map[string]*plim.MIG
}

func (b *benchSources) get(name string) (*plim.MIG, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if m, ok := b.m[name]; ok {
		return m, nil
	}
	m, err := plim.BenchmarkScaled(name, 1)
	if err != nil {
		return nil, err
	}
	if b.m == nil {
		b.m = map[string]*plim.MIG{}
	}
	b.m[name] = m
	return m, nil
}
