package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"plim/internal/trace"
)

// request is one prepared HTTP call. Bodies are built during set-up, so the
// measured loop only sends bytes.
type request struct {
	class string // request class, the unit of the per-class checks
	key   string // reference key the response is checked against
	path  string
	ctype string
	body  []byte
}

// outcome is what the load generator records for one request; responses
// are checked after the timed window, from these records.
type outcome struct {
	late      time.Duration // open loop: how late the generator issued the request
	latency   time.Duration // open loop: done − due; closed loop: done − sent
	service   time.Duration // done − sent
	status    int
	body      []byte
	coalesced bool // the server attached the request to another's flight
	err       error
}

func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// poissonSchedule returns n arrival offsets of a Poisson process on
// [0, window) conditioned on exactly n arrivals — n sorted uniform draws.
// Fixing the count keeps the offered load identical across seeds while the
// seed still decides how arrivals cluster.
func poissonSchedule(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// client sends requests over at most conns keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and fills the response fields of o.
func (c *client) do(ctx context.Context, r *request, o *outcome) {
	method := http.MethodPost
	var body io.Reader
	if r.body == nil {
		method = http.MethodGet
	} else {
		body = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.base+r.path, body)
	if err != nil {
		o.err = err
		return
	}
	if r.ctype != "" {
		hr.Header.Set("Content-Type", r.ctype)
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.body, o.err = io.ReadAll(resp.Body)
	o.status = resp.StatusCode
	o.coalesced = resp.Header.Get("X-Plim-Coalesced") != ""
}

// get fetches a path and returns the body, failing on a non-200 status.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	var o outcome
	c.do(ctx, &request{path: path}, &o)
	if o.err == nil && o.status != http.StatusOK {
		o.err = fmt.Errorf("GET %s: status %d", path, o.status)
	}
	return o.body, o.err
}

// openLoop sends reqs[i] at start+due[i] regardless of how earlier
// requests fare, over conns sender goroutines (one connection each). A
// request that finds every connection busy waits in the generator's queue,
// and that wait counts: latency runs from the due time, so a server stall
// shows in every request scheduled behind it, while the generator's own
// lateness (issue time − due time) stays small. Spans of the benchmark's
// own client calls are recorded into tr when it is non-nil.
func openLoop(ctx context.Context, c *client, reqs []*request, due []time.Duration, conns int, tr *trace.Trace) []outcome {
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(ctx, c, reqs[i], &out[i], w, tr)
				out[i].latency = time.Since(start) - due[i]
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(start.Add(due[i])); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		out[i].late = time.Since(start) - due[i]
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop is one caller that sends next(i) only after the reply to
// request i−1 arrived. It sends whole cycles of cycle requests — at least
// one, then more until window has elapsed — so every run weighs each
// request of a cycle equally, and returns the outcomes in sending order.
func closedLoop(ctx context.Context, c *client, next func(i int) *request, cycle int, window time.Duration, tr *trace.Trace) []outcome {
	var out []outcome
	start := time.Now()
	for i := 0; ctx.Err() == nil && (i < cycle || i%cycle != 0 || time.Since(start) < window); i++ {
		var o outcome
		send(ctx, c, next(i), &o, 0, tr)
		o.latency = o.service
		out = append(out, o)
	}
	return out
}

// send performs one call, timing it and recording its client span.
func send(ctx context.Context, c *client, r *request, o *outcome, conn int, tr *trace.Trace) {
	sp := trace.StartNoCtx(trace.NewContext(ctx, tr), "client", r.class)
	sp.SetWorker(conn)
	t0 := time.Now()
	c.do(ctx, r, o)
	o.service = time.Since(t0)
	if sp.Traced() {
		sp.Attr("key", r.key)
		sp.Attr("status", fmt.Sprint(o.status))
		sp.End()
	}
}
