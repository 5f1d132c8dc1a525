package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request the load generator sends.
type op struct {
	route string
	body  []byte
	pair  int           // first pool index the request decides (-1 for none)
	due   time.Duration // open loop: offset from the phase start
}

// sample is the outcome of one sent op.
type sample struct {
	op      *op
	seq     int
	latency time.Duration // closed loop: from send; open loop: from due time
	late    time.Duration // open loop: how late the generator sent it
	status  int
	err     error
	body    []byte // response body, kept for correctness checks
}

func (s sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// client sends ops over a fixed number of keep-alive connections.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	req  string // request-ID prefix
	seq  atomic.Int64
}

func newClient(base string, conns int, tr *tracer, reqPrefix string) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, base: base, tr: tr, req: reqPrefix}
}

// send performs one op and returns its sample; the latency is measured
// from send.
func (c *client) send(o *op) sample {
	seq := int(c.seq.Add(1))
	id := c.req + strconv.Itoa(seq)
	sp := c.tr.begin("http"+o.route, id, -1)
	start := time.Now()
	s := sample{op: o, seq: seq}
	method := http.MethodPost
	if o.body == nil {
		method = http.MethodGet
	}
	req, err := http.NewRequest(method, c.base+o.route, bytes.NewReader(o.body))
	if err == nil {
		req.Header.Set("X-Request-ID", id)
		var resp *http.Response
		if resp, err = c.hc.Do(req); err == nil {
			s.status = resp.StatusCode
			s.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	s.err = err
	s.latency = time.Since(start)
	c.tr.end(sp)
	return s
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// closedLoop runs workers callers, each sending its next op as soon as
// the previous one answers, until dur has elapsed. next(i) returns the
// i-th op of the run's deterministic sequence.
func closedLoop(c *client, workers int, dur time.Duration, next func(i int) *op) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		out     []sample
		counter atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(stop) {
				mine = append(mine, c.send(next(int(counter.Add(1)-1))))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out, time.Since(start)
}

// openLoop sends each op of sched at its due time, whatever the state of
// earlier requests. Ops wait in an unbounded client-side queue for one of
// workers connections, so a stall shows up as latency (measured from the
// due time) on every request queued behind it. sched must be sorted by
// due time.
func openLoop(c *client, workers int, sched []*op) ([]sample, time.Duration) {
	type job struct {
		o    *op
		due  time.Time
		late time.Duration
	}
	// Sized to the schedule, so the dispatcher never blocks on a busy
	// connection and its lateness is its own.
	queue := make(chan job, len(sched))
	out := make([]sample, 0, len(sched))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				s := c.send(j.o)
				s.latency = time.Since(j.due)
				s.late = j.late
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	for _, o := range sched {
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{o: o, due: due, late: time.Since(due)}
	}
	close(queue)
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].op.due < out[b].op.due })
	return out, time.Since(start)
}

// schedule spaces n ops of each kind evenly over dur and merges them in
// due order. rate ops per second of reads are laid at fixed intervals;
// extra ops (feedback batches) go at the midpoints of equal slices.
func schedule(rate float64, dur time.Duration, read func(i int) *op, extra []*op) []*op {
	n := int(rate * dur.Seconds())
	step := time.Duration(float64(time.Second) / rate)
	out := make([]*op, 0, n+len(extra))
	for i := 0; i < n; i++ {
		o := read(i)
		o.due = time.Duration(i) * step
		out = append(out, o)
	}
	for i, o := range extra {
		o.due = time.Duration((float64(i) + 0.5) * float64(dur) / float64(len(extra)))
		out = append(out, o)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// tally counts sent, succeeded and failed ops per phase and route.
type tally map[string]*[3]int

func (t tally) add(phase string, ss []sample) {
	for _, s := range ss {
		k := phase + " " + s.op.route
		if t[k] == nil {
			t[k] = new([3]int)
		}
		t[k][0]++
		if s.ok() {
			t[k][1]++
		} else {
			t[k][2]++
		}
	}
}

// totals returns the attempted and failed counts over every entry.
func (t tally) totals() (attempted, failed int) {
	for _, c := range t {
		attempted += c[0]
		failed += c[2]
	}
	return attempted, failed
}

func (t tally) lines() []string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		c := t[k]
		out[i] = fmt.Sprintf("loadgen %-24s sent %6d  ok %6d  failed %d", k, c[0], c[1], c[2])
	}
	return out
}

// latenciesMs collects the latencies of the successful samples on route.
func latenciesMs(ss []sample, route string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.op.route == route && s.ok() {
			out = append(out, float64(s.latency)/1e6)
		}
	}
	return out
}
