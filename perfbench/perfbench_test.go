package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		name       string
		n          int
		capPct     float64
		tail, pct  float64
		beyond     int
		wantMedian float64
	}{
		// 100 samples: exactly 10 lie beyond the 90th.
		{"plain rule", 100, 100, 90, 90, 10, 50.5},
		// 2000 samples: p99 has 20 beyond, so the cap applies.
		{"capped at p99", 2000, 99, 1980, 99, 20, 1000.5},
		// 500 samples: p99 has only 5 beyond; fall back to the rule.
		{"cap too high for n", 500, 99, 490, 98, 10, 250.5},
		// 23 samples: the smallest count whose rule rank is above the median.
		{"smallest tail", 23, 100, 13, 100 * 13.0 / 23, 10, 12},
		// 22 samples: the rule's rank is the median's; report the max.
		{"no tail", 22, 100, 22, 100, 0, 11.5},
		{"single sample", 1, 99, 1, 100, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := summarize(seq(tc.n), tc.capPct)
			if l.N != tc.n || l.Tail != tc.tail || l.TailPct != tc.pct || l.Beyond != tc.beyond || l.P50 != tc.wantMedian {
				t.Fatalf("summarize(%d, cap %v) = %+v, want tail %v at p%v with %d beyond, median %v",
					tc.n, tc.capPct, l, tc.tail, tc.pct, tc.beyond, tc.wantMedian)
			}
		})
	}
	if l := summarize(nil, 99); l.N != 0 {
		t.Fatalf("summarize(nil) = %+v", l)
	}
}

func TestSchedule(t *testing.T) {
	reads := func(i int) *op { return &op{route: routePredict, pair: i} }
	extra := []*op{{route: routeFeedback}, {route: routeFeedback}}
	s := schedule(10, time.Second, reads, extra)
	if len(s) != 12 {
		t.Fatalf("len = %d, want 10 reads + 2 writes", len(s))
	}
	var writes []time.Duration
	for i, o := range s {
		if i > 0 && o.due < s[i-1].due {
			t.Fatalf("op %d due %v before op %d due %v", i, o.due, i-1, s[i-1].due)
		}
		if o.route == routeFeedback {
			writes = append(writes, o.due)
		} else if want := time.Duration(o.pair) * 100 * time.Millisecond; o.due != want {
			t.Fatalf("read %d due %v, want %v", o.pair, o.due, want)
		}
	}
	if writes[0] != 250*time.Millisecond || writes[1] != 750*time.Millisecond {
		t.Fatalf("writes due %v, want midpoints of two halves", writes)
	}
}

// TestOpenLoopTimesFromDue stalls the first request: requests queued
// behind it on the single connection must report the stall in their
// latency, while the generator itself stays on time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, nil, "t-")
	defer c.close()
	sched := schedule(100, 100*time.Millisecond, func(i int) *op {
		return &op{route: routePredict, body: []byte(`{}`), pair: i}
	}, nil)
	ss, _ := openLoop(c, 1, sched)
	if len(ss) != 10 {
		t.Fatalf("%d samples, want 10", len(ss))
	}
	for _, s := range ss {
		if !s.ok() {
			t.Fatalf("sample %d failed: %d %v", s.op.pair, s.status, s.err)
		}
		if s.late > 50*time.Millisecond {
			t.Errorf("generator %v late on op %d", s.late, s.op.pair)
		}
	}
	// The last op was due at 90ms but could only start after the 200ms
	// stall: its latency from due is over 100ms though it took ~0ms.
	if last := ss[len(ss)-1]; last.latency < 100*time.Millisecond {
		t.Fatalf("queued op latency %v does not include the stall", last.latency)
	}
}

func TestClosedLoopSequence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusTeapot)
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2, nil, "t-")
	defer c.close()
	ss, elapsed := closedLoop(c, 2, 50*time.Millisecond, func(i int) *op {
		return &op{route: routePredict, body: []byte(`{}`), pair: i}
	})
	if len(ss) == 0 || elapsed < 50*time.Millisecond {
		t.Fatalf("%d samples in %v", len(ss), elapsed)
	}
	ta := tally{}
	ta.add("timed", ss)
	if attempted, failed := ta.totals(); attempted != len(ss) || failed != len(ss) {
		t.Fatalf("totals %d/%d, want every non-2xx counted as failed", attempted, failed)
	}
}

func TestF1(t *testing.T) {
	if got := labelF1([]bool{true, true, false, false}, []bool{true, false, true, false}); got != 0.5 {
		t.Fatalf("labelF1 = %v, want 0.5", got)
	}
	if got := labelF1([]bool{false}, []bool{false}); got != 0 {
		t.Fatalf("labelF1 with no positives = %v, want 0", got)
	}
	truth := [][2]int{{0, 1}, {2, 3}, {4, 5}}
	// Two hits (one duplicated) and one false pair: P 2/3, R 2/3.
	got := pairF1([][2]int{{0, 1}, {0, 1}, {2, 3}, {9, 9}}, truth)
	if want := 2.0 / 3; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("pairF1 = %v, want %v", got, want)
	}
	if got := recall([][2]int{{0, 1}, {7, 7}}, truth); got != 1.0/3 {
		t.Fatalf("recall = %v, want 1/3", got)
	}
}

func TestFileHash(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	os.WriteFile(a, []byte("abc"), 0o644)
	os.WriteFile(b, []byte("abd"), 0o644)
	ha, err := fileHash(a)
	if err != nil {
		t.Fatal(err)
	}
	if ha != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Fatalf("sha256(abc) = %s", ha)
	}
	if hb, _ := fileHash(b); hb == ha {
		t.Fatal("different files hash equal")
	}
}

func TestReadMatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.csv")
	os.WriteFile(path, []byte("left,right,label,proba\n0,4,1,0.9\n1,2,0,0.2\n3,3,1,0.7\n"), 0o644)
	got, err := readMatches(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != [2]int{0, 4} || got[1] != [2]int{3, 3} {
		t.Fatalf("readMatches = %v", got)
	}
}

// TestMetricNames pins the metric lists to BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.EndToEnd) != len(endToEnd) || len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d",
			len(bench.EndToEnd), len(bench.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bench.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, endToEnd[i])
		}
		seen[m.Name] = true
	}
	for i, m := range bench.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, perLayer[i])
		}
		seen[m.Name] = true
	}
	if len(seen) != len(endToEnd)+len(perLayer) {
		t.Error("a metric name is listed twice")
	}
	for name := range seen {
		if !validName.MatchString(name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestSmoke builds wym and wym-server and runs every workload end to end,
// untraced and traced, on tiny inputs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and trains models")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "./cmd/wym", "./cmd/wym-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	root := t.TempDir()
	for _, name := range []string{"serve-read", "serve-learn", "match-table"} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: traced, smoke: true, root: root, bin: bin}
			res, err := execute(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != want {
				t.Fatalf("%s traced=%v: %+v", name, traced, res)
			}
		}
	}
}
