package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wym/internal/audit"
	"wym/internal/testproc"
)

// auditOptions returns serving options with auditing into dir at the
// given rate.
func auditOptions(dir string, rate float64, flush time.Duration) options {
	opts := quietOptions()
	opts.auditDir = dir
	opts.auditSample = strconv.FormatFloat(rate, 'g', -1, 64)
	opts.auditFlush = flush
	return opts
}

// TestAuditRecordsMatchCounters drives concurrent predicts with known
// request IDs through an audited in-process server and holds the
// accounting exact: every sent ID lands in exactly one of
// {recorded, sampled-out} per the deterministic sampler, the recovered
// log matches the recorded set, and the wym_audit_* counters agree.
func TestAuditRecordsMatchCounters(t *testing.T) {
	dir := t.TempDir()
	const rate = 0.5
	a := testApp(t, auditOptions(dir, rate, 5*time.Millisecond))
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	const n = 120
	body := goodBody(t)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest("POST", srv.URL+"/predict", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			id := fmt.Sprintf("e2e-%04d", i)
			req.Header.Set("X-Request-ID", id)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("predict %s: status %d", id, resp.StatusCode)
			}
			if echo := resp.Header.Get("X-Request-ID"); echo != id {
				t.Errorf("request ID echoed as %q, want %q", echo, id)
			}
		}(i)
	}
	wg.Wait()
	// The audit append runs after the response hits the wire, so the
	// last clients can return before their records land: wait for the
	// accounting to converge before closing the log.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		sum := a.audit.records["/predict"].Value() + a.audit.sampledOut["/predict"].Value() + a.audit.dropped.Value()
		if sum >= n {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := a.audit.Close(); err != nil {
		t.Fatal(err)
	}

	wantSampled := map[string]bool{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("e2e-%04d", i)
		if audit.Sampled(id, rate) {
			wantSampled[id] = true
		}
	}
	got := map[string]bool{}
	recs, stats, err := audit.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated != 0 {
		t.Fatalf("cleanly closed log has %d truncated segments", stats.Truncated)
	}
	for _, r := range recs {
		if got[r.RequestID] {
			t.Fatalf("request %s recorded twice", r.RequestID)
		}
		got[r.RequestID] = true
		if !wantSampled[r.RequestID] {
			t.Fatalf("request %s recorded but the sampler says skip at rate %g", r.RequestID, rate)
		}
		if r.Route != "/predict" || r.Model != defaultModelName {
			t.Fatalf("record %s has route=%q model=%q", r.RequestID, r.Route, r.Model)
		}
		if len(r.Units) == 0 {
			t.Fatalf("record %s stored no explanation units", r.RequestID)
		}
		// ArtifactFP is "" here only because testApp installs the model
		// without an artifact path; the subprocess e2e covers it.
		if r.LatencyNanos <= 0 {
			t.Fatalf("record %s has no latency: %+v", r.RequestID, r)
		}
	}
	if len(got) != len(wantSampled) {
		t.Fatalf("recovered %d records, sampler wanted %d", len(got), len(wantSampled))
	}
	recorded := a.audit.records["/predict"].Value()
	skipped := a.audit.sampledOut["/predict"].Value()
	dropped := a.audit.dropped.Value()
	if recorded != uint64(len(wantSampled)) || skipped != uint64(n-len(wantSampled)) || dropped != 0 {
		t.Fatalf("counters recorded=%d skipped=%d dropped=%d, want %d/%d/0",
			recorded, skipped, dropped, len(wantSampled), n-len(wantSampled))
	}
}

// TestAuditBatchAndExplainRoutes: the other hot routes record under
// their own derived IDs and route labels.
func TestAuditBatchAndExplainRoutes(t *testing.T) {
	dir := t.TempDir()
	a := testApp(t, auditOptions(dir, 1, 0))
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	req, _ := http.NewRequest("POST", srv.URL+"/predict/batch",
		strings.NewReader(`{"pairs": [`+goodBody(t)+`,`+goodBody(t)+`]}`))
	req.Header.Set("X-Request-ID", "batch-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ = http.NewRequest("POST", srv.URL+"/explain", strings.NewReader(goodBody(t)))
	req.Header.Set("X-Request-ID", "explain-1")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if a.audit.records["/predict/batch"].Value()+a.audit.records["/explain"].Value() >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := a.audit.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, err := audit.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]audit.Record{}
	for _, r := range recs {
		byID[r.RequestID] = r
	}
	for id, route := range map[string]string{
		"batch-1#0": "/predict/batch", "batch-1#1": "/predict/batch", "explain-1": "/explain",
	} {
		r, ok := byID[id]
		if !ok {
			t.Fatalf("no record for %s (have %v)", id, keysOf(byID))
		}
		if r.Route != route {
			t.Fatalf("record %s has route %q, want %q", id, r.Route, route)
		}
	}
}

func keysOf(m map[string]audit.Record) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// scrapeAuditCounters sums wym_audit_records_total and
// wym_audit_sampled_out_total across routes from a /metrics exposition.
func scrapeAuditCounters(t *testing.T, adminBase string) (recorded, skipped uint64) {
	t.Helper()
	resp, err := http.Get(adminBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(fields[0], "wym_audit_records_total"):
			recorded += v
		case strings.HasPrefix(fields[0], "wym_audit_sampled_out_total"):
			skipped += v
		}
	}
	return recorded, skipped
}

// TestAuditKillRecovery is the audit-race acceptance e2e: SIGKILL a
// real wym-server mid-predict-load with auditing on, then assert the
// crash contract — the log recovers with no torn records, everything
// the counters acknowledged before the storm survives, every recovered
// ID passes the sampler, and a restarted server appends cleanly to the
// same directory.
func TestAuditKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	dir := t.TempDir()
	bin := buildServerBinary(t, dir)
	model := savedModel(t)
	auditDir := dir + "/audit"
	addr, adminAddr := freeAddr(t), freeAddr(t)
	const rate = 0.5

	start := func() *exec.Cmd {
		proc := exec.Command(bin, "-model", model, "-addr", addr, "-admin-addr", adminAddr,
			"-audit-dir", auditDir, "-audit-sample", fmt.Sprint(rate), "-audit-flush", "50ms")
		proc.Stderr = os.Stderr
		testproc.Start(t, proc)
		return proc
	}
	proc := start()
	base, adminBase := "http://"+addr, "http://"+adminAddr
	waitHealthy(t, base, proc)

	body := goodBody(t)
	send := func(id string) {
		req, err := http.NewRequest("POST", base+"/predict", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s: status %d", id, resp.StatusCode)
		}
	}

	// Phase 1: acknowledged traffic, flushed before the crash.
	const acked = 40
	for i := 0; i < acked; i++ {
		send(fmt.Sprintf("acked-%04d", i))
	}
	// The append trails the response, so poll the counters until the
	// accounting converges.
	var recorded, skipped uint64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if recorded, skipped = scrapeAuditCounters(t, adminBase); recorded+skipped >= acked {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if recorded+skipped != acked {
		t.Fatalf("counters recorded=%d skipped=%d, want sum %d", recorded, skipped, acked)
	}
	time.Sleep(300 * time.Millisecond) // > -audit-flush: phase-1 records are durable

	// Phase 2: a concurrent storm with the kill landing inside it.
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest("POST", base+"/predict", strings.NewReader(body))
			req.Header.Set("X-Request-ID", fmt.Sprintf("storm-%04d", i))
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}(i)
		if i == 100 {
			proc.Process.Kill() // SIGKILL: no flush, no deferred Close
		}
	}
	wg.Wait()
	proc.Wait()

	// Recovery: the tolerant reader loses at most the unflushed tail.
	recs, _, err := audit.ReadAll(auditDir)
	if err != nil {
		t.Fatalf("scanning audit dir after SIGKILL: %v", err)
	}
	var gotAcked int
	for _, r := range recs {
		if !audit.Sampled(r.RequestID, rate) {
			t.Fatalf("recovered record %s that the sampler says skip", r.RequestID)
		}
		if strings.HasPrefix(r.RequestID, "acked-") {
			gotAcked++
		}
	}
	if uint64(gotAcked) != recorded {
		t.Fatalf("recovered %d acked records, counters acknowledged %d", gotAcked, recorded)
	}

	// Restart on the same directory: Open repairs any torn tail and the
	// log accepts new records.
	proc = start()
	waitHealthy(t, base, proc)
	send("post-restart")
	time.Sleep(300 * time.Millisecond)
	proc.Process.Signal(os.Interrupt)
	proc.Wait()
	recs, stats, err := audit.ReadAll(auditDir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.RequestID == "post-restart" {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-restart record missing from recovered log (%d records, %d truncated segments)",
			len(recs), stats.Truncated)
	}
}
