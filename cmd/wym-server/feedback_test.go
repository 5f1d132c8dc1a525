package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"wym"
	"wym/internal/datagen"
	"wym/internal/testproc"
)

// driftedLabels builds adjudicated labels over test-split pairs with the
// right side's vocabulary drifted — the post-train shift the feedback
// loop exists to repair (identical aligned tokens carry no signal).
func driftedLabels(t *testing.T, n int) []feedbackLabel {
	t.Helper()
	d, _ := wym.DatasetByKey("S-BR", 1.0)
	_, _, test := d.MustSplit(0.6, 0.2, 1)
	if test.Size() < n {
		t.Fatalf("test split too small: %d", test.Size())
	}
	out := make([]feedbackLabel, n)
	for i, p := range test.Pairs[:n] {
		out[i] = feedbackLabel{
			Left:  p.Left,
			Right: datagen.DriftEntity(p.Right, 0.8, 11),
			Match: p.Label == wym.Match,
		}
	}
	return out
}

func postFeedback(t *testing.T, url string, labels []feedbackLabel) *http.Response {
	t.Helper()
	return post(t, url, feedbackRequest{Labels: labels})
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFeedbackDisabledWithoutDir(t *testing.T) {
	srv, _ := server(t) // quietOptions: no feedbackDir
	defer srv.Close()

	resp := postFeedback(t, srv.URL+"/admin/feedback", driftedLabels(t, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	r2, err := http.Get(srv.URL + "/admin/feedback")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[feedbackStatus](t, r2)
	if st.Enabled || st.SupportsFeedback {
		t.Fatalf("status with feedback disabled = %+v", st)
	}
}

func TestFeedbackApplyJournalsAndSwaps(t *testing.T) {
	dir := t.TempDir()
	opts := quietOptions()
	opts.feedbackDir = dir
	a := testApp(t, opts)
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	labels := driftedLabels(t, 8)

	// Batch 1.
	resp := postFeedback(t, srv.URL+"/admin/feedback", labels[:5])
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	ack := decodeBody[feedbackResponse](t, resp)
	if ack.Applied != 5 || ack.LabelsTotal != 5 || !strings.HasPrefix(ack.Fingerprint, "fnv64:") {
		t.Fatalf("ack = %+v", ack)
	}

	// The swap must be visible: the served system now carries feedback.
	if got := a.ref.Get().FeedbackCount(); got != 5 {
		t.Fatalf("served FeedbackCount = %d, want 5", got)
	}
	// The original trained system is untouched (copy-on-write).
	if trainedSys.FeedbackCount() != 0 {
		t.Fatal("feedback mutated the shared trained system")
	}

	// The journal is on disk under the model's name.
	if _, err := os.Stat(filepath.Join(dir, "default", "000000.wymfbk")); err != nil {
		t.Fatalf("journal segment missing: %v", err)
	}

	// Batch 2 accumulates.
	resp = postFeedback(t, srv.URL+"/admin/feedback", labels[5:])
	ack2 := decodeBody[feedbackResponse](t, resp)
	if ack2.LabelsTotal != 8 || ack2.Fingerprint == ack.Fingerprint {
		t.Fatalf("second ack = %+v (first fingerprint %s)", ack2, ack.Fingerprint)
	}

	// Status reflects the served provenance and the open journal.
	r, err := http.Get(srv.URL + "/admin/feedback")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[feedbackStatus](t, r)
	if !st.Enabled || !st.SupportsFeedback || st.LabelsTotal != 8 ||
		st.Fingerprint != ack2.Fingerprint || st.JournalRecords != 2 {
		t.Fatalf("status = %+v", st)
	}

	// Metrics moved.
	if got := a.fbLabels.Value(); got != 8 {
		t.Fatalf("wym_feedback_labels_total = %d, want 8", got)
	}
	if got := a.fbApplies.Value(); got != 2 {
		t.Fatalf("wym_feedback_applies_total = %d, want 2", got)
	}
}

func TestFeedbackRejectsBadBatches(t *testing.T) {
	dir := t.TempDir()
	opts := quietOptions()
	opts.feedbackDir = dir
	a := testApp(t, opts)
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	// Empty batch.
	resp := postFeedback(t, srv.URL+"/admin/feedback", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Wrong attribute arity.
	resp = postFeedback(t, srv.URL+"/admin/feedback",
		[]feedbackLabel{{Left: []string{"just-one"}, Right: []string{"also-one"}, Match: true}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad arity status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown model.
	resp = postFeedback(t, srv.URL+"/admin/models/nope/feedback", driftedLabels(t, 1))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	if got := a.fbRejected.Value(); got != 1 {
		t.Fatalf("wym_feedback_rejected_total = %d, want 1 (arity reject only)", got)
	}
	// Nothing journaled, nothing swapped.
	if a.ref.Get().FeedbackCount() != 0 {
		t.Fatal("rejected batches reached the served model")
	}
}

// TestFeedbackReplayOnStartup pins the serving durability contract
// in-process: a new app over the same journal directory must come up
// serving the exact feedback state the previous generation acked.
func TestFeedbackReplayOnStartup(t *testing.T) {
	dir := t.TempDir()
	opts := quietOptions()
	opts.feedbackDir = dir
	a1 := testApp(t, opts)
	srv := httptest.NewServer(a1.handler())

	resp := postFeedback(t, srv.URL+"/admin/feedback", driftedLabels(t, 6))
	ack := decodeBody[feedbackResponse](t, resp)
	if !strings.HasPrefix(ack.Fingerprint, "fnv64:") {
		t.Fatalf("ack = %+v", ack)
	}
	srv.Close()
	a1.feedback.Close()

	// "Restart": a fresh app over the same directory and the same
	// (feedback-free) trained artifact.
	opts2 := quietOptions()
	opts2.feedbackDir = dir
	a2 := testApp(t, opts2)
	defer a2.feedback.Close()
	sys := a2.ref.Get()
	if sys.FeedbackCount() != 6 || sys.FeedbackFingerprint() != ack.Fingerprint {
		t.Fatalf("replayed state: count=%d fp=%q, want 6 / %q",
			sys.FeedbackCount(), sys.FeedbackFingerprint(), ack.Fingerprint)
	}
	if sys.DecisionThreshold() != ack.Threshold {
		t.Fatalf("replayed threshold %.17g != acked %.17g", sys.DecisionThreshold(), ack.Threshold)
	}
}

// --- subprocess crash e2e -------------------------------------------------

func buildServerBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "wym-server")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building wym-server: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, base string, proc *exec.Cmd) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if proc.ProcessState != nil {
			t.Fatalf("server exited before becoming healthy: %v", proc.ProcessState)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("server did not become healthy in 30s")
}

// TestFeedbackKillReplay is the label-race acceptance e2e: POST feedback
// batches into a live server while predict load runs, SIGKILL the
// process (no cleanup chance — only the journal fsync discipline
// protects the acked labels), restart on the same journal directory, and
// require the served feedback fingerprint to match the last ack.
func TestFeedbackKillReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	workDir := t.TempDir()
	bin := buildServerBinary(t, workDir)
	modelPath := savedModel(t)
	fbDir := filepath.Join(workDir, "feedback")
	addr := freeAddr(t)
	base := "http://" + addr

	serverArgs := []string{"-model", modelPath, "-addr", addr, "-feedback-dir", fbDir}
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, serverArgs...)
		cmd.Stderr = os.Stderr
		testproc.Start(t, cmd)
		return cmd
	}
	proc := start()
	waitHealthy(t, base, proc)

	// Background predict load for the duration of the feedback batches,
	// so the kill lands while the hot path is racing the swaps.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	body, _ := json.Marshal(pairRequest{Left: trainedEx.Left, Right: trainedEx.Right})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/predict", "application/json", strings.NewReader(string(body)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	labels := driftedLabels(t, 9)
	var lastAck feedbackResponse
	for i := 0; i < len(labels); i += 3 {
		buf, _ := json.Marshal(feedbackRequest{Labels: labels[i : i+3]})
		resp, err := http.Post(base+"/admin/feedback", "application/json", strings.NewReader(string(buf)))
		if err != nil {
			t.Fatalf("feedback batch %d: %v", i/3, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback batch %d: status %d, body %s", i/3, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &lastAck); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if lastAck.LabelsTotal != len(labels) || lastAck.Fingerprint == "" {
		t.Fatalf("last ack = %+v", lastAck)
	}

	// SIGKILL: the process gets no chance to flush or clean up.
	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc.Wait()

	// Restart on the same journal directory: startup replay must
	// reproduce the acked feedback state exactly.
	proc2 := start()
	waitHealthy(t, base, proc2)

	resp, err := http.Get(base + "/admin/feedback")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[feedbackStatus](t, resp)
	if st.Fingerprint != lastAck.Fingerprint {
		t.Fatalf("post-crash fingerprint %q != acked %q", st.Fingerprint, lastAck.Fingerprint)
	}
	if st.LabelsTotal != lastAck.LabelsTotal {
		t.Fatalf("post-crash labels %d != acked %d", st.LabelsTotal, lastAck.LabelsTotal)
	}
	if st.Threshold != lastAck.Threshold {
		t.Fatalf("post-crash threshold %.17g != acked %.17g", st.Threshold, lastAck.Threshold)
	}
	if st.JournalRecords != 3 {
		t.Fatalf("journal records = %d, want 3", st.JournalRecords)
	}

	proc2.Process.Signal(syscall.SIGTERM)
	proc2.Wait()
}

// TestModelLoadRacesFeedback hammers a named model with concurrent
// admin loads and feedback batches. Both paths touch the model's
// journal (load replays it via registry onLoad, feedback appends to
// it) and both publish via ref.Set, so they must serialize on
// reloadMu — the race detector catches any regression, and the final
// reload must surface every acknowledged label.
func TestModelLoadRacesFeedback(t *testing.T) {
	opts := quietOptions()
	opts.feedbackDir = t.TempDir()
	a := testApp(t, opts)
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	path := savedModel(t)
	loadModel(t, srv, "alt", path)

	labels := driftedLabels(t, 4)
	const rounds = 6
	var (
		wg      sync.WaitGroup
		acked   int64
		loadErr error
		fbErr   error
	)
	postJSON := func(url string, body any) (*http.Response, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		return http.Post(url, "application/json", bytes.NewReader(buf))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			lb := labels[i%len(labels)]
			resp, err := postJSON(srv.URL+"/admin/models/alt/feedback",
				feedbackRequest{Labels: []feedbackLabel{lb}})
			if err != nil {
				fbErr = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				atomic.AddInt64(&acked, 1)
			} else if resp.StatusCode != http.StatusNotFound {
				// 404 can happen if a concurrent unload-style eviction
				// raced us out; anything else is a real failure.
				fbErr = fmt.Errorf("feedback status %d", resp.StatusCode)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := postJSON(srv.URL+"/admin/models/alt/load", reloadRequest{Path: path})
			if err != nil {
				loadErr = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				loadErr = fmt.Errorf("load status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	if fbErr != nil {
		t.Fatalf("feedback goroutine: %v", fbErr)
	}
	if loadErr != nil {
		t.Fatalf("load goroutine: %v", loadErr)
	}
	if acked == 0 {
		t.Fatal("no feedback batch was acknowledged")
	}

	// A fresh load replays the journal: every acked label must be there.
	loadModel(t, srv, "alt", path)
	resp, err := http.Get(srv.URL + "/admin/models/alt/feedback")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[feedbackStatus](t, resp)
	if int64(st.LabelsTotal) != acked {
		t.Fatalf("replayed labels = %d, acked = %d", st.LabelsTotal, acked)
	}
}

// TestAdminModelOpsSerializeOnReloadMu pins the serialization contract
// deterministically: while reloadMu is held (as feedbackWith holds it
// for its apply-journal-swap sequence), named-model load and unload
// must block rather than proceed — a load that slips through would
// replay the journal concurrently with an in-flight Append and could
// publish a model missing an acked batch.
func TestAdminModelOpsSerializeOnReloadMu(t *testing.T) {
	a := testApp(t, quietOptions())
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	path := savedModel(t)
	loadModel(t, srv, "alt", path)

	// Measure an uncontended hot reload to scale the blocking window.
	t0 := time.Now()
	loadModel(t, srv, "alt", path)
	uncontended := time.Since(t0)

	postJSON := func(url string, body any) (int, error) {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	a.reloadMu.Lock()
	type result struct {
		op   string
		code int
		err  error
	}
	done := make(chan result, 2)
	go func() {
		code, err := postJSON(srv.URL+"/admin/models/alt/load", reloadRequest{Path: path})
		done <- result{"load", code, err}
	}()
	go func() {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/admin/models/alt", nil)
		if err != nil {
			done <- result{"unload", 0, err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{"unload", 0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- result{"unload", resp.StatusCode, nil}
	}()

	// Neither op may finish while the mutex is held. The window is 4x an
	// uncontended load (plus a second of slack), so a handler that skips
	// the mutex finishes well inside it.
	select {
	case r := <-done:
		a.reloadMu.Unlock()
		t.Fatalf("%s completed (code %d, err %v) while reloadMu was held", r.op, r.code, r.err)
	case <-time.After(4*uncontended + time.Second):
	}
	a.reloadMu.Unlock()

	for i := 0; i < 2; i++ {
		select {
		case r := <-done:
			if r.err != nil || r.code != http.StatusOK {
				t.Fatalf("%s after release: code %d, err %v", r.op, r.code, r.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("admin op never completed after reloadMu release")
		}
	}
}
