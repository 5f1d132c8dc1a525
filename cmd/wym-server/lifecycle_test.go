package main

// Fault-injection end-to-end tests: prove the server survives handler
// panics, sheds load past the in-flight cap, drains cleanly on SIGTERM,
// and keeps serving the old model when a reload fails — the acceptance
// bar for production serving. The serve.Injector drives each failure
// deterministically; run with -race to also exercise the reload/predict
// concurrency (Makefile `serve-race`).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wym/internal/serve"
)

// savedModel writes the shared trained system to a gob in a temp dir.
func savedModel(t *testing.T) string {
	t.Helper()
	sys := trained(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func goodBody(t *testing.T) string {
	t.Helper()
	buf, err := json.Marshal(pairRequest{Left: trainedEx.Left, Right: trainedEx.Right})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestInjectedPanicReturns500AndServerSurvives(t *testing.T) {
	inj := serve.NewInjector(serve.Faults{PanicEvery: 2})
	opts := quietOptions()
	opts.faults = inj
	a := testApp(t, opts)
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	body := goodBody(t)
	// Requests 1, 3 succeed; request 2 hits the injected panic.
	want := []int{http.StatusOK, http.StatusInternalServerError, http.StatusOK}
	for i, ws := range want {
		resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: transport error %v (server died?)", i+1, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != ws {
			t.Fatalf("request %d status = %d, want %d (body %s)", i+1, resp.StatusCode, ws, got)
		}
		if ws == http.StatusInternalServerError && !strings.Contains(string(got), "internal server error") {
			t.Fatalf("request %d error body = %s", i+1, got)
		}
	}
}

func TestLoadSheddingReturns429WithRetryAfter(t *testing.T) {
	// Cap two in-flight requests and stall each admitted one, so a
	// concurrent burst must overflow into 429s.
	inj := serve.NewInjector(serve.Faults{LatencyEvery: 1, Latency: 400 * time.Millisecond})
	opts := quietOptions()
	opts.faults = inj
	opts.maxInFlight = 2
	opts.retryAfter = 3 * time.Second
	opts.reqTimeout = 10 * time.Second
	a := testApp(t, opts)
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	const burst = 8
	body := goodBody(t)
	statuses := make([]int, burst)
	retryAfters := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfters[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, s := range statuses {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfters[i] != "3" {
				t.Fatalf("request %d Retry-After = %q, want \"3\"", i, retryAfters[i])
			}
		default:
			t.Fatalf("request %d status = %d, want 200 or 429", i, s)
		}
	}
	if ok < 2 {
		t.Fatalf("only %d requests admitted, cap is 2", ok)
	}
	if shed == 0 {
		t.Fatal("no requests were shed despite saturating the cap")
	}

	// Health checks bypass the limiter even at saturation, and the
	// server accepts normal traffic once the burst drains.
	inj.SetEnabled(false)
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz after burst = %d", h.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst predict = %d, want 200", resp.StatusCode)
	}
}

func TestSIGTERMDrainsInFlightRequests(t *testing.T) {
	// Full production wiring: serve.Server + signal.NotifyContext, a
	// stalled in-flight request, then a real SIGTERM to this process.
	inj := serve.NewInjector(serve.Faults{LatencyEvery: 1, Latency: 500 * time.Millisecond})
	opts := quietOptions()
	opts.faults = inj
	opts.reqTimeout = 10 * time.Second
	a := testApp(t, opts)
	srv := serve.New(serve.Config{
		Addr:          "127.0.0.1:0",
		ShutdownGrace: 10 * time.Second,
		ErrorLog:      log.New(io.Discard, "", 0),
	}, a.handler())
	a.drainFn = srv.Draining
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()

	type result struct {
		status int
		err    error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+srv.Addr()+"/predict", "application/json",
			strings.NewReader(goodBody(t)))
		if err != nil {
			got <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- result{status: resp.StatusCode}
	}()

	// Let the request get admitted (it then stalls 500ms in the
	// injector), then deliver SIGTERM mid-flight.
	time.Sleep(100 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("in-flight request failed during SIGTERM drain: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request status = %d, want 200", r.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if !srv.Draining() {
		t.Fatal("server does not report draining after SIGTERM")
	}
}

func TestFailedReloadKeepsOldModelUnderConcurrentPredicts(t *testing.T) {
	goodPath := savedModel(t)
	badPath := filepath.Join(t.TempDir(), "bad.gob")
	if err := os.WriteFile(badPath, []byte("definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	opts := quietOptions()
	a := testApp(t, opts)
	a.defaultEntry.path = goodPath
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	body := goodBody(t)
	stopHammer := make(chan struct{})
	hammerErr := make(chan error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopHammer:
					return
				default:
				}
				resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
				if err != nil {
					hammerErr <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					hammerErr <- fmt.Errorf("predict status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// A reload pointed at garbage must fail with 500 and leave the old
	// model serving.
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/admin/reload", "application/json",
			strings.NewReader(`{"path":"`+badPath+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("bad reload status = %d, want 500 (body %s)", resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), badPath) {
			t.Fatalf("reload error %s does not name the bad artifact", raw)
		}
	}
	if got := a.Reloads(); got != 0 {
		t.Fatalf("failed reloads were counted as swaps: %d", got)
	}

	// A valid artifact swaps in cleanly while predicts continue.
	resp, err := http.Post(srv.URL+"/admin/reload", "application/json",
		strings.NewReader(`{"path":"`+goodPath+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rl reloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rl.Status != "ok" || rl.Path != goodPath {
		t.Fatalf("good reload = %d %+v", resp.StatusCode, rl)
	}
	if got := a.Reloads(); got != 1 {
		t.Fatalf("reload count = %d, want 1", got)
	}

	close(stopHammer)
	wg.Wait()
	select {
	case err := <-hammerErr:
		t.Fatalf("concurrent predict failed during reloads: %v", err)
	default:
	}

	// And the model still predicts correctly after the churn.
	final, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	final.Body.Close()
	if final.StatusCode != http.StatusOK {
		t.Fatalf("post-reload predict = %d", final.StatusCode)
	}
}

func TestSIGHUPReloadsModelInPlace(t *testing.T) {
	path := savedModel(t)
	a := testApp(t, quietOptions())
	a.defaultEntry.path = path
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a.watchHUP(ctx)
	// Give the signal handler a beat to install before raising SIGHUP
	// (Notify is synchronous, but the goroutine must be receiving).
	time.Sleep(20 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for a.Reloads() == 0 {
		select {
		case <-deadline:
			t.Fatal("SIGHUP did not trigger a reload")
		case <-time.After(10 * time.Millisecond):
		}
	}
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(goodBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after SIGHUP reload = %d", resp.StatusCode)
	}
}

func TestAdminReloadWithEmptyBodyReloadsInPlace(t *testing.T) {
	path := savedModel(t)
	a := testApp(t, quietOptions())
	a.defaultEntry.path = path
	srv := httptest.NewServer(a.handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rl reloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rl.Path != path || rl.Reloads != 1 {
		t.Fatalf("in-place reload = %d %+v", resp.StatusCode, rl)
	}
}
